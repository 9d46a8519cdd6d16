"""End-to-end tests for the command-line interface."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import botsift
from botsift.cli import build_parser, coerce_value, main, parse_hp
from botsift.flows import (CANONICAL_COLUMNS, CATEGORICAL_SUMMARY_COLUMNS,
                           NUMERIC_SUMMARY_COLUMNS, write_flow_csv)
from botsift.models import FAMILIES, load_artifact
from botsift.synth import SynthConfig, generate_scenario
from botsift.windows import Dataset, load_features, write_features
from test_config import fields_taking


@pytest.fixture(scope="module")
def flows_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "flows.csv"
    cfg = SynthConfig(n_background_flows=1500, n_background_sources=15,
                      n_botnet_sources=2, botnet_flow_rate=3.0,
                      duration=1200.0, seed=5)
    write_flow_csv(generate_scenario(cfg), path)
    return path


@pytest.fixture(scope="module")
def features_csv(tmp_path_factory, flows_csv):
    path = tmp_path_factory.mktemp("cli") / "features.csv"
    assert main(["extract", str(flows_csv), "--scenario", "demo",
                 "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def tiny_features_csv(tmp_path_factory):
    """Three-feature file small enough for elimination runs."""
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 60)
    rows = np.column_stack([labels + rng.normal(0, 0.05, 60),
                            rng.normal(0, 1, 60),
                            rng.normal(0, 1, 60)])
    ds = Dataset(rows, labels, ["signal", "noise_a", "noise_b"])
    path = tmp_path_factory.mktemp("cli") / "tiny.csv"
    write_features(ds, path)
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def assert_seed_refused(captured, value):
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: seed must be an integer in [0, inf), "
                      f"got {value}"], captured.err


def assert_one_error_naming(captured, name):
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and name in errors[0], captured.err
    assert captured.out == ""


class TestParsingHelpers:
    @pytest.mark.parametrize("text,expected", [
        ("5", 5), ("0.5", 0.5), ("true", True), ("False", False),
        ("none", None), ("256,128", (256, 128)), ("rbf", "rbf"),
    ])
    def test_coerce_value(self, text, expected):
        assert coerce_value(text) == expected

    def test_parse_hp(self):
        assert parse_hp(["n-trees=5", "loss=deviance"]) == {
            "n_trees": 5, "loss": "deviance"}

    def test_parse_hp_rejects_bare_key(self):
        with pytest.raises(ValueError, match="not key=value"):
            parse_hp(["n_trees"])


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_unknown_flag_is_2(self, flows_csv):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", str(flows_csv), "--bogus"])
        assert exc.value.code == 2

    def test_missing_required_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "-o", "x.csv"])
        assert exc.value.code == 2

    def test_runtime_error_is_1(self, capsys):
        assert main(["summarize", "/no/such/file.csv"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_installed_entry_point(self):
        proc = subprocess.run(["botsift", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "summarize" in proc.stdout


class TestSummarize:
    def test_prints_config_and_stats(self, flows_csv, capsys):
        assert main(["summarize", str(flows_csv)]) == 0
        out = capsys.readouterr().out
        assert "effective config:" in out
        assert "rows accepted: " in out
        assert "rows rejected: 0" in out
        assert "dur: min=" in out
        assert "proto: " in out

    def test_counts_rejected_rows_by_reason(self, flows_csv, tmp_path,
                                            capsys):
        lines = flows_csv.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]  # no label cell
        lines[2] = lines[2].replace(",", ",x", 1)  # duration "x1.29..."
        path = tmp_path / "flows.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert (f"rows accepted: {len(lines) - 3}\nrows rejected: 2\n"
                "  bad_duration: 1\n  short_row: 1\ndur: min=") in out

    def test_capture_without_an_accepted_row(self, tmp_path, capsys):
        path = tmp_path / "flows.csv"
        path.write_text(",".join(CANONICAL_COLUMNS) + "\n1,2\n3\n",
                        encoding="utf-8")
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rows accepted: 0\nrows rejected: 2\n  short_row: 2\n" in out
        for column in NUMERIC_SUMMARY_COLUMNS:
            assert f"\n{column}: empty\n" in out
        for column in CATEGORICAL_SUMMARY_COLUMNS:
            assert f"\n{column}: 0 distinct; top: \n" in out

    def test_echoes_config_before_loading(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "missing.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("effective config:")
        assert "missing.csv" in captured.err


@pytest.mark.parametrize("command", ["summarize", "train"])
def test_report_does_not_depend_on_cpu_count(command, flows_csv,
                                             tiny_features_csv, tmp_path,
                                             capsys, monkeypatch):
    """The default of the ignored --threads option is the same on every
    machine, so the echoed configuration is too."""
    argv = {"summarize": ["summarize", str(flows_csv)],
            "train": ["train", str(tiny_features_csv), "--model", "logreg",
                      "-o", str(tmp_path / "m.json")]}[command]
    outputs = []
    for cpus in (1, 8):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    if command == "train":
        assert "threads = 1" in outputs[0]


def config_lines(out):
    """The echoed configuration: the indented lines after the header."""
    lines = out.splitlines()
    assert lines[0] == "effective config:"
    block = []
    for line in lines[1:]:
        if not line.startswith("  "):
            break
        block.append(line.strip())
    return block


@pytest.mark.parametrize("command", ["train", "eval", "crossscen",
                                     "bootstrap-eval", "select-backward",
                                     "select-importance"])
def test_model_commands_echo_resolved_hyperparams(command, tiny_features_csv,
                                                  tmp_path, capsys):
    features = str(tiny_features_csv)
    model = str(tmp_path / "rf.json")
    hp = ["--hp", "n-trees=3"]
    if command == "eval":
        assert main(["train", features, *hp, "-o", model]) == 0
        capsys.readouterr()
    argv = {"train": ["train", features, *hp, "-o", model],
            "eval": ["eval", features, "--model-file", model],
            "crossscen": ["crossscen", "--train", features,
                          "--test", features, *hp],
            "bootstrap-eval": ["bootstrap-eval", features, "--factor", "2",
                               "--runs", "1", *hp],
            "select-backward": ["select", features, "--method", "backward",
                                *hp],
            "select-importance": ["select", features,
                                  "--method", "importance", *hp]}[command]
    assert main(argv) == 0
    resolved = [line for line in config_lines(capsys.readouterr().out)
                if line.startswith("resolved_hyperparams = ")]
    assert len(resolved) == 1
    assert resolved[0].startswith(
        "resolved_hyperparams = ForestParams(n_trees=3,")


class TestExtract:
    def test_defaults_echoed_and_file_written(self, flows_csv, tmp_path,
                                              capsys):
        out_path = tmp_path / "feat.csv"
        assert main(["extract", str(flows_csv), "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "width = 120.0" in out
        assert "stride = 60.0" in out
        assert "feature rows: " in out
        ds = load_features(out_path)
        assert len(ds.feature_names) == 22

    def test_scenario_comment(self, features_csv):
        first = open(features_csv).readline()
        assert first == "# scenario=demo\n"

    @pytest.mark.parametrize("scenario", ["two\nlines", "two\rlines"])
    def test_scenario_with_a_line_break_is_refused(self, flows_csv, tmp_path,
                                                   capsys, scenario):
        out_path = tmp_path / "feat.csv"
        assert main(["extract", str(flows_csv), "--scenario", scenario,
                     "-o", str(out_path)]) == 1
        assert "holds a line break" in capsys.readouterr().err
        assert not out_path.exists()


class TestTrain:
    def test_default_seed_and_model(self, features_csv, tmp_path, capsys):
        model_path = tmp_path / "rf.json"
        assert main(["train", str(features_csv),
                     "-o", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "seed = 42" in out
        assert "model = rf" in out
        artifact = load_artifact(model_path)
        assert artifact.family == "rf"
        assert artifact.hyperparams["n_trees"] == 100
        assert artifact.hyperparams["seed"] == 42

    def test_hp_override(self, features_csv, tmp_path):
        model_path = tmp_path / "rf5.json"
        assert main(["train", str(features_csv), "--hp", "n-trees=5",
                     "-o", str(model_path)]) == 0
        assert load_artifact(model_path).hyperparams["n_trees"] == 5

    def test_unknown_hp_is_runtime_error(self, features_csv, tmp_path,
                                         capsys):
        assert main(["train", str(features_csv), "--hp", "depth=3",
                     "-o", str(tmp_path / "x.json")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("family,name", [
        (family, name) for family in FAMILIES
        for name in fields_taking(FAMILIES[family].params, int)])
    @pytest.mark.parametrize("value", ["2.5", "true"])
    def test_int_hyperparameter_refuses_non_integers(self, tmp_path, capsys,
                                                     family, name, value):
        # refused before the (missing) feature file is read
        model_path = tmp_path / "model.json"
        assert main(["train", str(tmp_path / "missing.csv"), "--model",
                     family, "--hp", f"{name}={value}",
                     "-o", str(model_path)]) == 1
        assert_one_error_naming(capsys.readouterr(), name)
        assert not model_path.exists()

    @pytest.mark.parametrize("family,hp", [
        ("logreg", []),
        ("svm", ["--hp", "kernel=linear", "--hp", "epochs=3"]),
        ("gboost", ["--hp", "n-trees=5"]),
        ("nn", ["--hp", "hidden=8,4", "--hp", "epochs=2"]),
        ("nn", ["--hp", "hidden=16", "--hp", "epochs=2"]),
    ])
    def test_all_families_train(self, features_csv, tmp_path, family, hp):
        model_path = tmp_path / f"{family}.json"
        assert main(["train", str(features_csv), "--model", family,
                     *hp, "-o", str(model_path)]) == 0
        assert load_artifact(model_path).family == family


class TestEval:
    def test_eval_from_artifact(self, features_csv, tmp_path, capsys):
        model_path = tmp_path / "rf.json"
        main(["train", str(features_csv), "--hp", "n-trees=10",
              "-o", str(model_path)])
        csv_path = tmp_path / "eval.csv"
        assert main(["eval", str(features_csv),
                     "--model-file", str(model_path), "--runs", "2",
                     "--out-csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "Test f1" in out
        assert "demo" in out
        rows = read_csv(csv_path)
        assert rows[0][:3] == ["Botnet", "Size", "Botnet permille"]
        assert len(rows) == 2
        # repeated runs report mean and spread
        assert "±" in rows[1][-1]

    @pytest.mark.parametrize("text,field", [
        ("[1]", "not a JSON object"), ("not json", "not a JSON file"),
        ('{"format_version": 2}', "no family field"),
    ])
    def test_a_bad_model_file_is_refused(self, features_csv, tmp_path,
                                         capsys, text, field):
        model_path = tmp_path / "model.json"
        model_path.write_text(text, encoding="utf-8")
        assert main(["eval", str(features_csv),
                     "--model-file", str(model_path)]) == 1
        captured = capsys.readouterr()
        assert_one_error_naming(captured, f"{model_path}: ")
        assert field in captured.err

    def test_files_are_utf8_under_an_ascii_locale(self, flows_csv,
                                                  tmp_path):
        # a C locale without UTF-8 mode makes ASCII the default encoding
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [
                   str(Path(botsift.__file__).parents[1]),
                   os.environ.get("PYTHONPATH")]))}

        def run(*argv):
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from botsift.cli "
                 "import main; sys.exit(main(sys.argv[1:]))", *argv],
                env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.decode("utf-8")

        text = flows_csv.read_text(encoding="utf-8")
        header, first = text.splitlines()[:2]
        source = first.split(",")[header.split(",").index("SrcAddr")]
        capture = tmp_path / "flows.csv"
        capture.write_text(text.replace(f",{source},", ",hôte,"),
                           encoding="utf-8")
        features = tmp_path / "features.csv"
        run("extract", str(capture), "-o", str(features))
        # both files are read back as UTF-8
        assert "hôte" in load_features(features).keys["source"]

        model = tmp_path / "rf.json"
        run("train", str(features), "--hp", "n-trees=5", "-o", str(model))
        report = tmp_path / "eval.csv"
        out = run("eval", str(features), "--model-file", str(model),
                  "--runs", "2", "--out-csv", str(report))
        assert "±" in out
        assert "±" in read_csv(report)[1][-1]

    def test_bootstrap_eval(self, features_csv, tmp_path, capsys):
        assert main(["bootstrap-eval", str(features_csv), "--factor", "2",
                     "--runs", "2", "--hp", "n-trees=10"]) == 0
        assert "x2" in capsys.readouterr().out

    def test_bootstrap_eval_rejects_factor_zero(self, features_csv, capsys):
        assert main(["bootstrap-eval", str(features_csv), "--factor", "0",
                     "--runs", "1", "--hp", "n-trees=2"]) == 1
        assert "factor" in capsys.readouterr().err


class TestSweep:
    def test_grid_and_best(self, features_csv, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", str(features_csv), "--model", "gboost",
                     "--grid", "n-trees=2,4", "--grid", "max-depth=1,2",
                     "--runs", "1", "--out-csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "grid_points = 4" in out
        assert "best: " in out
        rows = read_csv(csv_path)
        assert len(rows) == 5
        assert sum(row[3] == "*" for row in rows[1:]) == 1

    def test_hp_applies_to_every_point(self, features_csv, tmp_path):
        def sweep(*flags):
            csv_path = tmp_path / "sweep.csv"
            assert main(["sweep", str(features_csv), "--model", "logreg",
                         *flags, "--runs", "1",
                         "--out-csv", str(csv_path)]) == 0
            return read_csv(csv_path)[1:]

        # --grid c overrides --hp c; --hp max_iter reaches each point
        rows = sweep("--grid", "c=1,10", "--hp", "max_iter=1",
                     "--hp", "c=5")
        assert [row[0] for row in rows] == ["max_iter=1 c=1 seed=42",
                                            "max_iter=1 c=10 seed=42"]
        gridded = sweep("--grid", "max_iter=1", "--grid", "c=1,10")
        assert [row[1:3] for row in rows] == [row[1:3] for row in gridded]

    def test_every_point_is_checked_before_the_file(self, tmp_path,
                                                    capsys):
        assert main(["sweep", str(tmp_path / "missing.csv"),
                     "--grid", "n-trees=3,0"]) == 1
        captured = capsys.readouterr()
        assert_one_error_naming(captured, "n_trees")
        assert "missing.csv" not in captured.err

    @pytest.mark.parametrize("grid", [["c=1,10", "c=100"],
                                      ["n-trees=2", "n_trees=3"]])
    def test_an_axis_given_twice_is_refused(self, tmp_path, capsys, grid):
        axis = grid[0].split("=")[0].replace("-", "_")
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", str(tmp_path / "missing.csv"),
                     "--grid", grid[0], "--grid", grid[1],
                     "--out-csv", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert_one_error_naming(captured, f"grid axis {axis} ")
        assert "missing.csv" not in captured.err
        assert not out_path.exists()

    def test_bad_grid_is_runtime_error(self, features_csv, capsys):
        assert main(["sweep", str(features_csv), "--grid", "n_trees"]) == 1
        assert "not key=v1,v2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--runs", "0"),
                                            ("--train-frac", "1.5")])
    def test_shared_argument_error_exits_1(self, features_csv, capsys,
                                           flag, value):
        assert main(["sweep", str(features_csv), "--model", "logreg",
                     "--grid", "c=1,10", flag, value]) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert "Params" not in captured.out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e300 overflows
    def test_failing_point_is_recorded(self, features_csv, tmp_path,
                                       capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", str(features_csv), "--model", "nn",
                     "--grid", "learning-rate=0.01,1e300",
                     "--grid", "epochs=1", "--runs", "1",
                     "--out-csv", str(csv_path)]) == 0
        rows = read_csv(csv_path)
        assert len(rows) == 3
        assert rows[1][4] == "" and "non-finite loss" in rows[2][4]
        assert "best: learning_rate=0.01" in capsys.readouterr().out


class TestCrossScenario:
    def test_train_and_test_files(self, features_csv, tmp_path, capsys):
        assert main(["crossscen", "--train", str(features_csv),
                     "--test", str(features_csv),
                     "--hp", "n-trees=10"]) == 0
        out = capsys.readouterr().out
        assert "train on demo, test on demo" in out


class TestSelect:
    def test_filter_with_corr_csv(self, features_csv, tmp_path, capsys):
        corr_path = tmp_path / "corr.csv"
        assert main(["select", str(features_csv), "--method", "filter",
                     "--corr-csv", str(corr_path)]) == 0
        out = capsys.readouterr().out
        assert "selected: " in out
        rows = read_csv(corr_path)
        assert rows[0] == ["row", "col", "value"]
        assert len(rows) == 1 + 22 * 22

    @pytest.mark.parametrize("flag", ["--threshold", "--redundancy"])
    def test_filter_refuses_nan_threshold(self, features_csv, capsys, flag):
        assert main(["select", str(features_csv), "--method", "filter",
                     flag, "nan"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "NaN" in err[0]

    @pytest.mark.parametrize("method", ["pca", "importance", "backward"])
    def test_corr_csv_needs_filter(self, features_csv, tmp_path, capsys,
                                   method):
        corr_path = tmp_path / "corr.csv"
        assert main(["select", str(features_csv), "--method", method,
                     "--corr-csv", str(corr_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --corr-csv needs --method filter"]
        assert not corr_path.exists()

    def test_backward(self, tiny_features_csv, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        assert main(["select", str(tiny_features_csv),
                     "--method", "backward", "--model", "gboost",
                     "--hp", "n-trees=2",
                     "--out-csv", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "final subset: " in out
        assert "signal" in out.split("final subset: ")[1]
        rows = read_csv(trace_path)
        assert rows[0] == ["step", "removed_feature", "f1", "n_features",
                           "feature_subset"]

    def test_importance_requires_rf(self, features_csv, capsys):
        assert main(["select", str(features_csv), "--method", "importance",
                     "--model", "gboost"]) == 1
        assert "requires --model rf" in capsys.readouterr().err

    @pytest.mark.parametrize("method,flags,message", [
        ("importance", ["--model", "gboost"], "requires --model rf"),
        ("importance", ["--hp", "trees=3"], "trees"),
        ("backward", ["--hp", "n_trees"], "not key=value")])
    def test_model_settings_are_checked_before_the_file(
            self, tmp_path, capsys, method, flags, message):
        assert main(["select", str(tmp_path / "missing.csv"),
                     "--method", method, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "missing.csv" not in captured.err

    @pytest.mark.parametrize("method", ["filter", "pca"])
    def test_filter_and_pca_echo_no_hyperparameters(self, features_csv,
                                                    capsys, method):
        assert main(["select", str(features_csv), "--method", method]) == 0
        assert not any(line.startswith("resolved_hyperparams")
                       for line in config_lines(capsys.readouterr().out))

    def test_importance(self, features_csv, tmp_path, capsys):
        csv_path = tmp_path / "imp.csv"
        assert main(["select", str(features_csv), "--method", "importance",
                     "--hp", "n-trees=10", "--out-csv", str(csv_path)]) == 0
        assert "Importance" in capsys.readouterr().out
        rows = read_csv(csv_path)
        assert len(rows) == 23

    def test_pca(self, features_csv, capsys):
        assert main(["select", str(features_csv), "--method", "pca",
                     "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "PC1" in out and "PC3" in out


class TestSynth:
    def test_generate_from_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n_background_flows": 500, "n_background_sources": 10,
            "n_botnet_sources": 1, "botnet_flow_rate": 2.0,
            "duration": 600.0, "seed": 3}))
        out_path = tmp_path / "synth.csv"
        assert main(["synth", "--config", str(cfg_path),
                     "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "generated " in out and "botnet" in out
        assert main(["summarize", str(out_path)]) == 0

    def test_negative_seed_is_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -1}))
        out_path = tmp_path / "synth.csv"
        assert main(["synth", "--config", str(cfg_path),
                     "-o", str(out_path)]) == 1
        assert_seed_refused(capsys.readouterr(), -1)
        assert not out_path.exists()

    def test_bad_config_key_is_runtime_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"bots": 2}))
        assert main(["synth", "--config", str(cfg_path),
                     "-o", str(tmp_path / "x.csv")]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null", "3",
                                      '{"seed": '])
    def test_config_that_is_no_json_object_is_refused(self, tmp_path,
                                                      capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text, encoding="utf-8")
        out_path = tmp_path / "synth.csv"
        assert main(["synth", "--config", str(cfg_path),
                     "-o", str(out_path)]) == 1
        assert_one_error_naming(capsys.readouterr(), f"{cfg_path}: not a")
        assert not out_path.exists()

    @pytest.mark.parametrize("name", fields_taking(SynthConfig, int))
    @pytest.mark.parametrize("value", [2.5, True])
    def test_int_config_value_refuses_non_integers(self, tmp_path, capsys,
                                                   name, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({name: value}))
        out_path = tmp_path / "synth.csv"
        assert main(["synth", "--config", str(cfg_path),
                     "-o", str(out_path)]) == 1
        assert_one_error_naming(capsys.readouterr(), name)
        assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["train", "FEATURES", "-o", "OUT"],
    ["eval", "FEATURES", "--model-file", "MODEL", "--out-csv", "OUT"],
    ["crossscen", "--train", "FEATURES", "--test", "FEATURES",
     "--out-csv", "OUT"],
    ["bootstrap-eval", "FEATURES", "--factor", "2", "--out-csv", "OUT"],
    ["sweep", "FEATURES", "--grid", "n-trees=2", "--out-csv", "OUT"],
    ["select", "FEATURES", "--method", "backward", "--out-csv", "OUT"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_refused(tiny_features_csv, tmp_path, capsys, argv):
    paths = {"FEATURES": tiny_features_csv, "MODEL": tmp_path / "lr.json",
             "OUT": tmp_path / "out"}
    assert main(["train", str(tiny_features_csv), "--model", "logreg",
                 "-o", str(paths["MODEL"])]) == 0
    capsys.readouterr()
    assert main([str(paths.get(arg, arg)) for arg in argv]
                + ["--seed", "-3"]) == 1
    assert_seed_refused(capsys.readouterr(), -3)
    assert not paths["OUT"].exists()


# Every subcommand's options, pinned: (option strings, dest, action, type,
# default, choices, metavar, required, help); a positional has no option
# strings. Their order in --help is free.
FEATURES = ((), "features", "store", None, None, None, None, True, None)
FLOWS = ((), "flows", "store", None, None, None, None, True, None)
OUT = (("-o", "--out"), "out", "store", None, None, None, None, True, None)
OUT_CSV = (("--out-csv",), "out_csv", "store", None, None, None, None,
           False, None)
SEED = (("--seed",), "seed", "store", "int", 42, None, None, False, None)
THREADS = (("--threads",), "threads", "store", "int", 1, None, None, False,
           "has no effect: botsift runs on one thread")
FITTING = [
    (("--model",), "model", "store", None, "rf",
     ("logreg", "svm", "rf", "gboost", "nn"), None, False, None),
    (("--hp",), "hp", "append", None, None, None, "KEY=VALUE", False,
     "hyperparameter override, repeatable"),
    SEED, THREADS]
TRAIN_FRAC = (("--train-frac",), "train_frac", "store", "float", 2.0 / 3.0,
              None, None, False, None)


def runs(default):
    return (("--runs",), "runs", "store", "int", default, None, None, False,
            None)


OPTIONS = {
    "summarize": ("ingest a capture and print per-column statistics",
                  [FLOWS]),
    "extract": ("aggregate flows into per-source window features", [
        FLOWS, OUT,
        (("--width",), "width", "store", "float", 120.0, None, None, False,
         None),
        (("--stride",), "stride", "store", "float", 60.0, None, None, False,
         None),
        (("--scenario",), "scenario", "store", None, None, None, None,
         False, "capture name stored in the feature file")]),
    "train": ("train one model on a feature file",
              [FEATURES, *FITTING, OUT]),
    "eval": ("repeated split/train/test runs from a saved model's settings", [
        FEATURES, runs(1), TRAIN_FRAC, SEED, THREADS, OUT_CSV,
        (("--model-file",), "model_file", "store", None, None, None, None,
         True, None)]),
    "sweep": ("grid search with repeated evaluation per point", [
        FEATURES, *FITTING, runs(3), TRAIN_FRAC, OUT_CSV,
        (("--grid",), "grid", "append", None, None, None, "KEY=V1,V2,...",
         True, None)]),
    "crossscen": ("train on one capture, test on another", [
        *FITTING, OUT_CSV,
        (("--train",), "train", "store", None, None, None, None, True, None),
        (("--test",), "test", "store", None, None, None, None, True, None)]),
    "bootstrap-eval": (
        "repeated evaluation with bootstrap-enlarged training data", [
            FEATURES, *FITTING, runs(10), TRAIN_FRAC, OUT_CSV,
            (("--factor",), "factor", "store", "int", None, None, None, True,
             None)]),
    "select": ("feature-selection studies", [
        FEATURES, *FITTING, OUT_CSV,
        (("--method",), "method", "store", None, None,
         ("filter", "backward", "importance", "pca"), None, True, None),
        (("--threshold",), "threshold", "store", "float", 0.1, None, None,
         False, None),
        (("--redundancy",), "redundancy", "store", "float", 0.95, None, None,
         False, None),
        (("--k",), "k", "store", "int", 2, None, None, False,
         "component count for --method pca"),
        (("--corr-csv",), "corr_csv", "store", None, None, None, None, False,
         "tidy correlation matrix output (filter only)")]),
    "synth": ("generate a synthetic capture", [
        THREADS, OUT,
        (("--config",), "config", "store", None, None, None, None, True,
         None)]),
}


def subcommands():
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def test_subcommands_and_their_summaries_are_pinned():
    assert {action.dest: action.help
            for action in subcommands()._choices_actions} == {
        name: summary for name, (summary, _) in OPTIONS.items()}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_options_are_pinned(command):
    def describe(action):
        kind = type(action).__name__.strip("_").replace("Action", "")
        choices = None if action.choices is None else tuple(action.choices)
        return (tuple(action.option_strings), action.dest, kind.lower(),
                getattr(action.type, "__name__", action.type),
                action.default, choices, action.metavar, action.required,
                action.help)

    parser = subcommands().choices[command]
    assert {describe(action) for action in parser._actions
            if not isinstance(action, argparse._HelpAction)} == set(
                OPTIONS[command][1])


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_each_subcommand_parses_to_its_own_defaults(command):
    # an option that several commands share must still take each
    # command's own default, as --runs does
    options = OPTIONS[command][1]
    argv = [command]
    for flags, _, _, _, _, choices, _, required, _ in options:
        if required:
            argv += [*flags[-1:], choices[0] if choices else "1"]
    values = vars(build_parser().parse_args(argv))
    assert values.pop("func").__name__ == "cmd_" + command.replace("-", "_")
    assert values.pop("command") == command
    assert set(values) == {option[1] for option in options}
    for _, dest, _, _, default, _, _, required, _ in options:
        assert required or values[dest] == default, dest
