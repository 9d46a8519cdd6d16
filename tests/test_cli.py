"""End-to-end tests for the command-line interface."""

import csv
import json
import subprocess

import numpy as np
import pytest

from botsift.cli import coerce_value, main, parse_hp
from botsift.flows import write_flow_csv
from botsift.models import load_artifact
from botsift.synth import SynthConfig, generate_scenario
from botsift.windows import Dataset, load_features, write_features


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
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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

    def test_bad_config_key_is_runtime_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"bots": 2}))
        assert main(["synth", "--config", str(cfg_path),
                     "-o", str(tmp_path / "x.csv")]) == 1
        assert "unknown config keys" in capsys.readouterr().err
