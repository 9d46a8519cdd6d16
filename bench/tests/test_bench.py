"""Tests of the benchmark itself: the generator's ground truth, the output
checks (each must reject a corrupted output), and BENCHMARK.json against
what the command prints.

    python3 -m pytest bench/tests -q
"""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
from datetime import datetime

import numpy as np
import pytest

import checks
import gen
import run
import spans
from conftest import BENCH, ROOT

from botsift.cli import main as botsift
from botsift.evaluation import Metrics


def quiet(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert botsift(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def ingest(tmp_path_factory):
    """The seed-3 ingest capture, its summary and its feature file."""
    tmp = tmp_path_factory.mktemp("ingest")
    cap = gen.ingest_capture(3)
    flows = str(tmp / "capture.binetflow")
    gen.write_csv(cap, flows)
    summary = quiet(["summarize", flows])
    features = str(tmp / "capture.features.csv")
    quiet(["extract", flows, "-o", features])
    return cap, flows, summary, checks.FeatureFile(features)


# ------------------------------------------------------ generator truth

def test_injected_rejections_are_counted_under_their_reason(ingest):
    cap, _, summary, _ = ingest
    got = checks.parse_summary(summary)
    assert got["reasons"] == {r: 15 for r in gen.REASONS}
    assert got["accepted"] == cap.n_valid == 30_000
    assert got["accepted"] + got["rejected"] == cap.n_rows


def test_window_pairs_match_a_direct_count_from_the_csv(ingest):
    """Distinct (window, source) pairs recounted from the written
    timestamps with datetime arithmetic and the interval definition."""
    cap, flows, _, _ = ingest
    bad = set(cap.bad_reasons)
    rows = []
    with open(flows) as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if len(cells) < 15 or not cells[3] or cells[14] == "Background":
                continue
            try:
                stamp = datetime.strptime(cells[0], "%Y/%m/%d %H:%M:%S.%f")
                dur, pkts = float(cells[1]), int(cells[11])
                tot, srcb = int(cells[12]), int(cells[13])
                int(cells[9])
            except ValueError:
                continue
            if dur >= 0 and pkts >= 1 and srcb <= tot:
                rows.append((stamp, cells[3]))
    assert len(rows) == cap.n_valid and bad
    origin = min(stamp for stamp, _ in rows)
    pairs = set()
    for stamp, src in rows:
        t = (stamp - origin).total_seconds()
        for k in range(max(0, math.floor(t / 60) - 2), math.floor(t / 60) + 1):
            if k * 60 <= t < k * 60 + 120:
                pairs.add((k, src))
    assert sorted(pairs) == checks.expected_keys(cap.cols)


def test_captures_depend_on_the_seed_only():
    a, b = gen.hard_capture(4), gen.hard_capture(4)
    assert all(np.array_equal(a.cols[c], b.cols[c]) for c in gen.COLUMNS)
    other = gen.hard_capture(5)
    assert not np.array_equal(a.cols["t_us"], other.cols["t_us"])


def test_group_sizes_span_one_to_thousands(ingest):
    counts = ingest[3].rows[:, 0]
    assert counts.min() == 1 and counts.max() >= 1000


# ------------------------------------------------ checks reject damage

def test_ingest_checks_pass_on_real_output(ingest):
    cap, _, summary, ff = ingest
    assert checks.check_summary(summary, cap) == []
    assert checks.check_features(ff, cap, np.arange(0, ff.n, 97)) == []
    assert checks.label_f1(ff, cap) == 1.0


def test_changed_rejection_tally_fails(ingest):
    cap, _, summary, _ = ingest
    damaged = summary.replace("  bad_label: 15", "  bad_label: 14")
    assert damaged != summary
    assert checks.check_summary(damaged, cap)


def test_dropped_feature_row_fails(ingest):
    cap, _, _, ff = ingest
    bad = copy.deepcopy(ff)
    del bad.keys[7]
    bad.labels = np.delete(bad.labels, 7)
    bad.rows = np.delete(bad.rows, 7, axis=0)
    assert checks.check_features(bad, cap, np.array([0]))


def test_flipped_label_fails(ingest):
    cap, _, _, ff = ingest
    bad = copy.deepcopy(ff)
    bad.labels[3] = 1 - bad.labels[3]
    assert checks.check_features(bad, cap, np.array([0]))
    assert checks.label_f1(bad, cap) < 1.0


def test_changed_feature_value_fails(ingest):
    cap, _, _, ff = ingest
    bad = copy.deepcopy(ff)
    bad.rows[5, 10] *= 1.0 + 1e-6  # TotBytes_mean
    assert checks.check_features(bad, cap, np.array([5]))


def test_inconsistent_confusion_counts_fail():
    good = Metrics(3, 1, 2, 4, 0.75, 0.6, 2 * 0.75 * 0.6 / 1.35)
    assert checks.metrics_problems(good, 10) == []
    assert checks.metrics_problems(good, 11)
    assert checks.metrics_problems(Metrics(3, 1, 2, 4, 0.75, 0.6, 0.7), 10)


@pytest.fixture(scope="module")
def scan_features(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scan")
    flows = str(tmp / "A.binetflow")
    gen.write_csv(gen.scan_capture(2, 20, 900, 3), flows)
    features = str(tmp / "A.features.csv")
    quiet(["extract", flows, "-o", features])
    return features, checks.FeatureFile(features)


def test_filter_check_rejects_a_changed_correlation(scan_features):
    path, ff = scan_features
    text = quiet(["select", path, "--method", "filter"])
    assert checks.check_filter(text, ff) == []
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if "selected" in line
             and line.split()[0] in ff.names)
    name, r = lines[i].split()[:2]
    lines[i] = lines[i].replace(r, f"{float(r) - 0.01:+.4f}")
    assert checks.check_filter("\n".join(lines), ff)


def test_pca_check_rejects_a_changed_ratio(scan_features):
    path, ff = scan_features
    text = quiet(["select", path, "--method", "pca"])
    assert checks.check_pca(text, ff) == []
    ratio = text.split("PC1")[1].split()[0]
    damaged = text.replace(ratio, f"{float(ratio) + 1e-5:.6f}", 1)
    assert checks.check_pca(damaged, ff)


# ------------------------------------------- BENCHMARK.json vs output

def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
            ] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
            ] == spans.PER_LAYER
    empty = spans.layer_metrics(spans.Tracer(), [], [], {})
    assert sorted(empty) == sorted(name for name, _, _ in spans.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_listed_metrics(trace):
    spec = benchmark_json()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "model-zoo", "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}


def test_command_fails_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
