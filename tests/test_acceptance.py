"""Acceptance suite: one test per release criterion, each with its own
oracle and wall-clock budget. Every test prints a single PASS line with
the measured numbers; `pytest -v` therefore shows one verdict per
criterion.

Criterion 10 (and the capture-based variance split in criterion 11)
needs a real scenario-1 binetflow capture; point CTU13_SCENARIO1 at one
to enable those checks, otherwise they are skipped.
"""

import functools
import json
import math
import os
import time

import numpy as np
import pytest

from botsift.cli import main
from botsift.evaluation import evaluate_once, prf1, repeated_eval
from botsift.flows import load_scenario
from botsift.models import ForestParams, train_model, trees
from botsift.models.forest import grow_tree
from botsift.models.nn import (bce_from_logits, forward_backward,
                               forward_logits, init_network,
                               parameter_counts)
from botsift.selection import pca
from botsift.synth import SynthConfig, generate_scenario
from botsift.windows import (Dataset, WindowConfig, build_dataset,
                             normalized_entropy, window_spans)

CTU_ENV = "CTU13_SCENARIO1"
THREADS = min(4, os.cpu_count() or 1)


def verdict(criterion: int, name: str, started: float, budget: float,
            detail: str = "") -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, (f"criterion {criterion} took {elapsed:.1f}s, "
                              f"budget {budget:.0f}s")
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {criterion:02d} {name}: PASS "
          f"({elapsed:.1f}s < {budget:.0f}s){suffix}")


@functools.lru_cache(maxsize=1)
def ctu_dataset():
    path = os.environ.get(CTU_ENV)
    if not path:
        pytest.skip(f"set {CTU_ENV} to a scenario-1 binetflow path "
                    "to run this check")
    table = load_scenario(path)
    return build_dataset(table, WindowConfig())


def test_criterion_01_nn_parameter_count():
    t0 = time.monotonic()
    counts = parameter_counts(22, (256, 128))
    assert counts == (39_681, 768)

    net = init_network(22, (256, 128), seed=0)
    trainable = sum(block[key].size for block in net["blocks"]
                    for key in ("W", "b", "gamma", "beta"))
    trainable += net["out_W"].size + net["out_b"].size
    non_trainable = sum(a.size for a in net["running_mean"])
    non_trainable += sum(a.size for a in net["running_var"])
    assert (trainable, non_trainable) == (39_681, 768)
    verdict(1, "nn parameter count", t0, 1.0, "39681 trainable, 768 fixed")


def test_criterion_02_metric_oracle():
    t0 = time.monotonic()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        y_true = rng.integers(0, 2, 1000)
        y_pred = rng.integers(0, 2, 1000)
        tp = fp = fn = tn = 0
        for t, p in zip(y_true.tolist(), y_pred.tolist()):
            if t == 1 and p == 1:
                tp += 1
            elif t == 0 and p == 1:
                fp += 1
            elif t == 1 and p == 0:
                fn += 1
            else:
                tn += 1
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (2.0 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        m = prf1(y_true, y_pred)
        assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
        assert (m.precision, m.recall, m.f1) == (precision, recall, f1)

    # P=1, R=0.95: 20 positives, 19 found, no false alarms
    y_true = np.array([1] * 20 + [0] * 80)
    y_pred = np.array([1] * 19 + [0] * 81)
    m = prf1(y_true, y_pred)
    assert m.precision == 1.0 and m.recall == 0.95
    assert abs(m.f1 - 38.0 / 39.0) < 1e-15
    assert abs(m.f1 - 0.975) < 1e-3
    verdict(2, "metric oracle", t0, 5.0, f"f1(1,.95)={m.f1:.6f}")


def test_criterion_03_entropy_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    for i in range(10_000):
        if i % 17 == 0:
            counts = np.array([int(rng.integers(1, 100))])
        elif i % 10 == 0:
            m = int(rng.integers(2, 30))
            counts = np.full(m, int(rng.integers(1, 100)))
        else:
            m = int(rng.integers(1, 30))
            counts = rng.integers(1, 100, m)
        ru = normalized_entropy(counts)
        m = len(counts)
        assert 0.0 <= ru <= 1.0
        assert (ru == 0.0) == (m == 1)
        uniform = m > 1 and len(set(counts.tolist())) == 1
        assert (abs(ru - 1.0) <= 1e-12) == uniform

        if m == 1:
            direct = 0.0
        else:
            p = counts / counts.sum()
            direct = float(-(p * np.log(p)).sum() / math.log(m))
        assert abs(ru - direct) <= 1e-12
    verdict(3, "entropy properties", t0, 5.0, "10000 multisets")


def test_criterion_04_window_membership():
    t0 = time.monotonic()
    cfg = WindowConfig()
    rng = np.random.default_rng(4)
    offsets = rng.uniform(0.0, 36_000.0, 10_000)
    flows, windows = window_spans(offsets, cfg)
    per_flow = [[] for _ in offsets]
    for i, k in zip(flows.tolist(), windows.tolist()):
        per_flow[i].append(k)
    for t, spans in zip(offsets.tolist(), per_flow):
        spans = sorted(spans)
        ks = np.arange(0, int(t // cfg.stride) + 2)
        inside = (ks * cfg.stride <= t) & (t < ks * cfg.stride + cfg.width)
        assert spans == ks[inside].tolist()
        assert 1 <= len(spans) <= 2
    verdict(4, "window membership", t0, 5.0, "10000 flows, width 120/60")


def gini_oracle(x, y):
    """Exhaustive scan over midpoints of consecutive distinct values."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = len(x)

    def impurity(labels):
        if len(labels) == 0:
            return 0.0
        p = labels.mean()
        return 1.0 - p * p - (1.0 - p) * (1.0 - p)

    parent = impurity(ys)
    best = None
    for i in range(n - 1):
        if xs[i] == xs[i + 1]:
            continue
        threshold = (xs[i] + xs[i + 1]) / 2.0
        left, right = ys[:i + 1], ys[i + 1:]
        weighted = (len(left) * impurity(left)
                    + len(right) * impurity(right)) / n
        decrease = parent - weighted
        if best is None or decrease > best[0]:
            best = (decrease, threshold)
    return best


def test_criterion_05_tree_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(5, 60))
        x = np.round(rng.normal(0, 2, n), 1)
        y = rng.integers(0, 2, n)
        order = trees.presort(x[:, None])[0]
        found = trees.best_split(x[order][None], y[order][None],
                                 np.ones((1, n), dtype=np.int64),
                                 trees.gini_decrease)
        expected = gini_oracle(x, y)
        if expected is None or expected[0] <= 0.0:
            continue
        assert found is not None
        assert found[1] == expected[1]
        assert abs(found[0] - expected[0]) < 1e-12
        checked += 1

        importances = np.zeros(1)
        stump = grow_tree(x[:, None], y, np.random.default_rng(0), 1, 1,
                          importances)
        assert stump["threshold"][0] == expected[1]
    assert checked >= 100

    # consistent data (all-distinct rows) must be fit exactly
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(80, 3))
        y = rng.integers(0, 2, 80)
        y[0], y[1] = 1, 0
        tree = grow_tree(X, y, np.random.default_rng(seed), None, 3,
                         np.zeros(3))
        assert prf1(y, trees.predict(tree, X)).f1 == 1.0

    ds = Dataset(rng.normal(size=(200, 4)), rng.integers(0, 2, 200),
                 ["a", "b", "c", "d"])
    artifact = train_model("rf", ds, ForestParams(n_trees=100, seed=7))
    from botsift.models import predict
    _, labels = predict(artifact, ds.rows)
    assert prf1(ds.labels, labels).f1 == 1.0
    verdict(5, "tree split oracle", t0, 30.0,
            f"{checked} stump checks, 20 exact fits")


def test_criterion_06_nn_gradients():
    t0 = time.monotonic()
    eps = 1e-5
    h = 1e-6

    def training_loss(net, X, y):
        logits, _, _ = forward_logits(net, X, eps, True)
        return bce_from_logits(logits, y)

    def arrays(net, grads):
        for li, block in enumerate(net["blocks"]):
            for key in ("W", "b", "gamma", "beta"):
                yield block[key], grads["blocks"][li][key]
        yield net["out_W"], grads["out_W"]
        yield net["out_b"], grads["out_b"]

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(8, 4))
        y = rng.integers(0, 2, size=8).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        net = init_network(4, (3,), seed)
        net["out_W"] = rng.normal(0.0, 0.5, net["out_W"].shape)
        net["out_b"] = rng.normal(0.0, 0.5, net["out_b"].shape)
        for block in net["blocks"]:
            block["beta"] = rng.normal(0.0, 0.3, block["beta"].shape)
            block["gamma"] = 1 + 0.2 * rng.normal(size=block["gamma"].shape)

        _, grads, _ = forward_backward(net, X, y, eps)
        for theta, grad in arrays(net, grads):
            it = np.nditer(theta, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = theta[idx]
                theta[idx] = orig + h
                loss_plus = training_loss(net, X, y)
                theta[idx] = orig - h
                loss_minus = training_loss(net, X, y)
                theta[idx] = orig
                fd = (loss_plus - loss_minus) / (2 * h)
                analytic = grad[idx]
                if abs(analytic) < 1e-10 and abs(fd) < 1e-10:
                    continue  # dead ReLU path: both identically zero
                rel = abs(analytic - fd) / max(1e-8, abs(analytic),
                                               abs(fd))
                worst = max(worst, rel)
    assert worst < 1e-4
    verdict(6, "nn gradient check", t0, 10.0, f"max rel err {worst:.2e}")


def test_criterion_07_synthetic_end_to_end():
    t0 = time.monotonic()
    cfg = SynthConfig(n_background_flows=50_000, n_background_sources=150,
                      n_botnet_sources=3, botnet_flow_rate=0.2,
                      duration=7200.0, botnet_behavior="port-scan",
                      burst_size=5, noise=0.0, seed=11)
    table = generate_scenario(cfg)
    assert 49_000 <= len(table) <= 52_000
    ds = build_dataset(table, WindowConfig())
    permille = 1000.0 * float(ds.labels.mean())
    assert 0.2 <= permille <= 3.0

    rm = repeated_eval(ds, "rf", ForestParams(n_trees=100), n_runs=10,
                       seed=100)
    mean_f1 = rm.summary("test")["f1"][0]
    assert mean_f1 >= 0.95
    verdict(7, "synthetic end-to-end", t0, 120.0,
            f"{len(table)} flows, {permille:.2f} permille botnet "
            f"rows, mean f1 {mean_f1:.4f}")


def test_criterion_08_bootstrap_direction():
    t0 = time.monotonic()
    cfg = SynthConfig(n_background_flows=6000, n_background_sources=60,
                      n_botnet_sources=2, botnet_flow_rate=1.5,
                      duration=3600.0, botnet_behavior="beacon",
                      burst_size=4, noise=0.85, seed=23)
    ds = build_dataset(generate_scenario(cfg), WindowConfig())

    summaries = {}
    for factor in (1, 10, 30):
        rm = repeated_eval(ds, "rf", ForestParams(n_trees=100), n_runs=10,
                           seed=300, bootstrap_factor=factor)
        summaries[factor] = rm.summary("test")
    base_r = summaries[1]["recall"][0]
    x10_r = summaries[10]["recall"][0]
    x30_r = summaries[30]["recall"][0]
    base_f1 = summaries[1]["f1"][0]
    x10_f1 = summaries[10]["f1"][0]

    assert 0.3 <= base_r <= 0.6
    assert x10_r - base_r >= 0.03
    assert base_f1 - x10_f1 <= 0.02
    assert x30_r - x10_r < 0.05
    verdict(8, "bootstrap direction", t0, 300.0,
            f"recall {base_r:.3f} -> x10 {x10_r:.3f} -> x30 {x30_r:.3f}")


def test_criterion_09_determinism(tmp_path):
    t0 = time.monotonic()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n_background_flows": 1500, "n_background_sources": 15,
        "n_botnet_sources": 2, "botnet_flow_rate": 3.0,
        "duration": 1200.0, "seed": 5}))

    sides = {}
    for side, threads in (("a", "1"), ("b", str(max(2, THREADS * 2)))):
        d = tmp_path / side
        d.mkdir()
        flows = d / "flows.csv"
        features = d / "features.csv"
        model = d / "model.json"
        report = d / "report.csv"
        assert main(["synth", "--config", str(cfg_path), "--threads",
                     threads, "-o", str(flows)]) == 0
        assert main(["extract", str(flows), "--scenario", "det",
                     "-o", str(features)]) == 0
        assert main(["train", str(features), "--model", "rf",
                     "--threads", threads, "-o", str(model)]) == 0
        assert main(["eval", str(features), "--model-file", str(model),
                     "--runs", "3", "--threads", threads,
                     "--out-csv", str(report)]) == 0
        sides[side] = [p.read_bytes() for p in (flows, features, model,
                                                report)]
    assert sides["a"] == sides["b"]
    verdict(9, "determinism across thread counts", t0, 60.0,
            "flows, features, artifact, report byte-identical")


def test_criterion_10_capture_reproduction():
    ds = ctu_dataset()
    t0 = time.monotonic()
    _, test_m, _ = evaluate_once(ds, "rf", ForestParams(n_trees=100,
                                                        seed=42),
                                 split_seed=42, train_frac=2.0 / 3.0)
    assert test_m.precision >= 0.97
    assert test_m.recall >= 0.90
    assert test_m.f1 >= 0.94
    verdict(10, "capture reproduction", t0, 900.0,
            f"P={test_m.precision:.3f} R={test_m.recall:.3f} "
            f"f1={test_m.f1:.3f}")


def jacobi_eigh(matrix, sweeps=100, tol=1e-14):
    """Cyclic Jacobi rotations for a symmetric matrix; fully independent
    of numpy's LAPACK path."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    vec = np.eye(n)
    for _ in range(sweeps):
        off = math.sqrt(sum(a[i, j] ** 2 for i in range(n)
                            for j in range(n) if i != j))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2 * a[p, q])
                t = (math.copysign(1.0, theta)
                     / (abs(theta) + math.sqrt(theta * theta + 1)))
                c = 1 / math.sqrt(t * t + 1)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                vec = vec @ rot
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], vec[:, order]


def test_criterion_11_pca_sanity():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)

    u = rng.normal(size=50)
    rank_one = Dataset(np.outer(u, [2.0, -1.0]), np.zeros(50, dtype=int),
                       ["a", "b"])
    result = pca(rank_one, 2)
    assert abs(result.explained_variance_ratio[0] - 1.0) <= 1e-9
    assert abs(result.explained_variance_ratio[1]) <= 1e-9

    for seed in range(5):
        rng = np.random.default_rng(20 + seed)
        X = rng.normal(size=(50, 5))
        ds = Dataset(X, rng.integers(0, 2, 50), list("abcde"))
        result = pca(ds, 5)

        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        values, vectors = jacobi_eigh(Xs.T @ Xs / 50)
        assert np.allclose(result.eigenvalues, values, atol=1e-9)
        for i in range(5):
            got = result.component_vectors[i]
            want = vectors[:, i]
            assert (np.abs(got - want).max() <= 1e-6
                    or np.abs(got + want).max() <= 1e-6)
    verdict(11, "pca sanity", t0, 30.0,
            "rank-1 ratios exact, 5 eigensolver matches")


def test_criterion_11_capture_variance_split():
    ds = ctu_dataset()
    t0 = time.monotonic()
    result = pca(ds, 2)
    first, second = result.explained_variance_ratio
    assert 0.53 <= first <= 0.63
    assert 0.30 <= second <= 0.40
    verdict(11, "capture variance split", t0, 120.0,
            f"PC1 {100 * first:.1f}%, PC2 {100 * second:.1f}%")
