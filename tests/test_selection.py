"""Correlation filter, backward elimination, and PCA against
independent oracles (two-pass Pearson, Jacobi rotations, exhaustive
removal scan)."""

import csv
import logging
import math

import numpy as np
import pytest

from botsift.evaluation import prf1
from botsift.models import LogRegParams, predict, train_model
from botsift.selection import (FilterResult, backward_elimination,
                               correlation_matrix, filter_select, pca,
                               pearson, write_correlation_csv,
                               write_trace_csv)
from botsift.windows import Dataset


def warnings_from_selection(caplog, match: str = "") -> int:
    """How many WARNING records botsift.selection logged whose message
    holds match."""
    return sum(name == "botsift.selection" and level == logging.WARNING
               and match in message
               for name, level, message in caplog.record_tuples)


def pearson_oracle(x, y):
    """Two-pass product-moment correlation in plain Python."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def jacobi_eigh(matrix, sweeps=100, tol=1e-14):
    """Cyclic Jacobi rotations for a symmetric matrix. Returns
    (eigenvalues desc, eigenvectors as columns) fully independent of
    numpy's LAPACK path."""
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


def dataset(columns, labels, names=None):
    rows = np.column_stack(columns)
    names = names or [f"f{i}" for i in range(rows.shape[1])]
    return Dataset(rows, np.asarray(labels, dtype=int), names)


def test_pearson_pinned_examples():
    x = [1.0, 2.0, 3.0, 4.0]
    assert abs(pearson(x, [2.0, 4.0, 6.0, 8.0]) - 1.0) < 1e-12
    assert abs(pearson(x, [8.0, 6.0, 4.0, 2.0]) + 1.0) < 1e-12


def test_pearson_matches_two_pass_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = rng.normal(size=40)
        y = 0.3 * x + rng.normal(size=40)
        assert abs(pearson(x, y) - pearson_oracle(x, y)) < 1e-12


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def filter_fixture(seed=29, n=200):
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.repeat([0, 1], n // 2))
    hit = y.astype(float)
    echo = hit + 0.01 * rng.normal(size=n)
    junk = rng.normal(size=n)
    flat = np.full(n, 3.0)
    return dataset([hit, echo, junk, flat], y,
                   ["hit", "echo", "junk", "flat"]), y


def test_filter_keeps_label_copy_and_prunes_redundant(caplog):
    ds, y = filter_fixture()
    # precondition for the fixture: junk really is below threshold
    assert abs(pearson_oracle(ds.rows[:, 2], y.astype(float))) < 0.1
    result = filter_select(ds, threshold=0.1, redundancy_threshold=0.95)
    assert warnings_from_selection(caplog, "flat") == 1
    assert result.constant_features == ["flat"]
    assert result.stage1 == ["hit", "echo"]
    assert result.selected == ["hit"]
    assert len(result.dropped) == 1
    drop, keep, r = result.dropped[0]
    assert (drop, keep) == ("echo", "hit")
    assert r > 0.95
    assert abs(result.label_correlations["hit"] - 1.0) < 1e-12
    assert "flat" not in result.label_correlations


def test_filter_label_correlations_match_oracle(caplog):
    ds, y = filter_fixture(seed=31)
    result = filter_select(ds)
    assert warnings_from_selection(caplog) == 1
    yf = y.astype(float)
    for name in ("hit", "echo", "junk"):
        col = ds.rows[:, ds.feature_names.index(name)]
        assert abs(result.label_correlations[name]
                   - pearson_oracle(col, yf)) < 1e-12


def test_filter_requires_both_classes():
    ds = dataset([np.arange(4.0)], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        filter_select(ds)


def test_correlation_matrix_values_and_nan_policy():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    ds = dataset([x, 2 * x + 1, -x, np.full(4, 5.0)], [0, 1, 0, 1])
    m = correlation_matrix(ds)
    assert m.shape == (4, 4)
    np.testing.assert_allclose(np.diag(m)[:3], 1.0, atol=1e-12)
    assert abs(m[0, 1] - 1.0) < 1e-12
    assert abs(m[0, 2] + 1.0) < 1e-12
    assert np.isnan(m[3, :]).all() and np.isnan(m[:, 3]).all()
    # symmetry and two-pass oracle on the finite block
    for i in range(3):
        for j in range(3):
            assert m[i, j] == m[j, i]
            expected = pearson_oracle(ds.rows[:, i], ds.rows[:, j])
            assert abs(m[i, j] - expected) < 1e-12


def test_correlation_csv_format(tmp_path):
    ds = dataset([np.array([1.0, 2.0, 3.0]), np.full(3, 7.0)], [0, 1, 0],
                 ["a", "b"])
    path = tmp_path / "corr.csv"
    write_correlation_csv(correlation_matrix(ds), ds.feature_names, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "col", "value"]
    cells = {(r[0], r[1]): r[2] for r in rows[1:]}
    assert cells[("a", "a")] == "1"
    assert cells[("a", "b")] == ""  # constant column renders empty
    assert len(rows) == 1 + 4


def elimination_fixture(seed=41, n=240):
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.repeat([0, 1], n // 2))
    signal = y.astype(float)
    noise1 = rng.normal(size=n)
    noise2 = rng.normal(size=n)
    return dataset([signal, noise1, noise2], y,
                   ["signal", "noise1", "noise2"])


def test_backward_elimination_removes_noise_first():
    ds = elimination_fixture()
    hp = LogRegParams(max_iter=300)
    trace = backward_elimination(ds, "logreg", hp, seed=5)
    assert trace.method == "backward_elimination"
    assert trace.steps[0].removed_feature is None
    assert trace.steps[0].feature_subset == ds.feature_names
    # the perfectly predictive feature survives to the end
    assert "signal" in trace.steps[-1].feature_subset
    removed = [s.removed_feature for s in trace.steps[1:]]
    assert "signal" not in removed
    assert trace.steps[-1].f1 == 1.0
    # incumbent f1 never decreases along the accepted path
    f1s = [s.f1 for s in trace.steps]
    assert all(b >= a for a, b in zip(f1s, f1s[1:]))


def test_backward_elimination_first_step_matches_exhaustive_scan():
    ds = elimination_fixture(seed=43)
    hp = LogRegParams(max_iter=300)
    seed = 9
    trace = backward_elimination(ds, "logreg", hp, seed=seed)

    # independent re-derivation of the fixed split from its contract
    perm = np.random.default_rng(seed).permutation(ds.n)
    n_train = int((2.0 / 3.0) * ds.n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])

    def subset_f1(names):
        sub = ds.select_features(names)
        artifact = train_model("logreg", sub.subset(train_idx), hp)
        _, pred = predict(artifact, sub.subset(test_idx).rows)
        return prf1(sub.subset(test_idx).labels, pred).f1

    # replay the greedy path step by step; every f1 must match exactly
    current = list(ds.feature_names)
    expected = [(current, subset_f1(current), None)]
    while len(current) > 1:
        scores = [subset_f1([nm for nm in current if nm != name])
                  for name in current]
        best = max(scores)
        if best < expected[-1][1]:
            break
        removed = current[scores.index(best)]
        current = [nm for nm in current if nm != removed]
        expected.append((current, best, removed))
    assert len(expected) > 1
    assert [(step.feature_subset, step.f1, step.removed_feature)
            for step in trace.steps] == expected


def test_feature_subset_of_a_split_trains_like_a_split_of_the_subset():
    # backward elimination splits once and selects features per fit; the
    # fits must equal those on the split of the selected features, which
    # float reductions only give when both arrays share one memory layout
    ds = elimination_fixture(seed=44)
    rows = np.sort(np.random.default_rng(2).permutation(ds.n)[:160])
    names = ["noise2", "signal"]
    hp = LogRegParams(max_iter=50)
    split_first = ds.subset(rows).select_features(names)
    select_first = ds.select_features(names).subset(rows)
    assert (train_model("logreg", split_first, hp).to_json()
            == train_model("logreg", select_first, hp).to_json())


def test_backward_elimination_single_feature_stops_immediately():
    ds = elimination_fixture().select_features(["signal"])
    trace = backward_elimination(ds, "logreg", LogRegParams(), seed=5)
    assert len(trace.steps) == 1
    assert trace.steps[0].feature_subset == ["signal"]


def test_trace_csv_format(tmp_path):
    ds = elimination_fixture()
    trace = backward_elimination(ds, "logreg", LogRegParams(max_iter=300),
                                 seed=5)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "removed_feature", "f1", "n_features",
                       "feature_subset"]
    assert rows[1][1] == ""  # initial step removed nothing
    assert int(rows[-1][3]) == len(trace.steps[-1].feature_subset)


def test_pca_rank_one_ratios(caplog):
    rng = np.random.default_rng(3)
    t = rng.normal(size=60)
    direction = np.array([0.5, -1.0, 2.0, 0.25, 1.5])
    rows = np.outer(t, direction)
    ds = Dataset(rows, np.zeros(60, dtype=int),
                 [f"f{i}" for i in range(5)])
    result = pca(ds, 2)
    assert warnings_from_selection(caplog, "rank") == 1
    assert abs(result.explained_variance_ratio[0] - 1.0) < 1e-9
    assert abs(result.explained_variance_ratio[1]) < 1e-9
    assert result.component_vectors.shape == (2, 5)
    assert result.projected.shape == (60, 2)


def test_pca_matches_jacobi_oracle():
    rng = np.random.default_rng(19)
    for trial in range(5):
        rows = rng.normal(size=(50, 5)) @ rng.normal(size=(5, 5))
        ds = Dataset(rows, np.zeros(50, dtype=int),
                     [f"f{i}" for i in range(5)])
        result = pca(ds, 5)

        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        xs = (rows - mean) / std
        cov = xs.T @ xs / rows.shape[0]
        eigenvalues, eigenvectors = jacobi_eigh(cov)

        np.testing.assert_allclose(result.eigenvalues, eigenvalues,
                                   atol=1e-6)
        for i in range(5):
            oracle_vec = eigenvectors[:, i].copy()
            pivot = int(np.argmax(np.abs(oracle_vec)))
            if oracle_vec[pivot] < 0:
                oracle_vec *= -1
            np.testing.assert_allclose(result.component_vectors[i],
                                       oracle_vec, atol=1e-6)


def test_pca_trace_and_orthonormality():
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(300, 6))
    ds = Dataset(rows, np.zeros(300, dtype=int),
                 [f"f{i}" for i in range(6)])
    result = pca(ds, 6)
    # standardized columns each carry unit variance: eigenvalue sum = d
    assert abs(result.eigenvalues.sum() - 6.0) < 1e-9
    assert abs(result.explained_variance_ratio.sum() - 1.0) < 1e-9
    gram = result.component_vectors @ result.component_vectors.T
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-9)


def test_pca_near_identity_covariance_splits_evenly():
    rng = np.random.default_rng(27)
    rows = rng.normal(size=(4000, 5))
    ds = Dataset(rows, np.zeros(4000, dtype=int),
                 [f"f{i}" for i in range(5)])
    result = pca(ds, 5)
    np.testing.assert_allclose(result.explained_variance_ratio,
                               np.full(5, 0.2), atol=0.05)


def test_pca_errors():
    rows = np.arange(10.0).reshape(5, 2)
    ds = Dataset(rows, np.zeros(5, dtype=int), ["a", "b"])
    with pytest.raises(ValueError):
        pca(ds, 0)
    with pytest.raises(ValueError):
        pca(ds, 3)
    tiny = Dataset(rows[:1], np.zeros(1, dtype=int), ["a", "b"])
    with pytest.raises(ValueError):
        pca(tiny, 1)
