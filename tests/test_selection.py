"""Correlation filter, backward elimination, and PCA against
independent oracles (two-pass Pearson, the pair-by-pair filter of
tests/selection_oracle.py, Jacobi rotations, exhaustive removal
scan)."""

import csv
import dataclasses
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selection_oracle
from botsift import selection
from botsift.evaluation import prf1
from botsift.models import LogRegParams, predict, train_model
from botsift.reports import filter_table
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


def test_filter_table_lists_constant_features_last(caplog):
    ds, _ = filter_fixture()
    result = filter_select(ds, threshold=0.1, redundancy_threshold=0.95)
    rows = filter_table(result, "filter").rows
    assert [(name, status) for name, _, status in rows] == [
        ("hit", "selected"), ("echo", "dropped (redundant)"),
        ("junk", "below threshold"), ("flat", "constant (excluded)")]
    assert rows[-1][1] == ""


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


@pytest.mark.parametrize("thresholds", [(math.nan, 0.95), (0.1, math.nan)])
def test_filter_refuses_nan_thresholds(thresholds):
    ds, _ = filter_fixture()
    with pytest.raises(ValueError, match="NaN"):
        filter_select(ds, *thresholds)


def test_pearson_rescales_where_the_squares_overflow():
    ds, y = filter_fixture(seed=37)
    x = ds.rows[:, 2]
    unscaled = pearson(x, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e160, 1e200, 1e300):
            assert abs(pearson(x * scale, y) - unscaled) < 1e-12
            assert abs(pearson(y, x * scale) - unscaled) < 1e-12
        assert abs(pearson(x * 1e200, x * 1e200) - 1.0) < 1e-12


def test_pearson_rescales_where_the_squares_underflow():
    # the centered squares of the first column are all below 1e-308
    assert abs(pearson([1e-170, 0.0, 0.0, 2e-170], [0.0, 1.0, 0.0, 1.0])
               - pearson([1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 0.0, 1.0])) < 1e-12
    ds, y = filter_fixture(seed=37)
    x = ds.rows[:, 2]
    unscaled = pearson(x, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-160, 1e-200, 1e-300):
            assert abs(pearson(x * scale, y) - unscaled) < 1e-12
            assert abs(pearson(y, x * scale) - unscaled) < 1e-12
            assert abs(pearson(x * scale, y * scale) - unscaled) < 1e-12
    with pytest.raises(ValueError, match="constant"):
        pearson([1e-170, 1e-170, 1e-170], [0.0, 1.0, 0.0])


def test_pearson_of_non_finite_input_is_nan():
    # the overflow rescale must not recurse on inf or NaN cells
    with np.errstate(invalid="ignore"):
        for bad in (math.inf, math.nan):
            assert math.isnan(pearson([1.0, bad, 2.0], [0.0, 1.0, 0.0]))


def test_filter_reads_a_huge_column_like_the_unscaled_one():
    ds, y = filter_fixture(seed=37)
    rows = ds.rows.copy()
    rows[:, 0] += 0.5 * rows[:, 2]  # hit now correlates with junk
    plain = filter_select(Dataset(rows, ds.labels, ds.feature_names))
    rows[:, 0] *= 1e200
    huge = filter_select(Dataset(rows, ds.labels, ds.feature_names))
    assert huge.stage1 == plain.stage1 and huge.selected == plain.selected
    for name, r in plain.label_correlations.items():
        assert abs(huge.label_correlations[name] - r) < 1e-12
    np.testing.assert_allclose(huge.correlations, plain.correlations,
                               rtol=0, atol=1e-12)


def test_filter_calls_pearson_once_per_pair(monkeypatch):
    rng = np.random.default_rng(53)
    n, d = 60, 7
    y = rng.permutation(np.repeat([0, 1], n // 2))
    base = y + 0.3 * rng.normal(size=n)
    columns = [base + 0.05 * rng.normal(size=n) for _ in range(d)]
    ds = dataset(columns, y)
    calls = []

    def counting_pearson(x, z):
        calls.append(1)
        return pearson(x, z)

    monkeypatch.setattr(selection, "pearson", counting_pearson)
    # no pruning, then pruning down to a single feature: the pruning
    # loop itself calls pearson for no pair
    for redundancy in (1.5, -1.0):
        calls.clear()
        result = filter_select(ds, 0.0, redundancy)
        assert len(result.stage1) == d
        assert len(calls) <= d * (d + 1) // 2
    assert len(result.selected) == 1 and len(result.dropped) == d - 1


def bits(value):
    """A form of a FilterResult field that is equal only where the two
    fields are equal bit for bit (float repr round-trips exactly and
    tells -0.0 from 0.0)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


@st.composite
def filter_cases(draw):
    """Small datasets whose columns are random, constant, exact copies,
    negated copies or power-of-two multiples of earlier ones, so exact
    |r| ties between pairs are common, under names out of column order;
    thresholds run past both ends of [0, 1] or equal some |r|."""
    n = draw(st.integers(3, 12))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                  .filter(lambda ls: 0 < sum(ls) < len(ls)))
    values = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    columns = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(
            ["random", "random", "constant", "copy", "negated", "scaled",
             "label"]))
        if kind == "constant":
            columns.append(np.full(n, float(draw(values))))
        elif kind == "label":
            columns.append(np.asarray(labels, dtype=float))
        elif kind in ("copy", "negated", "scaled") and columns:
            source = columns[draw(st.integers(0, len(columns) - 1))]
            factor = {"copy": 1.0, "negated": -1.0,
                      "scaled": draw(st.sampled_from([0.25, 2.0, 64.0]))}
            columns.append(factor[kind] * source)
        else:
            columns.append(np.array([float(draw(values))
                                     for _ in range(n)]))
    names = draw(st.permutations([f"f{i}" for i in range(len(columns))]))
    ds = dataset(columns, labels, names)
    # a cutoff equal to some |r| of the case tests the strict inequality
    matrix = selection_oracle.correlations(
        dataset(columns + [np.asarray(labels, dtype=float)], labels))
    seen = sorted({float(r) for r in np.abs(matrix[~np.isnan(matrix)])})
    cutoffs = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.1, 0.5, 0.95,
                                         1.0, 1.5]),
                        st.floats(-2.0, 2.0), st.sampled_from(seen))
    return ds, draw(cutoffs), draw(cutoffs)


@settings(deadline=None, max_examples=300)
@given(filter_cases())
def test_filter_matches_pair_by_pair_oracle(case):
    ds, threshold, redundancy = case
    got = filter_select(ds, threshold, redundancy)
    want = selection_oracle.filter_select(ds, threshold, redundancy)
    for f in dataclasses.fields(FilterResult):
        assert bits(getattr(got, f.name)) == bits(getattr(want, f.name)), \
            f.name


def test_correlation_matrix_values_and_nan_policy():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    ds = dataset([x, 2 * x + 1, -x, np.full(4, 5.0)], [0, 1, 0, 1])
    m = correlation_matrix(ds.rows)
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


@st.composite
def extreme_datasets(draw):
    """Datasets whose columns hold small integers at scales where the
    centered squares underflow (1e-170, 1e-300) or overflow (1e160,
    1e300), or any finite doubles; some are constant or copies of an
    earlier column at another scale."""
    n = draw(st.integers(2, 9))
    scales = st.sampled_from([1e-300, 1e-170, 1.0, 1e160, 1e300])
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["integers", "floats", "copy"]))
        if kind == "copy" and columns:
            source = columns[draw(st.integers(0, len(columns) - 1))]
            columns.append(source / np.abs(source).max() * draw(scales)
                           if source.any() else source)
        elif kind == "floats":
            columns.append(np.array(draw(st.lists(
                st.floats(-1e300, 1e300), min_size=n, max_size=n))))
        else:
            columns.append(draw(scales) * np.array(draw(st.lists(
                st.integers(-5, 5), min_size=n, max_size=n)), dtype=float))
    return dataset(columns, [i % 2 for i in range(n)])


@settings(deadline=None, max_examples=300)
@given(extreme_datasets())
def test_correlation_matrix_is_pearson_per_pair_bit_for_bit(ds):
    m = correlation_matrix(ds.rows)
    d = len(ds.feature_names)
    usable = [j for j in range(d)
              if not np.all(ds.rows[:, j] == ds.rows[0, j])]
    for a in range(d):
        for b in range(d):
            if a not in usable or b not in usable:
                assert math.isnan(m[a, b])
            elif a == b:
                assert m[a, b] == 1.0
            else:
                r = pearson(ds.rows[:, min(a, b)], ds.rows[:, max(a, b)])
                assert repr(float(m[a, b])) == repr(r)


def test_correlation_csv_format(tmp_path):
    ds = dataset([np.array([1.0, 2.0, 3.0]), np.full(3, 7.0)], [0, 1, 0],
                 ["a", "b"])
    path = tmp_path / "corr.csv"
    write_correlation_csv(correlation_matrix(ds.rows), ds.feature_names, path)
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


def test_backward_elimination_stops_when_every_removal_lowers_f1():
    # the label needs both features, so dropping either loses f1
    rng = np.random.default_rng(3)
    X = rng.normal(size=(150, 2))
    ds = Dataset(X, (X[:, 0] + X[:, 1] > 0).astype(int), ["a", "b"])
    trace = backward_elimination(ds, "logreg",
                                 LogRegParams(weight_negative=1.0), seed=5)
    assert [(s.feature_subset, s.f1) for s in trace.steps] == [
        (["a", "b"], 1.0)]


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
