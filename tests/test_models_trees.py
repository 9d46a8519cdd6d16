"""Random forest and gradient boosting against brute-force split
oracles, a closed-form stump, and structural invariants."""

import contextlib
import functools
import gc
import json
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botsift.models import ForestParams, predict, train_model, trees
from botsift.models.base import ModelArtifact, load_artifact
from botsift.models.boosting import BoostingParams
from botsift.models.forest import distinct_pairs, grow_tree
from botsift.windows import Dataset

SIGMOID_2 = 0.8807970779778823    # 1 / (1 + e^-2)
SIGMOID_M2 = 0.11920292202211755  # 1 / (1 + e^+2)


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


def sse_oracle(x, t):
    order = np.argsort(x, kind="stable")
    xs, ts = x[order], t[order]
    n = len(x)

    def sse(vals):
        return float(np.sum((vals - vals.mean()) ** 2)) if len(vals) else 0.0

    parent = sse(ts)
    best = None
    for i in range(n - 1):
        if xs[i] == xs[i + 1]:
            continue
        threshold = (xs[i] + xs[i + 1]) / 2.0
        decrease = parent - sse(ts[:i + 1]) - sse(ts[i + 1:])
        if best is None or decrease > best[0]:
            best = (decrease, threshold)
    return best


def scan(x, t, decrease, weights=None):
    """(decrease, threshold) of `trees.best_split` on one feature's
    values, presorted and weighted (default 1) as the grower hands it a
    node; None when no split exists."""
    order = trees.presort(x[:, None])[0]
    if weights is None:
        weights = np.ones(x.shape[0], dtype=np.int64)
    found = trees.best_split(x[order][None], t[order][None],
                             weights[order][None], decrease)
    return None if found is None else found[:2]


class TestGiniSplits:
    def test_split_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            x = np.round(rng.normal(size=n), 1)  # force duplicate values
            y = rng.integers(0, 2, size=n)
            found = scan(x, y, trees.gini_decrease)
            expected = gini_oracle(x, y)
            if expected is None:
                assert found is None
                continue
            decrease, threshold = found
            assert abs(decrease - expected[0]) < 1e-12
            assert threshold == expected[1]

    def test_constant_feature_returns_none(self):
        assert scan(np.ones(5), np.array([0, 1, 0, 1, 0]),
                    trees.gini_decrease) is None

    def test_depth1_tree_threshold_matches_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            n = int(rng.integers(4, 30))
            x = rng.normal(size=n)
            y = rng.integers(0, 2, size=n)
            if len(np.unique(y)) < 2:
                continue
            tree = grow_tree(x[:, None], y, np.random.default_rng(0),
                             max_depth=1, n_candidates=1,
                             importances=np.zeros(1))
            expected = gini_oracle(x, y)
            assert tree["threshold"][0] == expected[1]


class TestForest:
    def separable(self, seed=14, n=100):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal([-1.5, 0], 0.5, (n // 2, 2)),
                       rng.normal([1.5, 0], 0.5, (n // 2, 2))])
        y = np.repeat([0, 1], n // 2)
        return Dataset(X, y, ["a", "b"])

    def test_consistent_data_training_f1_is_one(self):
        ds = self.separable()
        artifact = train_model("rf", ds, ForestParams(n_trees=100, seed=1))
        _, labels = predict(artifact, ds.rows)
        np.testing.assert_array_equal(labels, ds.labels)

    def test_scores_are_vote_multiples(self):
        ds = self.separable(seed=15)
        artifact = train_model("rf", ds, ForestParams(n_trees=4, seed=2))
        scores, _ = predict(artifact, ds.rows)
        np.testing.assert_allclose(scores * 4, np.round(scores * 4),
                                   atol=1e-12)

    def test_tied_vote_predicts_botnet(self):
        def leaf(value):
            return {"feature": [-1], "threshold": [0.0], "left": [-1],
                    "right": [-1], "value": [value]}

        artifact = ModelArtifact(
            family="rf", hyperparams={"n_trees": 2},
            feature_names=["a"], standardization=None,
            parameters={"trees": [leaf(1), leaf(0)],
                        "feature_importances": [1.0]})
        scores, labels = predict(artifact, np.zeros((3, 1)))
        np.testing.assert_array_equal(scores, 0.5)
        np.testing.assert_array_equal(labels, 1)

    def test_importances_rank_signal_above_noise(self):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            y = rng.integers(0, 2, size=120)
            X = np.column_stack([y.astype(float),
                                 rng.normal(size=(120, 3))])
            ds = Dataset(X, y, ["copy", "noise1", "noise2", "noise3"])
            artifact = train_model("rf", ds, ForestParams(n_trees=30,
                                                          seed=seed))
            imp = np.array(artifact.parameters["feature_importances"])
            assert abs(imp.sum() - 1.0) < 1e-9
            if imp[0] > imp[1:].max():
                wins += 1
        assert wins > 5

    def test_monotone_transform_leaves_tree_predictions_unchanged(self):
        # splits sit on order statistics, so any strictly increasing
        # per-feature transform reroutes no row the tree was grown on
        # (rows a tree never saw can land on either side of a midpoint,
        # which is why this holds per tree, not per bootstrapped forest)
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            X = rng.normal(size=(60, 3))
            y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
            transformed = np.column_stack([np.exp(X[:, 0]),
                                           X[:, 1] ** 3,
                                           np.arctan(X[:, 2])])
            base = grow_tree(X, y, np.random.default_rng(seed), None, 2,
                             np.zeros(3))
            lifted = grow_tree(transformed, y, np.random.default_rng(seed),
                               None, 2, np.zeros(3))
            np.testing.assert_array_equal(
                trees.predict(base, X), trees.predict(lifted, transformed))

    def test_training_leaves_no_reference_cycles(self):
        # a cycle would keep each tree's bootstrap copy of the training
        # rows alive until the cyclic collector happens to run
        ds = self.separable(seed=19)
        gc.collect()
        gc.disable()
        try:
            train_model("rf", ds, ForestParams(n_trees=5, seed=6))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_artifact_round_trip(self, tmp_path):
        ds = self.separable(seed=17)
        artifact = train_model("rf", ds, ForestParams(n_trees=5, seed=4))
        path = tmp_path / "rf.json"
        artifact.save(path)
        loaded = load_artifact(path)
        np.testing.assert_array_equal(predict(loaded, ds.rows)[0],
                                      predict(artifact, ds.rows)[0])

    def test_empty_dataset_errors(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ["a", "b"])
        with pytest.raises(ValueError):
            train_model("rf", ds, ForestParams(n_trees=1))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)
        with pytest.raises(ValueError):
            ForestParams(max_depth=0)

    def test_max_depth_caps_the_tree(self):
        ds = self.separable(seed=18)
        artifact = train_model("rf", ds, ForestParams(n_trees=3, seed=5,
                                                      max_depth=1))

        def depth(tree, node=0):
            if tree["feature"][node] < 0:
                return 0
            return 1 + max(depth(tree, tree["left"][node]),
                           depth(tree, tree["right"][node]))

        assert all(depth(t) <= 1 for t in artifact.parameters["trees"])

    @pytest.mark.parametrize("column", [
        [0.0, np.inf],
        [1.0000000000000002, 1.0000000000000004],  # midpoint rounds up
        [1e308, 1.7e308],                          # midpoint overflows
        [-np.inf, np.inf],                         # midpoint is nan
    ])
    def test_every_split_separates_its_rows(self, column):
        # a threshold that sends both rows one way leaves the child the
        # same node as its parent, so an unbounded tree never stops
        X = np.array(column)[:, None]
        y = np.array([0, 1])
        with time_limit(5.0):
            tree = grow_tree(X, y, np.random.default_rng(0), None, 1,
                             np.zeros(1))
        assert tree["feature"] == [0, -1, -1]
        assert tree["threshold"][0] == column[0]
        np.testing.assert_array_equal(trees.predict(tree, X), y)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def step_data(n=40):
    rng = np.random.default_rng(55)
    x = np.concatenate([rng.uniform(-2, -0.5, n // 2),
                        rng.uniform(0.5, 2, n // 2)])
    y = (x > 0).astype(int)
    return Dataset(x[:, None], y, ["x"]), x


class TestBoosting:
    def test_sse_split_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(66)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = np.round(rng.normal(size=n), 1)
            t = rng.normal(size=n)
            found = scan(x, t, trees.sse_decrease)
            expected = sse_oracle(x, t)
            if expected is None:
                assert found is None
                continue
            assert abs(found[0] - expected[0]) < 1e-9
            assert found[1] == expected[1]

    @pytest.mark.parametrize("loss", ["deviance", "exponential"])
    def test_one_stage_stump_matches_closed_form(self, loss):
        # balanced step data, one depth-1 stage at learning rate 1:
        # both losses reduce to a single Newton leaf of +-1 on the
        # half-spaces (x2 for the deviance scale), so scores = sigma(+-2)
        ds, x = step_data()
        artifact = train_model("gboost", ds, BoostingParams(
            loss=loss, n_trees=1, max_depth=1, learning_rate=1.0))
        scores, labels = predict(artifact, ds.rows)
        expected = np.where(x > 0, SIGMOID_2, SIGMOID_M2)
        np.testing.assert_allclose(scores, expected, atol=1e-12)
        np.testing.assert_array_equal(labels, ds.labels)

    @pytest.mark.parametrize("loss", ["deviance", "exponential"])
    def test_stage_losses_non_increasing(self, loss):
        rng = np.random.default_rng(77)
        X = rng.normal(size=(150, 4))
        logit = X[:, 0] - 0.5 * X[:, 1] + 0.3 * rng.normal(size=150)
        y = (logit > 0).astype(int)
        ds = Dataset(X, y, ["a", "b", "c", "d"])
        artifact = train_model("gboost", ds, BoostingParams(
            loss=loss, n_trees=30, max_depth=2))
        losses = artifact.metadata["stage_losses"]
        assert len(losses) == 31
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("loss", ["deviance", "exponential"])
    def test_xor_reaches_perfect_training_fit(self, loss):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        ds = Dataset(X, y, ["a", "b"])
        artifact = train_model("gboost", ds, BoostingParams(
            loss=loss, n_trees=50, max_depth=2))
        _, labels = predict(artifact, X)
        # exhaustive truth table
        np.testing.assert_array_equal(labels, y)

    def test_regression_tree_fits_targets_at_depth(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        targets = np.array([5.0, 5.0, -1.0, -1.0])
        tree = trees.grow(
            X, targets, trees.sse_decrease, max_depth=2,
            features=lambda: range(1),
            leaf_value=lambda idx: float(targets[idx].mean()))
        np.testing.assert_allclose(trees.predict(tree, X), targets,
                                   atol=1e-12)

    def test_single_class_errors(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.zeros(4, dtype=int),
                     ["a", "b"])
        with pytest.raises(ValueError, match="both classes"):
            train_model("gboost", ds, BoostingParams())

    def test_param_validation(self):
        with pytest.raises(ValueError):
            BoostingParams(loss="hinge")
        with pytest.raises(ValueError):
            BoostingParams(n_trees=0)
        with pytest.raises(ValueError):
            BoostingParams(max_depth=0)
        with pytest.raises(ValueError):
            BoostingParams(learning_rate=0.0)

    def test_training_is_deterministic(self):
        ds, _ = step_data()
        hp = BoostingParams(n_trees=10, max_depth=2)
        assert (train_model("gboost", ds, hp).to_json()
                == train_model("gboost", ds, hp).to_json())

    def test_artifact_round_trip(self, tmp_path):
        ds, _ = step_data()
        artifact = train_model("gboost", ds, BoostingParams(n_trees=5))
        path = tmp_path / "gboost.json"
        artifact.save(path)
        loaded = load_artifact(path)
        np.testing.assert_array_equal(predict(loaded, ds.rows)[0],
                                      predict(artifact, ds.rows)[0])

    def test_monotone_transform_leaves_train_scores_unchanged(self):
        # boosting fits every stage on the full training set, so the
        # invariance extends to the whole ensemble's training scores
        rng = np.random.default_rng(88)
        X = rng.normal(size=(90, 3))
        y = (X[:, 0] - X[:, 2] > 0).astype(int)
        hp = BoostingParams(n_trees=15, max_depth=2)
        base = train_model("gboost", Dataset(X, y, ["a", "b", "c"]), hp)
        transformed = np.column_stack([np.exp(X[:, 0]), X[:, 1] ** 3,
                                       np.arctan(X[:, 2])])
        lifted = train_model("gboost",
                             Dataset(transformed, y, ["a", "b", "c"]), hp)
        np.testing.assert_array_equal(predict(base, X)[0],
                                      predict(lifted, transformed)[0])


def walk_oracle(tree, row):
    """Leaf value for one row, following child links node by node."""
    node = 0
    while tree["feature"][node] >= 0:
        if row[tree["feature"][node]] <= tree["threshold"][node]:
            node = tree["left"][node]
        else:
            node = tree["right"][node]
    return tree["value"][node]


def assert_optimal_split(found, x, t, oracle, tol):
    """`found` carries the oracle's best decrease at a threshold where
    the oracle reaches that decrease (equal-gain splits may tie)."""
    expected = oracle(x, t)
    if expected is None:
        assert found is None
        return
    decrease, threshold = found
    assert abs(decrease - expected[0]) <= tol
    xs = np.unique(x)
    assert threshold in (xs[1:] + xs[:-1]) / 2.0
    if threshold != expected[1]:
        # the same split seen as a one-boundary binary feature
        at_found = oracle((x > threshold).astype(float), t)
        assert abs(at_found[0] - expected[0]) <= tol


def test_splits_match_the_stable_tie_order_bit_for_bit():
    # trees must stay bit-identical to those grown when every scan summed
    # tied rows in stable order; float sums depend on that order
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 20, size=2000).astype(float)
        order = np.argsort(x, kind="stable")
        xs = x[order]
        boundaries = np.nonzero(xs[1:] > xs[:-1])[0]
        for t, decrease in ((rng.normal(size=2000), trees.sse_decrease),
                            (rng.integers(0, 2, size=2000),
                             trees.gini_decrease)):
            gains = decrease(t[order][None],
                             np.ones((1, 2000), dtype=np.int64))[0, boundaries]
            pos = boundaries[int(np.argmax(gains))]
            expected = (float(gains.max()), (xs[pos] + xs[pos + 1]) / 2.0)
            assert scan(x, t, decrease) == expected


# values on a coarse grid, so duplicates and ties are common
grid_values = st.integers(-6, 6).map(lambda v: v / 2.0)


class TestTreeCoreProperties:
    @settings(deadline=None)
    @given(st.lists(st.tuples(grid_values, st.integers(0, 1)),
                    min_size=1, max_size=30))
    def test_gini_split_matches_oracle(self, pairs):
        x = np.array([v for v, _ in pairs])
        y = np.array([label for _, label in pairs])
        assert_optimal_split(scan(x, y, trees.gini_decrease),
                             x, y, gini_oracle, 1e-12)

    @settings(deadline=None)
    @given(st.lists(st.tuples(grid_values, st.integers(-20, 20)),
                    min_size=1, max_size=30))
    def test_sse_split_matches_oracle(self, pairs):
        x = np.array([v for v, _ in pairs])
        t = np.array([target / 4.0 for _, target in pairs])
        assert_optimal_split(scan(x, t, trees.sse_decrease),
                             x, t, sse_oracle, 1e-9)

    @settings(deadline=None)
    @given(st.data())
    def test_predict_matches_per_row_walk(self, data):
        n = data.draw(st.integers(1, 40))
        d = data.draw(st.integers(1, 3))
        X = np.array(data.draw(st.lists(grid_values, min_size=n * d,
                                        max_size=n * d))).reshape(n, d)
        targets = np.array(data.draw(st.lists(st.integers(-3, 3),
                                              min_size=n, max_size=n)),
                           dtype=float)
        max_depth = data.draw(st.one_of(st.none(), st.integers(1, 4)))
        tree = trees.grow(X, targets, trees.sse_decrease, max_depth,
                          lambda: range(d),
                          lambda idx: float(targets[idx].mean()))

        assert len({len(tree[key]) for key in trees.FIELDS}) == 1
        for node, feature in enumerate(tree["feature"]):
            if feature >= 0:  # preorder: the left child comes next
                assert tree["left"][node] == node + 1
                assert tree["right"][node] > node + 1

        # quarter steps hit every split threshold exactly
        probes = np.array(data.draw(st.lists(
            st.integers(-14, 14).map(lambda v: v / 4.0),
            min_size=d, max_size=10 * d)))
        probes = probes[:probes.size // d * d].reshape(-1, d)
        for rows in (X, probes):
            expected = [walk_oracle(tree, row) for row in rows]
            np.testing.assert_array_equal(trees.predict(tree, rows),
                                          expected)

    @settings(deadline=None)
    @given(st.lists(st.tuples(grid_values, st.integers(0, 1),
                              st.integers(1, 4)), min_size=1, max_size=20))
    def test_weighted_scan_equals_scan_of_repeated_rows(self, triples):
        # integer label sums make the gini scan exact; the sse scan reads
        # no weights, since gboost never weights a row
        x = np.array([v for v, _, _ in triples])
        y = np.array([label for _, label, _ in triples])
        w = np.array([count for _, _, count in triples])
        assert (scan(x, y, trees.gini_decrease, w)
                == scan(np.repeat(x, w), np.repeat(y, w),
                        trees.gini_decrease))

    @settings(deadline=None)
    @given(st.data())
    def test_distinct_rows_with_weights_grow_the_repeated_rows_tree(
            self, data):
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 4))
        base = np.array(data.draw(st.lists(
            grid_values, min_size=n * d, max_size=n * d))).reshape(n, d)
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                             max_size=n)))
        # repeat some rows, and give one of them the other label as well
        draws = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                            min_size=1, max_size=40)))
        X = np.vstack([base[draws], base[draws[:1]]])
        y = np.concatenate([labels[draws], 1 - labels[draws[:1]]])
        pairs, counts = np.unique(np.column_stack([X, y]), axis=0,
                                  return_counts=True)
        seed = data.draw(st.integers(0, 2 ** 16))
        max_depth = data.draw(st.one_of(st.none(), st.integers(1, 4)))
        n_candidates = data.draw(st.integers(1, d))

        repeated_imp, distinct_imp = np.zeros(d), np.zeros(d)
        repeated = grow_tree(X, y, np.random.default_rng(seed), max_depth,
                             n_candidates, repeated_imp)
        distinct = grow_tree(pairs[:, :d], pairs[:, d].astype(int),
                             np.random.default_rng(seed), max_depth,
                             n_candidates, distinct_imp, weights=counts)
        assert distinct == repeated
        assert distinct_imp.tobytes() == repeated_imp.tobytes()

    @settings(deadline=None)
    @given(st.data())
    def test_each_split_is_the_stable_scan_of_its_node(self, data):
        # rows partitioned down from one presort must reach every node in
        # the order a stable sort of that node alone gives, bit for bit
        n = data.draw(st.integers(2, 40))
        d = data.draw(st.integers(1, 3))
        X = np.array(data.draw(st.lists(grid_values, min_size=n * d,
                                        max_size=n * d))).reshape(n, d)
        targets = np.array(data.draw(st.lists(
            st.floats(-3, 3, allow_nan=False, allow_subnormal=False),
            min_size=n, max_size=n)))
        splits = []
        tree = trees.grow(X, targets, trees.sse_decrease, None,
                          lambda: range(d), lambda idx: 0.0,
                          lambda idx, f, gain: splits.append((idx, f, gain)))
        inner = [node for node, f in enumerate(tree["feature"]) if f >= 0]
        assert len(inner) == len(splits)
        for node, (idx, feature, gain) in zip(inner, splits):
            assert np.all(np.diff(idx) > 0)
            best = None
            for f in range(d):
                found = scan(X[idx, f], targets[idx], trees.sse_decrease)
                if found is not None and (best is None or found[0] > best[0]):
                    best = (found[0], f, found[1])
            assert best == (gain, feature, tree["threshold"][node])

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
                              st.sampled_from([0.0, 1.5]), st.integers(0, 1)),
                    min_size=1, max_size=30))
    def test_distinct_pairs_group_bitwise_identical_rows(self, triples):
        X = np.array([[a, b] for a, b, _ in triples])
        y = np.array([label for _, _, label in triples])
        first, pair_of = distinct_pairs(X, y)
        keys = [(row.tobytes(), label) for row, label in zip(X, y)]
        assert len(set(keys)) == first.shape[0]
        assert [keys[i] for i in first[pair_of]] == keys


@functools.cache
def saved_tree_artifacts() -> dict:
    """The JSON of a small rf and a small gboost artifact, by family."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(60, 3))
    ds = Dataset(X, (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int),
                 ["a", "b", "c"])
    return {family: train_model(family, ds, hp).to_json() for family, hp in (
        ("rf", ForestParams(n_trees=3, seed=2)),
        ("gboost", BoostingParams(n_trees=3, max_depth=3)))}


def test_a_tree_with_a_cycle_is_refused_on_load(tmp_path):
    # predict on this tree would send the root's left rows back to the
    # root forever
    doc = json.loads(saved_tree_artifacts()["rf"])
    doc["parameters"]["trees"][1]["left"][0] = 0
    path = tmp_path / "rf.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"rf.json: tree 1, node 0: "):
        load_artifact(path)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["rf", "gboost"]), st.data())
def test_trees_off_the_layout_are_refused_on_load(tmp_path_factory, family,
                                                  data):
    path = tmp_path_factory.mktemp("trees") / f"{family}.json"
    path.write_text(saved_tree_artifacts()[family])
    load_artifact(path)  # every grown tree is in preorder and passes
    doc = json.loads(path.read_text())
    t = data.draw(st.integers(0, len(doc["parameters"]["trees"]) - 1))
    tree = doc["parameters"]["trees"][t]
    count = len(tree["feature"])
    if data.draw(st.booleans()):
        # one per-node list one entry short or long
        key = data.draw(st.sampled_from(trees.FIELDS))
        tree[key] = tree[key][:-1] if data.draw(st.booleans()) else (
            tree[key] + [0])
        message = rf"tree {t}: per-node lists"
    else:
        node = data.draw(st.integers(0, count - 1))
        key = data.draw(st.sampled_from(["feature", "left", "right"]))
        if tree["feature"][node] == -1:  # a leaf: anything but -1
            bad = st.integers(-5, count + 5).filter(lambda v: v != -1)
        elif key == "feature":  # outside [0, 3)
            bad = st.integers(-5, -1) | st.integers(3, 8)
        else:  # at or below the node, or past the last node
            bad = st.integers(-5, node) | st.integers(count, count + 5)
        tree[key][node] = data.draw(bad | st.just(float(tree[key][node])))
        message = rf"tree {t}, node {node}: "
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_artifact(path)
