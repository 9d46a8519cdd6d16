"""Metric arithmetic, splits, bootstrap, repeated runs, sweeps, and
cross-capture evaluation."""

import numpy as np
import pytest

from botsift import evaluation
from botsift.evaluation import (Metrics, bootstrap_resample,
                                cross_scenario_eval, evaluate_once,
                                hyperparam_sweep, prf1, repeated_eval,
                                split_dataset)
from botsift.models import (ForestParams, LogRegParams, make_params,
                            predict)
from botsift.windows import KEY, Dataset

NAN = float("nan")

def confusion_oracle(y_true, y_pred):
    """Element-by-element confusion counting in plain Python."""
    tp = fp = fn = tn = 0
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 1:
            fp += 1
        elif t == 1 and p == 0:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return tp, fp, fn, tn, precision, recall, f1


class TestPrf1:
    def test_matches_brute_force_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y_true = rng.integers(0, 2, size=200)
            y_pred = rng.integers(0, 2, size=200)
            m = prf1(y_true, y_pred)
            tp, fp, fn, tn, p, r, f1 = confusion_oracle(y_true, y_pred)
            assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
            assert m.precision == p and m.recall == r and m.f1 == f1
            assert m.n == 200

    def test_perfect_precision_95_recall_pin(self):
        # 20 positives, 19 found, no false alarms: P=1.0, R=0.95
        y_true = np.array([1] * 20 + [0] * 30)
        y_pred = np.array([1] * 19 + [0] * 31)
        m = prf1(y_true, y_pred)
        assert m.precision == 1.0
        assert m.recall == 0.95
        assert abs(m.f1 - 38.0 / 39.0) < 1e-15
        assert abs(m.f1 - 0.975) < 1e-3  # the 3-digit report figure

    def test_zero_conventions(self):
        m = prf1([0, 0, 0], [0, 0, 0])
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        m = prf1([1, 1], [0, 0])
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        m = prf1([0, 0], [1, 1])
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_all_positive_prediction_has_full_recall(self):
        m = prf1([1, 0, 1, 0], [1, 1, 1, 1])
        assert m.recall == 1.0
        assert m.precision == 0.5

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            prf1([1, 0], [1])
        with pytest.raises(ValueError):
            prf1([1, 0], [1, 1], [2])

    def test_counts_weigh_each_row(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y_true = rng.integers(0, 2, size=50)
            y_pred = rng.integers(0, 2, size=50)
            counts = rng.integers(0, 4, size=50)
            assert prf1(y_true, y_pred, counts) == prf1(
                np.repeat(y_true, counts), np.repeat(y_pred, counts))


def toy_dataset(n=300, seed=0, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] > 0).astype(int)
    return Dataset(X, y, [f"f{i}" for i in range(d)],
                   keys=np.array([(i, "s") for i in range(n)], KEY))


class TestSplit:
    def test_two_thirds_of_300_is_exactly_200(self):
        ds = toy_dataset(300)
        train, test = split_dataset(ds, 2.0 / 3.0, seed=1)
        assert (train.n, test.n) == (200, 100)

    def test_split_is_deterministic_and_partitions(self):
        ds = toy_dataset(90, seed=5)
        a_train, a_test = split_dataset(ds, 0.6667, seed=9)
        b_train, b_test = split_dataset(ds, 0.6667, seed=9)
        np.testing.assert_array_equal(a_train.rows, b_train.rows)
        np.testing.assert_array_equal(a_test.rows, b_test.rows)
        # the two sides together hold exactly the original rows
        keys = sorted(a_train.keys.tolist() + a_test.keys.tolist())
        assert keys == ds.keys.tolist()
        assert set(map(tuple, a_train.rows)).isdisjoint(
            set(map(tuple, a_test.rows)))

    def test_different_seeds_differ(self):
        ds = toy_dataset(90, seed=5)
        a, _ = split_dataset(ds, 0.5, seed=1)
        b, _ = split_dataset(ds, 0.5, seed=2)
        assert not np.array_equal(a.rows, b.rows)

    def test_bad_fractions_error(self):
        ds = toy_dataset(10)
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split_dataset(ds, frac, seed=0)
        tiny = toy_dataset(3)
        with pytest.raises(ValueError):
            split_dataset(tiny, 0.1, seed=0)  # floor gives an empty side

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match=r"seed must be an integer in "
                                             r"\[0, inf\), got -1"):
            split_dataset(toy_dataset(10), 0.5, seed=-1)


class TestBootstrap:
    def test_size_and_membership(self):
        ds = toy_dataset(40, seed=7)
        boosted = bootstrap_resample(ds, factor=10, seed=3)
        assert boosted.n == 400
        originals = set(map(tuple, ds.rows))
        assert all(tuple(row) in originals for row in boosted.rows)

    def test_factor_one_resamples_n_rows(self):
        ds = toy_dataset(25, seed=8)
        assert bootstrap_resample(ds, 1, seed=0).n == 25

    def test_determinism(self):
        ds = toy_dataset(30, seed=9)
        a = bootstrap_resample(ds, 3, seed=11)
        b = bootstrap_resample(ds, 3, seed=11)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_factor_validation(self):
        ds = toy_dataset(10)
        with pytest.raises(ValueError):
            bootstrap_resample(ds, 0, seed=0)
        with pytest.raises(ValueError):
            bootstrap_resample(ds, 2.5, seed=0)

    def test_evaluate_once_trains_on_the_resampled_set(self):
        ds = toy_dataset(150, seed=10)
        train_m, test_m, _ = evaluate_once(
            ds, "rf", ForestParams(n_trees=5, seed=1), split_seed=4,
            bootstrap_factor=5)
        assert train_m.n == 5 * 100  # floor(2/3 * 150) = 100, then x5
        assert test_m.n == 50

    @pytest.mark.parametrize("family", ["rf", "gboost"])
    @pytest.mark.parametrize("factor", [1, 10, 30])
    def test_training_metrics_equal_a_scoring_of_the_resample(self, family,
                                                              factor):
        # the distinct training rows are scored once and counted as often
        # as they were drawn; rounded rows and noisy labels keep the
        # training metrics off 1
        rng = np.random.default_rng(12)
        X = np.round(rng.normal(size=(120, 2)))
        y = (X[:, 0] + rng.normal(0, 0.7, 120) > 0).astype(int)
        ds = Dataset(X, y, ["a", "b"])
        hp = make_params(family, {"n_trees": 5})
        train_m, _, artifact = evaluate_once(ds, family, hp, split_seed=6,
                                             bootstrap_factor=factor)
        train, _ = split_dataset(ds, 2.0 / 3.0, 6)
        resample = (bootstrap_resample(train, factor, 6) if factor != 1
                    else train)
        _, labels = predict(artifact, resample.rows)
        assert train_m == prf1(resample.labels, labels)
        assert train_m.n == factor * train.n
        assert train_m.f1 < 1.0

    @pytest.mark.parametrize("factor", [1, 10])
    def test_an_unknown_family_is_refused_at_any_factor(self, factor):
        with pytest.raises(ValueError, match="unknown model family"):
            evaluate_once(toy_dataset(30, seed=1), "forest",
                          ForestParams(n_trees=2), split_seed=0,
                          bootstrap_factor=factor)

    def test_evaluate_once_factor_one_trains_on_the_split(self):
        ds = toy_dataset(150, seed=10)
        hp = ForestParams(n_trees=5, seed=1)
        plain = evaluate_once(ds, "rf", hp, split_seed=4)
        once = evaluate_once(ds, "rf", hp, split_seed=4, bootstrap_factor=1)
        assert plain[0] == once[0] and once[0].n == 100
        assert plain[2].to_json() == once[2].to_json()


class TestRepeatedEval:
    def test_single_run_has_zero_std(self):
        ds = toy_dataset(120, seed=11)
        rm = repeated_eval(ds, "rf", ForestParams(n_trees=10, seed=2),
                           n_runs=1, seed=5)
        summary = rm.summary("test")
        for key in ("precision", "recall", "f1"):
            assert summary[key][1] == 0.0

    def test_summary_mean_matches_runs(self):
        ds = toy_dataset(120, seed=12)
        rm = repeated_eval(ds, "rf", ForestParams(n_trees=10, seed=2),
                           n_runs=4, seed=5)
        assert len(rm.test_runs) == len(rm.train_runs) == 4
        f1s = [m.f1 for m in rm.test_runs]
        mean, std = rm.summary("test")["f1"]
        assert abs(mean - np.mean(f1s)) < 1e-15
        assert abs(std - np.std(f1s)) < 1e-15

    def test_failed_run_reports_index_and_seed(self):
        # a 4-row set whose train side can go single-class
        ds = Dataset(np.arange(8.0).reshape(4, 2),
                     np.array([1, 1, 1, 0]), ["a", "b"])
        bad_seed = None
        for seed in range(60):
            perm = np.random.default_rng(seed).permutation(4)
            if 3 not in perm[:2]:  # row 3 is the only negative
                bad_seed = seed
                break
        assert bad_seed is not None
        with pytest.raises(RuntimeError,
                           match=rf"run 0 \(seed {bad_seed}\)"):
            repeated_eval(ds, "logreg", LogRegParams(), n_runs=1,
                          seed=bad_seed, train_frac=0.5)

    def test_run_count_validation(self):
        ds = toy_dataset(60)
        with pytest.raises(ValueError):
            repeated_eval(ds, "rf", ForestParams(n_trees=1), n_runs=0,
                          seed=0)

    @pytest.mark.parametrize("factor", [0, -3, 2.5, None])
    def test_bootstrap_factor_validation(self, factor):
        ds = toy_dataset(60)
        with pytest.raises(ValueError, match="factor"):
            repeated_eval(ds, "rf", ForestParams(n_trees=1), n_runs=1,
                          seed=0, bootstrap_factor=factor)


class TestSweep:
    def test_picks_highest_mean_f1_first_on_ties(self):
        ds = toy_dataset(150, seed=13)
        grid = [{"n_trees": 5, "seed": 1}, {"n_trees": 5, "seed": 1},
                {"n_trees": 1, "seed": 1}]
        result = hyperparam_sweep(ds, "rf", grid, n_runs=2, seed=3)
        assert len(result.entries) == 3
        f1s = [e.metrics.summary("test")["f1"][0] for e in result.entries]
        assert result.best_index == int(np.argmax(f1s))
        # the duplicate of the winner never displaces it
        assert f1s[0] == f1s[1]
        assert result.best_index in (0, 2)
        assert result.best.params == grid[result.best_index]

    def test_single_point_grid(self):
        ds = toy_dataset(90, seed=14)
        result = hyperparam_sweep(ds, "rf", [{"n_trees": 3}], n_runs=1,
                                  seed=2)
        assert result.best_index == 0
        assert result.best.error is None

    def test_failures_are_recorded_not_raised(self):
        rows = np.arange(20.0).reshape(10, 2)
        rows[0, 0] = np.nan
        ds = Dataset(rows, np.tile([0, 1], 5), ["a", "b"])
        result = hyperparam_sweep(
            ds, "nn", [{"hidden": (4,), "epochs": 1},
                       {"hidden": (2,), "epochs": 1}], n_runs=1, seed=1)
        assert all(e.error is not None for e in result.entries)
        assert result.best_index is None
        assert result.best is None

    def test_empty_grid_errors(self):
        with pytest.raises(ValueError):
            hyperparam_sweep(toy_dataset(60), "rf", [], n_runs=1, seed=0)

    @pytest.mark.parametrize("n_runs,train_frac,message", [
        (0, 0.5, "n_runs"), (1, 1.5, "train_frac"),
        (1, float("nan"), "train_frac")])
    def test_shared_argument_errors_raise_before_any_point(
            self, monkeypatch, n_runs, train_frac, message):
        def no_runs(*args, **kwargs):
            raise AssertionError("a grid point was evaluated")

        monkeypatch.setattr(evaluation, "repeated_eval", no_runs)
        with pytest.raises(ValueError, match=message):
            hyperparam_sweep(toy_dataset(60), "rf",
                             [{"n_trees": 1}, {"n_trees": 2}],
                             n_runs=n_runs, seed=0, train_frac=train_frac)


class TestMakeParams:
    def test_round_trips_overrides(self):
        hp = make_params("logreg", {"c": 5.0, "max_iter": 10})
        assert isinstance(hp, LogRegParams)
        assert hp.c == 5.0 and hp.max_iter == 10

    def test_unknown_family_and_field_error(self):
        with pytest.raises(ValueError):
            make_params("xgb", {})
        with pytest.raises(TypeError):
            make_params("rf", {"trees": 5})

    def test_one_hidden_width_is_one_layer(self):
        # the CLI reads --hp hidden=16 as the int 16
        assert make_params("nn", {"hidden": 16}).hidden == (16,)

    @pytest.mark.parametrize("family,field,value", [
        ("logreg", "c", NAN), ("logreg", "weight_negative", NAN),
        ("logreg", "weight_positive", NAN), ("svm", "gamma", NAN),
        ("svm", "alpha", NAN), ("svm", "l1_ratio", NAN),
        ("svm", "eta0", NAN), ("gboost", "learning_rate", NAN),
        ("nn", "learning_rate", NAN), ("nn", "momentum", NAN),
        ("nn", "bn_eps", NAN), ("nn", "bn_eps", 0.0),
        ("nn", "bn_eps", -1.0), ("svm", "weight_negative", NAN),
        ("svm", "weight_negative", -1.0), ("svm", "weight_positive", NAN),
        ("svm", "weight_positive", -1.0), ("nn", "bn_momentum", NAN),
        ("nn", "bn_momentum", -1.0), ("nn", "bn_momentum", 1.5),
        ("logreg", "tol", NAN), ("logreg", "tol", -1.0),
        ("logreg", "max_iter", -3)])
    def test_out_of_range_float_is_refused(self, family, field, value):
        overrides = {field: value}
        if family == "svm":
            overrides["kernel"] = "rbf"  # gamma is checked for rbf only
        with pytest.raises(ValueError):
            make_params(family, overrides)


class TestCrossScenario:
    def test_train_and_test_on_different_captures(self):
        train_ds = toy_dataset(150, seed=15)
        test_ds = toy_dataset(90, seed=16)
        m = cross_scenario_eval(train_ds, test_ds, "rf",
                                ForestParams(n_trees=20, seed=3))
        assert isinstance(m, Metrics)
        assert m.n == 90
        assert m.f1 > 0.8  # same generating rule transfers

    def test_feature_mismatch_errors(self):
        a = toy_dataset(60, seed=17)
        b = Dataset(a.rows, a.labels, ["x0", "x1", "x2"])
        with pytest.raises(ValueError, match="features"):
            cross_scenario_eval(a, b, "rf", ForestParams(n_trees=1))
