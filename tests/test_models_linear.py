"""Logistic regression and SGD SVM (with explicit kernel maps) against
closed-form and search oracles."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botsift.models import predict, train_model
from botsift.models import logreg
from botsift.models.base import load_artifact, softplus
from botsift.models.logreg import LogRegParams
from botsift.models.svm import (SvmParams, map_polynomial, map_rff,
                                sample_rff)
from botsift.windows import Dataset


def f1_manual(y_true, y_pred):
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def separable_1d(seed=4, n=100):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(-3, -0.5, n // 2),
                        rng.uniform(0.5, 3, n // 2)])
    y = (x > 0).astype(int)
    return Dataset(x[:, None], y, ["x"]), x, y


@st.composite
def weighted_problems(draw):
    """Small weighted datasets with both classes; some with a constant
    column, some separable, some without penalty (c=inf), and class
    weights down to 1e-9."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 4))
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, d)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = rng.normal()
    if draw(st.booleans()):  # separable by a random hyperplane
        margin = X @ rng.normal(size=d)
        labels = (margin > np.median(margin)).astype(int)
        labels[np.argsort(margin)[[0, -1]]] = [0, 1]
    else:
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
    weights = st.sampled_from([1e-9, 0.044, 1.0, 5.0])
    hp = LogRegParams(c=draw(st.sampled_from([float("inf"), 550.0, 1.0,
                                              0.01])),
                      weight_negative=draw(weights),
                      weight_positive=draw(weights))
    return X, labels, hp


def make_objective(X, labels, hp):
    """(loss, gradient) of weighted BCE + ||w||^2 / (2c) at theta = (w, b)
    on the rows as train_model standardizes them."""
    std = X.std(axis=0)
    Xs = (X - X.mean(axis=0)) / np.where(std == 0, 1.0, std)
    sign = np.where(labels == 1, 1.0, -1.0)
    sw = np.where(labels == 1, hp.weight_positive, hp.weight_negative)
    n = len(labels)

    def objective(theta):
        w, b = theta[:-1], theta[-1]
        z = Xs @ w + b
        loss = np.sum(sw * np.logaddexp(0.0, -sign * z)) / n
        loss += w @ w / (2.0 * hp.c)
        # d/dz log(1 + e^(-s z)) = -s / (1 + e^(s z))
        #                        = -s (1 - tanh(s z / 2)) / 2
        dz = -sign * sw * 0.5 * (1.0 - np.tanh(sign * z / 2.0)) / n
        grad = np.append(Xs.T @ dz + w / hp.c, np.sum(dz))
        return loss, grad

    return objective


class TestLogReg:
    def test_separable_matches_sign_rule(self):
        ds, x, y = separable_1d()
        artifact = train_model("logreg", ds, LogRegParams(
            weight_negative=1.0, max_iter=1000))
        scores, labels = predict(artifact, ds.rows)
        # closed-form oracle on 1-D sign-separable data
        np.testing.assert_array_equal(labels, (x > 0).astype(int))
        assert f1_manual(y, labels) == 1.0

    def test_vanishing_negative_weight_forces_recall_one(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < 0.5).astype(int)
        ds = Dataset(X, y, ["a", "b", "c"])
        artifact = train_model("logreg", ds, LogRegParams(
            weight_negative=1e-9, max_iter=300))
        _, labels = predict(artifact, X)
        assert labels.min() == 1  # everything positive: recall 1.0

    def test_class_swap_mirrors_the_boundary(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(160, 3))
        logit = 1.2 * X[:, 0] - 0.7 * X[:, 1]
        y = (rng.random(160) < 1 / (1 + np.exp(-logit))).astype(int)
        hp = LogRegParams(c=10.0, weight_negative=1.0, max_iter=2000,
                          tol=1e-10)
        direct = train_model("logreg", Dataset(X, y, ["a", "b", "c"]), hp)
        flipped = train_model("logreg", Dataset(X, 1 - y, ["a", "b", "c"]),
                              hp)
        w_direct = np.array(direct.parameters["weights"])
        w_flipped = np.array(flipped.parameters["weights"])
        np.testing.assert_allclose(w_direct, -w_flipped, atol=1e-6)
        s_direct = predict(direct, X)[0]
        s_flipped = predict(flipped, X)[0]
        np.testing.assert_allclose(s_direct + s_flipped, 1.0, atol=1e-6)

    def test_single_class_errors(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.ones(4, dtype=int),
                     ["a", "b"])
        with pytest.raises(ValueError, match="both classes"):
            train_model("logreg", ds, LogRegParams())

    def test_nonconvergence_warns_not_errors(self, caplog):
        ds, _, _ = separable_1d()
        artifact = train_model("logreg", ds, LogRegParams(max_iter=1))
        assert [(name, level) for name, level, message in caplog.record_tuples
                if "tolerance" in message] == [("botsift.models.logreg",
                                                logging.WARNING)]
        assert artifact.metadata["converged"] is False

    def test_step_halving_reaches_the_optimum(self, monkeypatch):
        # full Newton steps overshoot on these rows, so the fit must halve
        # some of them; each trial step evaluates softplus once
        X = np.array([[1.0, 20.0], [2.0, 3.0], [3.0, -1.0], [3.0, 1.0],
                      [3.0, 3.0]])
        labels = np.array([0, 1, 1, 0, 0])
        hp = LogRegParams(c=1e6, weight_negative=1.0)
        calls = []
        monkeypatch.setattr(logreg, "softplus",
                            lambda z: calls.append(1) or softplus(z))
        artifact = train_model("logreg", Dataset(X, labels, ["a", "b"]), hp)
        assert len(calls) > 1 + artifact.metadata["iterations"]
        assert artifact.metadata["converged"] is True
        theta = np.append(artifact.parameters["weights"],
                          artifact.parameters["bias"])
        assert np.linalg.norm(make_objective(X, labels, hp)(theta)[1]) < (
            hp.tol)

    def test_artifact_round_trip_is_exact(self, tmp_path):
        ds, _, _ = separable_1d()
        artifact = train_model("logreg", ds, LogRegParams(
            max_iter=200, weight_negative=1.0))
        path = tmp_path / "logreg.json"
        artifact.save(path)
        loaded = load_artifact(path)
        assert loaded.family == "logreg"
        np.testing.assert_array_equal(predict(loaded, ds.rows)[0],
                                      predict(artifact, ds.rows)[0])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LogRegParams(c=0.0)
        with pytest.raises(ValueError):
            LogRegParams(weight_negative=0.0)

    def test_no_penalty_with_a_constant_feature_fits(self):
        # c=inf leaves the constant column's row and column of the
        # Hessian all zero: the Newton system is singular
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 4))
        X[:, 2] = 5.0
        y = (X[:, 0] + rng.normal(size=300) > 0).astype(int)
        artifact = train_model("logreg", Dataset(X, y, list("abcd")),
                               LogRegParams(c=float("inf")))
        assert artifact.metadata["converged"] is True
        weights = np.array(artifact.parameters["weights"])
        assert np.all(np.isfinite(weights))
        assert abs(weights[2]) < 1e-9

    @settings(deadline=None, max_examples=150)
    @given(weighted_problems())
    def test_fit_is_the_optimum_of_the_objective(self, problem):
        X, labels, hp = problem
        artifact = train_model("logreg", Dataset(
            X, labels, [f"f{j}" for j in range(X.shape[1])]), hp)
        assert artifact.metadata["converged"] is True
        objective = make_objective(X, labels, hp)
        theta = np.append(artifact.parameters["weights"],
                          artifact.parameters["bias"])
        loss, grad = objective(theta)
        assert np.linalg.norm(grad) < hp.tol
        # a convex function lies above its tangent, so no step lowers
        # the objective by more than |grad| * |step|
        rng = np.random.default_rng(0)
        slack = 1e-12 * (1.0 + abs(loss))
        for scale in (1e-4, 1e-2, 1.0, 10.0):
            for _ in range(8):
                step = rng.normal(size=theta.size)
                step *= scale / np.linalg.norm(step)
                assert objective(theta + step)[0] >= (
                    loss - hp.tol * scale - slack)


def separable_2d(seed=2, n=120):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal([-2, -2], 0.4, (n // 2, 2)),
                   rng.normal([2, 2], 0.4, (n // 2, 2))])
    y = np.repeat([0, 1], n // 2)
    return Dataset(X, y, ["a", "b"]), X, y


def grid_has_perfect_separator(X, y):
    """Exhaustive direction/offset scan for a zero-error linear rule."""
    y_pm = np.where(y == 1, 1.0, -1.0)
    for theta in np.linspace(0.0, 2 * np.pi, 73):
        w = np.array([np.cos(theta), np.sin(theta)])
        proj = X @ w
        for b in np.arange(-3.0, 3.0, 0.25):
            if np.all(y_pm * (proj + b) > 0):
                return True
    return False


def lasso_coordinate_descent(X, target, lam, sweeps=200):
    """Squared-loss lasso by cyclic coordinate descent (support oracle)."""
    n, d = X.shape
    w = np.zeros(d)
    col_sq = (X ** 2).sum(axis=0) / n
    for _ in range(sweeps):
        for j in range(d):
            residual = target - X @ w + X[:, j] * w[j]
            rho = X[:, j] @ residual / n
            w[j] = np.sign(rho) * max(0.0, abs(rho) - lam) / col_sq[j]
    return w


class TestSvm:
    def test_separable_reaches_zero_hinge(self):
        ds, X, y = separable_2d()
        assert grid_has_perfect_separator(X, y)  # oracle: separable
        artifact = train_model("svm", ds, SvmParams(seed=7))
        w = np.array(artifact.parameters["weights"])
        b = artifact.parameters["bias"]
        mean = np.array(artifact.standardization["mean"])
        std = np.array(artifact.standardization["std"])
        margins = np.where(y == 1, 1.0, -1.0) * (((X - mean) / std) @ w + b)
        assert np.maximum(0.0, 1.0 - margins).mean() == 0.0
        _, labels = predict(artifact, X)
        assert f1_manual(y, labels) == 1.0

    def test_huge_alpha_collapses_to_majority(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(150, 3))
        y = (rng.random(150) < 0.3).astype(int)
        majority = int(np.bincount(y).argmax())
        ds = Dataset(X, y, ["a", "b", "c"])
        artifact = train_model("svm", ds, SvmParams(alpha=1e6, seed=7))
        weights = np.array(artifact.parameters["weights"])
        assert np.abs(weights).max() == 0.0
        _, labels = predict(artifact, X)
        assert set(labels.tolist()) == {majority}

    def test_l1_sparsity_matches_lasso_oracle(self):
        rng = np.random.default_rng(12)
        n = 300
        y = rng.permutation(np.repeat([0, 1], n // 2))
        signal = np.where(y == 1, 1.5, -1.5) + 0.1 * rng.normal(size=n)
        noise = rng.normal(size=(n, 4))
        X = np.column_stack([signal, noise])
        ds = Dataset(X, y, ["signal", "n1", "n2", "n3", "n4"])

        artifact = train_model("svm", ds, SvmParams(penalty="l1",
                                                    alpha=1e-3, seed=3))
        w = np.array(artifact.parameters["weights"])
        support = set(np.nonzero(np.abs(w) > 1e-12)[0].tolist())

        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        w_lasso = lasso_coordinate_descent(
            Xs, np.where(y == 1, 1.0, -1.0), lam=0.1)
        oracle_support = set(np.nonzero(np.abs(w_lasso) > 1e-12)[0].tolist())

        assert support == oracle_support == {0}
        assert np.all(w[1:] == 0.0)  # exact zeros from soft threshold

    def test_penalty_mapping(self):
        assert SvmParams(penalty="l1").effective_l1_ratio() == 1.0
        assert SvmParams(penalty="l2").effective_l1_ratio() == 0.0
        assert SvmParams(penalty="elasticnet",
                         l1_ratio=0.15).effective_l1_ratio() == 0.15

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SvmParams(kernel="sigmoid")
        with pytest.raises(ValueError):
            SvmParams(kernel="rbf", gamma=0.0)
        with pytest.raises(ValueError):
            SvmParams(kernel="rbf", rff_dim=5)
        with pytest.raises(ValueError):
            SvmParams(kernel="rbf", rff_dim=0)
        with pytest.raises(ValueError):
            SvmParams(penalty="ridge")
        with pytest.raises(ValueError):
            SvmParams(l1_ratio=1.5)
        with pytest.raises(ValueError):
            SvmParams(kernel="poly", degree=0)

    def test_rbf_artifact_round_trip(self, tmp_path):
        ds, X, y = separable_2d(seed=9)
        artifact = train_model("svm", ds, SvmParams(kernel="rbf", gamma=0.5,
                                                    rff_dim=64, seed=5))
        path = tmp_path / "svm.json"
        artifact.save(path)
        loaded = load_artifact(path)
        np.testing.assert_array_equal(predict(loaded, X)[0],
                                      predict(artifact, X)[0])
        _, labels = predict(loaded, X)
        assert f1_manual(y, labels) == 1.0


    def test_poly_artifact_round_trip(self, tmp_path):
        ds, X, y = separable_2d(seed=9)
        artifact = train_model("svm", ds, SvmParams(kernel="poly", degree=2,
                                                    seed=5))
        path = tmp_path / "svm.json"
        artifact.save(path)
        loaded = load_artifact(path)
        scores, labels = predict(loaded, X)
        # the saved weights act on the degree-2 monomials of the rows as
        # train_model standardizes them
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        margin = (map_polynomial(Xs, 2) @ loaded.parameters["weights"]
                  + loaded.parameters["bias"])
        np.testing.assert_array_equal(labels, (margin > 0).astype(int))
        np.testing.assert_array_equal(scores, predict(artifact, X)[0])


class TestKernelMaps:
    def test_polynomial_degree2_monomials(self):
        X = np.array([[2.0, 3.0], [0.5, -1.0]])
        mapped = map_polynomial(X, 2)
        assert mapped.shape == (2, 6)
        x1, x2 = X[:, 0], X[:, 1]
        expected = np.column_stack([np.ones(2), x1, x2,
                                    x1 ** 2, x1 * x2, x2 ** 2])
        np.testing.assert_allclose(mapped, expected, atol=1e-15)

    def test_polynomial_degree1_identity_plus_constant(self):
        X = np.arange(6.0).reshape(3, 2)
        mapped = map_polynomial(X, 1)
        np.testing.assert_array_equal(mapped[:, 0], np.ones(3))
        np.testing.assert_array_equal(mapped[:, 1:], X)

    def test_polynomial_dimension_formula(self):
        # monomials of total degree <= deg in d variables: C(d+deg, deg)
        from math import comb
        for d, deg in [(2, 2), (3, 2), (2, 3), (5, 2)]:
            X = np.random.default_rng(0).normal(size=(4, d))
            assert map_polynomial(X, deg).shape[1] == comb(d + deg, deg)

    def test_rff_approximates_the_rbf_kernel(self):
        rng = np.random.default_rng(8)
        d = 5
        P = rng.normal(size=(200, d))
        Q = rng.normal(size=(200, d))
        for gamma in (0.03567, 0.5):
            omegas, offsets = sample_rff(d, gamma, 2048, seed=11)
            zp = map_rff(P, omegas, offsets)
            zq = map_rff(Q, omegas, offsets)
            approx = np.sum(zp * zq, axis=1)
            exact = np.exp(-gamma * np.sum((P - Q) ** 2, axis=1))
            assert np.abs(approx - exact).mean() <= 0.05

    def test_rff_shapes_and_determinism(self):
        omegas, offsets = sample_rff(3, 0.5, 8, seed=2)
        assert omegas.shape == (8, 3)
        assert offsets.shape == (8,)
        assert np.all((0 <= offsets) & (offsets < 2 * np.pi))
        omegas2, offsets2 = sample_rff(3, 0.5, 8, seed=2)
        np.testing.assert_array_equal(omegas, omegas2)
        np.testing.assert_array_equal(offsets, offsets2)
