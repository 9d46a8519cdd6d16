"""Linear SVM trained by stochastic gradient descent on the hinge loss
with an elastic-net penalty, plus explicit feature maps that lift the
model to polynomial and RBF kernels.

The polynomial map enumerates every monomial of total degree <= degree
(constant included), so a linear model on the mapped features equals a
polynomial-kernel machine. The RBF kernel is approximated with random
Fourier features sqrt(2/D) * cos(w.x + b), frequencies drawn from
N(0, 2*gamma*I) and offsets from Uniform[0, 2*pi). It fits and scores
standardized rows, mapping them first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .base import ModelArtifact, sigmoid


@dataclass
class SvmParams:
    kernel: str = "linear"  # linear | poly | rbf
    degree: int = 2
    gamma: float = 0.03567
    rff_dim: int = 512
    alpha: float = 1e-9
    penalty: str = "l2"  # l1 | l2 | elasticnet
    l1_ratio: float = 0.15
    epochs: int = 20
    eta0: float = 0.1
    weight_negative: float = 1.0
    weight_positive: float = 1.0
    seed: int = 42

    def __post_init__(self):
        if self.kernel not in ("linear", "poly", "rbf"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.kernel == "poly" and self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.kernel == "rbf":
            if not self.gamma > 0:
                raise ValueError("gamma must be > 0")
            if self.rff_dim < 2 or self.rff_dim % 2 != 0:
                raise ValueError("rff_dim must be an even number >= 2")
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")
        if self.penalty not in ("l1", "l2", "elasticnet"):
            raise ValueError(f"unknown penalty {self.penalty!r}")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ValueError("l1_ratio must lie in [0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.eta0 > 0:
            raise ValueError("eta0 must be > 0")
        if not (self.weight_negative > 0 and self.weight_positive > 0):
            raise ValueError("class weights must be > 0")

    def effective_l1_ratio(self) -> float:
        if self.penalty == "l1":
            return 1.0
        if self.penalty == "l2":
            return 0.0
        return self.l1_ratio


def map_polynomial(X: np.ndarray, degree: int) -> np.ndarray:
    """All monomials of total degree <= degree, constant term first.

    Implemented as multisets of size `degree` over the columns of X
    augmented with a constant-1 column.
    """
    n, d = X.shape
    aug = np.hstack([np.ones((n, 1)), X])
    columns = []
    for combo in combinations_with_replacement(range(d + 1), degree):
        col = np.ones(n)
        for j in combo:
            col = col * aug[:, j]
        columns.append(col)
    return np.column_stack(columns)


def sample_rff(d: int, gamma: float, rff_dim: int, seed: int):
    """Frequencies (rff_dim, d) from N(0, 2*gamma*I) and offsets
    (rff_dim,) from Uniform[0, 2*pi)."""
    rng = np.random.default_rng(seed)
    omegas = rng.normal(0.0, np.sqrt(2.0 * gamma), size=(rff_dim, d))
    offsets = rng.uniform(0.0, 2.0 * np.pi, size=rff_dim)
    return omegas, offsets


def map_rff(X: np.ndarray, omegas: np.ndarray,
            offsets: np.ndarray) -> np.ndarray:
    """sqrt(2/D) * cos(w.x + b); inner products of mapped vectors
    approximate exp(-gamma * ||x - y||^2) in expectation."""
    D = omegas.shape[0]
    return np.sqrt(2.0 / D) * np.cos(X @ omegas.T + offsets)


def _sgd_hinge(X: np.ndarray, y_pm: np.ndarray, sw: np.ndarray,
               hp: SvmParams):
    """Per-sample hinge subgradient steps followed by elastic-net
    shrinkage. L2 decay is clamped at zero and L1 is applied by soft
    threshold, so the penalty never flips a weight's sign."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    rng = np.random.default_rng(hp.seed)
    ratio = hp.effective_l1_ratio()
    l2 = hp.alpha * (1.0 - ratio)
    l1 = hp.alpha * ratio
    eta = hp.eta0
    for _ in range(hp.epochs):
        for i in rng.permutation(n):
            margin = y_pm[i] * (X[i] @ w + b)
            if margin < 1.0:
                step = eta * sw[i] * y_pm[i]
                w += step * X[i]
                b += step
            if l2 > 0:
                w *= max(0.0, 1.0 - eta * l2)
            if l1 > 0:
                w = np.sign(w) * np.maximum(0.0, np.abs(w) - eta * l1)
    return w, b


def fit(X: np.ndarray, labels: np.ndarray, hp: SvmParams):
    omegas = offsets = None
    if hp.kernel == "poly":
        X = map_polynomial(X, hp.degree)
    elif hp.kernel == "rbf":
        omegas, offsets = sample_rff(X.shape[1], hp.gamma, hp.rff_dim,
                                     hp.seed)
        X = map_rff(X, omegas, offsets)

    y_pm = np.where(labels == 1, 1.0, -1.0)
    sw = np.where(labels == 1, hp.weight_positive, hp.weight_negative)
    w, b = _sgd_hinge(X, y_pm, sw, hp)

    parameters = {"weights": w.tolist(), "bias": b}
    if omegas is not None:
        parameters["rff_frequencies"] = omegas.tolist()
        parameters["rff_offsets"] = offsets.tolist()

    return parameters, {"mapped_dim": X.shape[1]}


def score(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    kernel = artifact.hyperparams["kernel"]
    if kernel == "poly":
        X = map_polynomial(X, artifact.hyperparams["degree"])
    elif kernel == "rbf":
        omegas = np.asarray(artifact.parameters["rff_frequencies"])
        offsets = np.asarray(artifact.parameters["rff_offsets"])
        X = map_rff(X, omegas, offsets)
    w = np.asarray(artifact.parameters["weights"])
    return sigmoid(X @ w + artifact.parameters["bias"])
