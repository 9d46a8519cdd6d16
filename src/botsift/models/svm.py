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
from typing import Annotated, Literal

import numpy as np

from ..config import Count, Seed, check
from .base import ModelArtifact, sigmoid


@dataclass
class SvmParams:
    kernel: Literal["linear", "poly", "rbf"] = "linear"
    degree: int = 2
    gamma: float = 0.03567
    rff_dim: int = 512
    alpha: Annotated[float, "[0, inf]"] = 1e-9
    penalty: Literal["l1", "l2", "elasticnet"] = "l2"
    l1_ratio: Annotated[float, "[0, 1]"] = 0.15
    epochs: Count = 20
    eta0: Annotated[float, "(0, inf]"] = 0.1
    weight_negative: Annotated[float, "(0, inf]"] = 1.0
    weight_positive: Annotated[float, "(0, inf]"] = 1.0
    seed: Seed = 42

    def __post_init__(self):
        check(self)
        if self.kernel == "poly" and self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.kernel == "rbf" and not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if self.kernel == "rbf" and (self.rff_dim < 2 or self.rff_dim % 2):
            raise ValueError("rff_dim must be an even number >= 2")

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
