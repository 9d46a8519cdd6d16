"""Class-weighted logistic regression trained by full-batch gradient
descent with Armijo backtracking line search.

The objective is mean weighted binary cross-entropy plus an L2 penalty
``||w||^2 / (2C)`` on the weights (bias unpenalized). Features are
standardized before optimization and the transform is stored in the
artifact.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from ..windows import Dataset
from .base import (ModelArtifact, apply_standardizer, check_both_classes,
                   fit_standardizer, sigmoid, softplus)

logger = logging.getLogger(__name__)


@dataclass
class LogRegParams:
    c: float = 550.0
    weight_negative: float = 0.044
    weight_positive: float = 1.0
    max_iter: int = 500
    tol: float = 1e-6
    seed: int = 42

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be > 0")
        if self.weight_negative <= 0 or self.weight_positive <= 0:
            raise ValueError("class weights must be > 0")


def _loss_grad(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray,
               sw: np.ndarray, c: float):
    """Weighted BCE + L2, with gradient. Uses log(1+e^z) - y*z which is
    finite for any margin."""
    z = X @ w + b
    n = X.shape[0]
    loss = float(np.sum(sw * (softplus(z) - y * z)) / n)
    loss += float(w @ w) / (2.0 * c)

    p = sigmoid(z)
    residual = sw * (p - y)
    grad_w = X.T @ residual / n + w / c
    grad_b = float(np.sum(residual) / n)
    return loss, grad_w, grad_b


def train_logreg(ds: Dataset, hp: LogRegParams) -> ModelArtifact:
    check_both_classes(ds.labels, "logreg")
    std = fit_standardizer(ds.rows)
    X = apply_standardizer(ds.rows, std)
    y = ds.labels.astype(float)
    sw = np.where(ds.labels == 1, hp.weight_positive, hp.weight_negative)

    d = X.shape[1]
    w = np.zeros(d)
    b = 0.0
    converged = False
    iterations = 0

    loss, grad_w, grad_b = _loss_grad(w, b, X, y, sw, hp.c)
    for it in range(hp.max_iter):
        iterations = it + 1
        grad_norm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
        if grad_norm < hp.tol:
            converged = True
            iterations = it
            break

        # backtracking: halve the step until the Armijo condition holds
        step = 1.0
        slope = grad_w @ grad_w + grad_b * grad_b
        accepted = False
        for _ in range(50):
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            loss_new, gw_new, gb_new = _loss_grad(w_new, b_new, X, y, sw,
                                                  hp.c)
            if loss_new <= loss - 1e-4 * step * slope:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            break
        w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
    else:
        grad_norm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
        converged = grad_norm < hp.tol

    if not converged:
        logger.warning("logreg did not reach the gradient tolerance in %d "
                       "iterations (|g|=%.3g)", hp.max_iter, grad_norm)

    return ModelArtifact(
        family="logreg",
        hyperparams=asdict(hp),
        feature_names=list(ds.feature_names),
        standardization=std,
        parameters={"weights": w.tolist(), "bias": b},
        metadata={"n_train": ds.n, "iterations": iterations,
                  "converged": converged, "final_loss": loss},
    )


def score_logreg(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    Xs = apply_standardizer(X, artifact.standardization)
    w = np.asarray(artifact.parameters["weights"])
    b = artifact.parameters["bias"]
    return sigmoid(Xs @ w + b)
