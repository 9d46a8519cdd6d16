"""Class-weighted logistic regression fit by Newton's method with step
halving (IRLS, ESL §4.4.1).

The objective is mean weighted binary cross-entropy plus an L2 penalty
``||w||^2 / (2C)`` on the weights (bias unpenalized). Each step solves
the (d+1)×(d+1) Hessian system in θ = (w, b) by least squares, which
stays defined where the Hessian is singular (C = inf with a constant
feature), and is halved until the Armijo condition holds, since a full
step can overshoot on separable rows. It fits and scores standardized
rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ..config import Seed, check
from .base import ModelArtifact, sigmoid, softplus

logger = logging.getLogger(__name__)


@dataclass
class LogRegParams:
    c: Annotated[float, "(0, inf]"] = 550.0
    weight_negative: Annotated[float, "(0, inf]"] = 0.044
    weight_positive: Annotated[float, "(0, inf]"] = 1.0
    max_iter: Annotated[int, "[0, inf)"] = 500  # Newton steps
    tol: Annotated[float, "[0, inf]"] = 1e-6    # bound on |gradient|
    seed: Seed = 42

    __post_init__ = check


def fit(X: np.ndarray, labels: np.ndarray, hp: LogRegParams):
    y = labels.astype(float)
    sw = np.where(labels == 1, hp.weight_positive, hp.weight_negative)
    n, d = X.shape
    A = np.column_stack([X, np.ones(n)])
    penalty = np.append(np.full(d, 1.0 / hp.c), 0.0)

    def loss_at(theta):  # log(1+e^z) - y*z is finite for any margin z
        z = A @ theta
        loss = np.sum(sw * (softplus(z) - y * z)) / n
        return float(loss + theta @ (penalty * theta) / 2.0), z

    theta = np.zeros(d + 1)
    loss, z = loss_at(theta)
    for iterations in range(hp.max_iter + 1):
        p = sigmoid(z)
        grad = A.T @ (sw * (p - y)) / n + penalty * theta
        grad_norm = float(np.sqrt(grad @ grad))
        if grad_norm < hp.tol or iterations == hp.max_iter:
            break
        # einsum, not a BLAS product, so the bits do not depend on the
        # BLAS thread count
        curvature = (sw * p * (1.0 - p))[:, None]
        hessian = (np.einsum("ni,nj->ij", A * curvature, A) / n
                   + np.diag(penalty))
        newton = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        slope = float(grad @ newton)
        step = 1.0
        for _ in range(50):
            loss_new, z_new = loss_at(theta - step * newton)
            if loss_new <= loss - 1e-4 * step * slope:
                break
            step /= 2.0
        else:
            break
        theta = theta - step * newton
        loss, z = loss_new, z_new

    converged = grad_norm < hp.tol
    if not converged:
        logger.warning("logreg did not reach the gradient tolerance in %d "
                       "iterations (|g|=%.3g)", iterations, grad_norm)

    return ({"weights": theta[:d].tolist(), "bias": float(theta[d])},
            {"iterations": iterations, "converged": converged,
             "final_loss": loss})


def score(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    w = np.asarray(artifact.parameters["weights"])
    return sigmoid(X @ w + artifact.parameters["bias"])
