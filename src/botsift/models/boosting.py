"""Gradient boosting with depth-limited regression trees.

Each stage fits a least-squares tree to the negative gradient of the
chosen loss (binomial deviance or exponential), then replaces every
leaf value with that loss's per-leaf line-search step. Stage updates
are scaled by the learning rate. Training loss is recorded after every
stage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..windows import Dataset
from . import trees
from .base import ModelArtifact, check_both_classes, sigmoid, softplus


@dataclass
class BoostingParams:
    loss: str = "exponential"  # exponential | deviance
    n_trees: int = 100
    max_depth: int = 4
    learning_rate: float = 0.1
    seed: int = 42

    def __post_init__(self):
        if self.loss not in ("exponential", "deviance"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


def train_boosting(ds: Dataset, hp: BoostingParams) -> ModelArtifact:
    check_both_classes(ds.labels, "gboost")
    X = ds.rows
    y = ds.labels.astype(float)
    y_pm = 2.0 * y - 1.0
    n, d = X.shape
    p0 = float(y.mean())

    if hp.loss == "deviance":
        f0 = float(np.log(p0 / (1.0 - p0)))
    else:
        f0 = 0.5 * float(np.log(p0 / (1.0 - p0)))
    F = np.full(n, f0)

    def training_loss() -> float:
        if hp.loss == "deviance":
            return float(np.mean(softplus(F) - y * F))
        return float(np.mean(np.exp(np.clip(-y_pm * F, -50, 50))))

    stage_losses = [training_loss()]
    stages = []
    order = trees.presort(X)  # X is the same for every stage
    for _ in range(hp.n_trees):
        if hp.loss == "deviance":
            p = sigmoid(F)
            residual, hessian = y - p, p * (1.0 - p)
        else:
            w = np.exp(np.clip(-y_pm * F, -50, 50))
            residual, hessian = y_pm * w, w

        def leaf_value(idx):
            denom = float(np.sum(hessian[idx]))
            return float(np.sum(residual[idx])) / max(denom, 1e-12)

        tree = trees.grow(X, residual, trees.sse_decrease, hp.max_depth,
                          lambda: range(d), leaf_value, order=order)
        stages.append(tree)
        F = F + hp.learning_rate * trees.predict(tree, X)
        stage_losses.append(training_loss())

    return ModelArtifact(
        family="gboost",
        hyperparams=asdict(hp),
        feature_names=list(ds.feature_names),
        standardization=None,
        parameters={"f0": f0, "trees": stages},
        metadata={"n_train": n, "stage_losses": stage_losses},
    )


def score_boosting(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    F = np.full(X.shape[0], artifact.parameters["f0"])
    lr = artifact.hyperparams["learning_rate"]
    for tree in artifact.parameters["trees"]:
        F += lr * trees.predict(tree, X)
    if artifact.hyperparams["loss"] == "deviance":
        return sigmoid(F)
    return sigmoid(2.0 * F)
