"""Gradient boosting with depth-limited regression trees.

Each stage fits a least-squares tree to the negative gradient of the
chosen loss (binomial deviance or exponential), then replaces every
leaf value with that loss's per-leaf line-search step. Stage updates
are scaled by the learning rate. Training loss is recorded after every
stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from ..config import Count, Seed, check
from . import trees
from .base import ModelArtifact, sigmoid, softplus


@dataclass
class BoostingParams:
    loss: Literal["exponential", "deviance"] = "exponential"
    n_trees: Count = 100
    max_depth: Count = 4
    learning_rate: Annotated[float, "(0, inf]"] = 0.1
    seed: Seed = 42

    __post_init__ = check


def fit(X: np.ndarray, labels: np.ndarray, hp: BoostingParams):
    y = labels.astype(float)
    y_pm = 2.0 * y - 1.0
    n = X.shape[0]
    p0 = float(y.mean())
    # the exponential loss's margin F is half the log-odds: see `score`
    f0 = float(np.log(p0 / (1.0 - p0))) / (1.0 if hp.loss == "deviance"
                                          else 2.0)
    F = np.full(n, f0)
    stage_losses, stages = [], []
    presorted = trees.presort(X)  # X is the same for every stage
    while True:
        # the loss, its negative gradient and its hessian at the margins F
        if hp.loss == "deviance":
            p = sigmoid(F)
            loss = np.mean(softplus(F) - y * F)
            residual, hessian = y - p, p * (1.0 - p)
        else:
            w = np.exp(np.clip(-y_pm * F, -50, 50))
            loss = np.mean(w)
            residual, hessian = y_pm * w, w
        stage_losses.append(float(loss))
        if len(stages) == hp.n_trees:
            break

        def line_search(tree, rows, starts):
            values = []
            for a, b in zip(starts[:-1].tolist(), starts[1:].tolist()):
                denom = float(np.sum(hessian[rows[a:b]]))
                values.append(float(np.sum(residual[rows[a:b]]))
                              / max(denom, 1e-12))
            return values

        tree, = trees.grow(presorted, residual, trees.sse_decrease,
                           hp.max_depth, line_search)
        stages.append(tree)
        F = F + hp.learning_rate * trees.predict(tree, X)

    return {"f0": f0, "trees": stages}, {"stage_losses": stage_losses}


def score(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    F = np.full(X.shape[0], artifact.parameters["f0"])
    lr = artifact.hyperparams["learning_rate"]
    for tree in artifact.parameters["trees"]:
        F += lr * trees.predict(tree, X)
    link = 1.0 if artifact.hyperparams["loss"] == "deviance" else 2.0
    return sigmoid(link * F)
