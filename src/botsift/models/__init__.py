"""Model families behind a single train/predict contract.

`FAMILIES` maps each family tag to its params class, its `fit` and
`score`, whether its rows are standardized, whether it needs both
classes and whether its score of a row is independent of the other rows
scored with it. `train_model` and `predict` do the shared work around
them: the class check, the standardization, the artifact envelope. A
family's `fit(X, labels, hp)` returns (parameters, metadata) and its
`score(artifact, X)` scores rows that are already standardized. A fit
runs on one BLAS thread; scoring uses numpy's default pool.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from ..config import build
from ..windows import Dataset
from . import boosting, forest, logreg, nn, svm
from .base import (ARTIFACT_FORMAT_VERSION, ModelArtifact, apply_standardizer,
                   fit_standardizer, load_artifact)
from .blas import one_thread
from .boosting import BoostingParams
from .forest import ForestParams
from .logreg import LogRegParams
from .nn import NnParams
from .svm import SvmParams

__all__ = [
    "ARTIFACT_FORMAT_VERSION", "ModelArtifact", "load_artifact",
    "BoostingParams", "ForestParams", "LogRegParams", "NnParams",
    "SvmParams", "FAMILIES", "train_model", "predict",
]


class Family(NamedTuple):
    params: type
    fit: Callable
    score: Callable
    standardized: bool
    needs_both_classes: bool
    per_row: bool


# logreg, svm and nn score with BLAS products, which add in an order that
# depends on the number of rows scored
FAMILIES = {
    "logreg": Family(LogRegParams, logreg.fit, logreg.score, True, True,
                     False),
    "svm": Family(SvmParams, svm.fit, svm.score, True, True, False),
    "rf": Family(ForestParams, forest.fit, forest.score, False, False, True),
    "gboost": Family(BoostingParams, boosting.fit, boosting.score, False,
                     True, True),
    "nn": Family(NnParams, nn.fit, nn.score, True, True, False),
}


def _family(tag: str) -> Family:
    if tag not in FAMILIES:
        raise ValueError(f"unknown model family {tag!r}")
    return FAMILIES[tag]


def train_model(family: str, ds: Dataset, hp) -> ModelArtifact:
    fam = _family(family)
    if fam.needs_both_classes:
        present = np.unique(ds.labels)
        if not (0 in present and 1 in present):
            raise ValueError(f"{family} training needs both classes, "
                             f"found labels {present}")
    std = fit_standardizer(ds.rows) if fam.standardized else None
    with one_thread():
        parameters, metadata = fam.fit(apply_standardizer(ds.rows, std),
                                       ds.labels, hp)
    return ModelArtifact(
        family=family,
        hyperparams=asdict(hp),
        feature_names=list(ds.feature_names),
        standardization=std,
        parameters=parameters,
        metadata={"n_train": ds.n, **metadata},
    )


def make_params(family: str, overrides: dict):
    """Params object for a family from a {name: value} mapping."""
    return build(_family(family).params, overrides)


def predict(artifact: ModelArtifact, rows: np.ndarray):
    """(scores, labels) for a trained artifact; labels use threshold
    0.5 with the tie predicted as botnet."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D array")
    expected = len(artifact.feature_names)
    if rows.shape[1] != expected:
        raise ValueError(
            f"row width {rows.shape[1]} does not match the model's "
            f"{expected} features")
    score = _family(artifact.family).score
    X = apply_standardizer(rows, artifact.standardization)
    scores = np.asarray(score(artifact, X), dtype=float)
    labels = (scores >= 0.5).astype(int)
    return scores, labels
