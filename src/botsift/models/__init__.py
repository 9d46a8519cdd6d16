"""Model families behind a single train/predict contract.

`TRAINERS` maps family tags to (params class, trainer); `predict`
dispatches on the artifact's family tag and applies any stored
standardization or kernel map before scoring. A fit runs on one BLAS
thread; scoring uses numpy's default pool.
"""

from __future__ import annotations

import numpy as np

from ..windows import Dataset
from .base import (ARTIFACT_FORMAT_VERSION, ModelArtifact, load_artifact,
                   sigmoid)
from .blas import one_thread
from .boosting import BoostingParams, train_boosting, score_boosting
from .forest import ForestParams, train_random_forest, score_forest
from .logreg import LogRegParams, train_logreg, score_logreg
from .nn import NnParams, parameter_counts, train_nn, score_nn
from .svm import SvmParams, train_svm, score_svm

__all__ = [
    "ARTIFACT_FORMAT_VERSION", "ModelArtifact", "load_artifact",
    "BoostingParams", "ForestParams", "LogRegParams", "NnParams",
    "SvmParams", "TRAINERS", "train_model", "predict",
    "parameter_counts", "sigmoid",
]

TRAINERS = {
    "logreg": (LogRegParams, train_logreg),
    "svm": (SvmParams, train_svm),
    "rf": (ForestParams, train_random_forest),
    "gboost": (BoostingParams, train_boosting),
    "nn": (NnParams, train_nn),
}

_SCORERS = {
    "logreg": score_logreg,
    "svm": score_svm,
    "rf": score_forest,
    "gboost": score_boosting,
    "nn": score_nn,
}


def train_model(family: str, ds: Dataset, hp) -> ModelArtifact:
    if family not in TRAINERS:
        raise ValueError(f"unknown model family {family!r}")
    _, trainer = TRAINERS[family]
    with one_thread():
        return trainer(ds, hp)


def make_params(family: str, overrides: dict):
    """Params object for a family from a {name: value} mapping."""
    if family not in TRAINERS:
        raise ValueError(f"unknown model family {family!r}")
    cls, _ = TRAINERS[family]
    return cls(**overrides)


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
    scorer = _SCORERS.get(artifact.family)
    if scorer is None:
        raise ValueError(f"unknown model family {artifact.family!r}")
    scores = np.asarray(scorer(artifact, rows), dtype=float)
    labels = (scores >= 0.5).astype(int)
    return scores, labels
