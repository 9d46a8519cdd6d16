"""Shared model-artifact plumbing: containers, standardization, JSON I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ..config import read_json_object
from . import trees

ARTIFACT_FORMAT_VERSION = 2
# the tags of `models.FAMILIES`, which this module cannot import
FAMILY_TAGS = ("logreg", "svm", "rf", "gboost", "nn")


@dataclass
class ModelArtifact:
    """A trained model: family tag, hyperparameters, learned parameters.

    Serializes to a self-describing JSON document; numbers keep full double
    precision so save -> load -> predict is exact.
    """

    family: str
    hyperparams: dict
    feature_names: list
    standardization: Optional[dict]  # {"mean": [...], "std": [...]} or None
    parameters: dict
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "family": self.family,
            "hyperparams": jsonable(self.hyperparams),
            "feature_names": list(self.feature_names),
            "standardization": jsonable(self.standardization),
            "parameters": jsonable(self.parameters),
            "metadata": jsonable(self.metadata),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def save(self, path):
        Path(path).write_text(self.to_json(), encoding="utf-8")


def load_artifact(path) -> ModelArtifact:
    doc = read_json_object(path)
    for name in ("format_version", "family", "hyperparams", "feature_names",
                 "standardization", "parameters"):
        if name not in doc:
            raise ValueError(f"{path}: artifact has no {name} field")
    version = doc["format_version"]
    if type(version) is not int or version not in (1, ARTIFACT_FORMAT_VERSION):
        raise ValueError(f"{path}: unsupported artifact format_version: "
                         f"{version}")
    if doc["family"] not in FAMILY_TAGS:
        raise ValueError(f"{path}: unknown model family in field family: "
                         f"{doc['family']!r}")
    if doc["family"] in ("rf", "gboost"):
        parameters = doc["parameters"]
        if not (isinstance(parameters, dict)
                and isinstance(parameters.get("trees"), list)):
            raise ValueError(f"{path}: {doc['family']} artifact has no "
                             "parameters.trees list")
        forest = parameters["trees"]
        if version == 1:  # version 1 stored each tree as nested dicts
            forest[:] = map(trees.from_v1, forest)
        for i, tree in enumerate(forest):
            trees.check(tree, len(doc["feature_names"]), f"{path}: tree {i}")
    return ModelArtifact(
        family=doc["family"],
        hyperparams=doc["hyperparams"],
        feature_names=doc["feature_names"],
        standardization=doc["standardization"],
        parameters=doc["parameters"],
        metadata=doc.get("metadata", {}),
    )


def jsonable(obj):
    """obj with numpy arrays and scalars as lists and Python numbers."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def fit_standardizer(X: np.ndarray) -> dict:
    """Per-feature mean/std (population); constant features keep std 1."""
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    return {"mean": mean.tolist(), "std": std.tolist()}


def apply_standardizer(X: np.ndarray,
                       standardization: Optional[dict]) -> np.ndarray:
    if standardization is None:
        return X
    mean = np.asarray(standardization["mean"], dtype=float)
    std = np.asarray(standardization["std"], dtype=float)
    return (X - mean) / std


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z), computed stably: no exp overflows for any z."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
