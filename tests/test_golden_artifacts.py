"""Golden artifacts: tree models saved by earlier code must load into
exactly the model a fresh training run produces today.

The files under tests/data/ were written by `train_model(...).save(...)`:
golden_v1_* at format_version 1 on `golden_dataset()` with the
hyperparameters in `GOLDEN`, golden_v2_* at format_version 2, before
splits were scanned on presorted, weighted rows, on a x10
`bootstrap_resample` of `conflict_dataset()` with those in `GOLDEN_V2`.
Loading converts nested v1 trees to the current layout, so every
parameter, every metadata field and every score must match a fresh run
bit for bit.
"""

import hashlib
import json
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from botsift.evaluation import bootstrap_resample
from botsift.models import (FAMILIES, BoostingParams, ForestParams,
                            LogRegParams, NnParams, SvmParams, load_artifact,
                            predict, train_model)
from botsift.windows import Dataset

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "rf": ("rf", ForestParams(n_trees=8, seed=11)),
    "gboost_exponential": ("gboost", BoostingParams(
        loss="exponential", n_trees=10, max_depth=3)),
    "gboost_deviance": ("gboost", BoostingParams(
        loss="deviance", n_trees=10, max_depth=3)),
}

GOLDEN_V2 = {
    "rf_x10": ("rf", ForestParams(n_trees=8, seed=11)),
    "gboost_exponential_x10": ("gboost", BoostingParams(
        loss="exponential", n_trees=10, max_depth=3)),
    "gboost_deviance_x10": ("gboost", BoostingParams(
        loss="deviance", n_trees=10, max_depth=3)),
}


def golden_dataset():
    rng = np.random.default_rng(2020)
    X = np.round(rng.normal(size=(60, 4)), 1)  # duplicates force ties
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.4 * rng.normal(size=60) > 0)
    return Dataset(X, y.astype(int), ["a", "b", "c", "d"])


def conflict_dataset():
    """60 rows: 48 drawn ones, 8 of them repeated with the other label
    and 4 repeated with the same label."""
    rng = np.random.default_rng(2021)
    X = np.round(rng.normal(size=(48, 4)), 1)
    y = (X[:, 0] - 0.5 * X[:, 2] + 0.4 * rng.normal(size=48) > 0)
    y = y.astype(int)
    X = np.vstack([X, X[:8], X[10:14]])
    y = np.concatenate([y, 1 - y[:8], y[10:14]])
    return Dataset(X, y, ["a", "b", "c", "d"])


def bootstrapped_dataset():
    return bootstrap_resample(conflict_dataset(), 10, seed=5)


def probe_rows(ds):
    rng = np.random.default_rng(7)
    return np.vstack([ds.rows, np.round(rng.normal(size=(40, 4)), 2)])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_v1_artifact_equals_fresh_training(name):
    family, hp = GOLDEN[name]
    ds = golden_dataset()
    path = DATA / f"golden_v1_{name}.json"
    assert '"format_version": 1' in path.read_text()
    assert_same_model(load_artifact(path), train_model(family, ds, hp), ds)


@pytest.mark.parametrize("name", sorted(GOLDEN_V2))
def test_v2_artifact_equals_fresh_training(name):
    family, hp = GOLDEN_V2[name]
    ds = bootstrapped_dataset()
    path = DATA / f"golden_v2_{name}.json"
    assert json.loads(path.read_text())["format_version"] == 2
    assert_same_model(load_artifact(path), train_model(family, ds, hp), ds)


def test_conflict_dataset_repeats_rows_with_both_labels():
    ds = conflict_dataset()
    rows = [tuple(row) for row in ds.rows]
    assert len(set(rows)) == 48
    assert len(set(zip(rows, ds.labels))) == 56


def assert_same_model(old, fresh, ds):
    assert old.family == fresh.family
    assert old.hyperparams == fresh.hyperparams
    assert old.feature_names == fresh.feature_names
    assert sorted(old.parameters) == sorted(fresh.parameters)
    for key in fresh.parameters:
        assert old.parameters[key] == fresh.parameters[key], key
    assert sorted(old.metadata) == sorted(fresh.metadata)
    for key in fresh.metadata:
        assert old.metadata[key] == fresh.metadata[key], key

    rows = probe_rows(ds)
    old_scores, _ = predict(old, rows)
    fresh_scores, _ = predict(fresh, rows)
    assert old_scores.tobytes() == fresh_scores.tobytes()


def test_unknown_format_version_is_rejected(tmp_path):
    doc = json.loads((DATA / "golden_v1_rf.json").read_text())
    doc["format_version"] = 3
    path = tmp_path / "rf.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version"):
        load_artifact(path)


# a value other than the default in every field of each family's params
NON_DEFAULT = {
    "logreg": LogRegParams(c=2.0, weight_negative=0.5, weight_positive=2.0,
                           max_iter=7, tol=1e-3, seed=3),
    "svm": SvmParams(kernel="poly", degree=3, gamma=0.5, rff_dim=64,
                     alpha=1e-6, penalty="elasticnet", l1_ratio=0.3,
                     epochs=2, eta0=0.05, weight_negative=0.5,
                     weight_positive=2.0, seed=3),
    "rf": ForestParams(n_trees=3, max_depth=2, seed=3),
    "gboost": BoostingParams(loss="deviance", n_trees=3, max_depth=2,
                             learning_rate=0.3, seed=3),
    "nn": NnParams(hidden=(6, 4), learning_rate=0.05, momentum=0.5,
                   epochs=2, batch_size=16, bn_momentum=0.2, bn_eps=1e-4,
                   seed=3),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_artifact_records_every_hyperparameter(family, tmp_path):
    hp = NON_DEFAULT[family]
    default = type(hp)()
    for f in fields(hp):
        assert getattr(hp, f.name) != getattr(default, f.name), f.name
    path = tmp_path / "model.json"
    train_model(family, golden_dataset(), hp).save(path)
    # compared as JSON stores them: a tuple reads back as a list
    expected = json.loads(json.dumps(asdict(hp)))
    assert load_artifact(path).hyperparams == expected


# sha256 of each artifact's JSON, taken before the envelope moved into
# train_model; the golden files above pin the rf and gboost artifacts
PINNED = {
    "logreg": (
        "logreg", NON_DEFAULT["logreg"],
        "09c53404f4578a7ee0f88df79da2c38e74df7a45bfafbcd22e2619418adff1ee"),
    "svm_linear": (
        "svm", replace(NON_DEFAULT["svm"], kernel="linear"),
        "580dfc71d3478268c7b040157c231c5cae343292a225b7274af638eed717866d"),
    "svm_poly": (
        "svm", NON_DEFAULT["svm"],
        "755eedf4e7194ec1e3cbc138e3fb8d2150bafa9e54f3155c5ebf015664ebe3de"),
    "svm_rbf": (
        "svm", replace(NON_DEFAULT["svm"], kernel="rbf"),
        "11c7c89d9c2bfe56528fea9aabc6520b26ba97c185cd07042a9f09431786daa6"),
    "nn": (
        "nn", NON_DEFAULT["nn"],
        "6c0d2064f6d6cf92bbcce282d2f36277c6a5fab0054dfadff6ab8000b607f57e"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_artifact_bytes_are_pinned(name):
    family, hp, digest = PINNED[name]
    doc = train_model(family, golden_dataset(), hp).to_json()
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
