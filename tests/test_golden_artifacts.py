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

import json
from pathlib import Path

import numpy as np
import pytest

from botsift.evaluation import bootstrap_resample
from botsift.models import (BoostingParams, ForestParams, load_artifact,
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

# rf_x10_threads2 was saved by a forest that grew its trees on two
# threads; a single-threaded training must match it bit for bit too
GOLDEN_V2 = {
    "rf_x10": ("rf", ForestParams(n_trees=8, seed=11)),
    "rf_x10_threads2": ("rf", ForestParams(n_trees=8, seed=11)),
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
