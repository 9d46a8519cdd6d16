"""Golden artifacts: tree models saved at artifact format_version 1 must
load into exactly the model a fresh training run produces today.

The files under tests/data/ were written by `train_model(...).save(...)`
at format_version 1 on `golden_dataset()` with the hyperparameters in
`GOLDEN`. Loading converts their nested trees to the current layout, so
every parameter, every metadata field and every score must match a fresh
run bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

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


def golden_dataset():
    rng = np.random.default_rng(2020)
    X = np.round(rng.normal(size=(60, 4)), 1)  # duplicates force ties
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.4 * rng.normal(size=60) > 0)
    return Dataset(X, y.astype(int), ["a", "b", "c", "d"])


def probe_rows(ds):
    rng = np.random.default_rng(7)
    return np.vstack([ds.rows, np.round(rng.normal(size=(40, 4)), 2)])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_v1_artifact_equals_fresh_training(name):
    family, hp = GOLDEN[name]
    ds = golden_dataset()
    path = DATA / f"golden_v1_{name}.json"
    assert '"format_version": 1' in path.read_text()

    old = load_artifact(path)
    fresh = train_model(family, ds, hp)
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
