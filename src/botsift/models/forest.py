"""Random forest of Gini decision trees, trained on bootstrap samples.

Trees are grown to purity unless a depth cap is set. Splits are scanned at
midpoints between consecutive distinct values of a per-node random feature
subset (floor(sqrt(d)) features), choosing the maximal Gini-impurity
decrease; ties keep the lowest feature index and threshold. Zero-decrease
splits are allowed so consistent training sets can always reach purity.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..windows import Dataset
from . import trees
from .base import ModelArtifact


@dataclass
class ForestParams:
    n_trees: int = 100
    max_depth: Optional[int] = None  # None = unbounded
    seed: int = 42

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")


def grow_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator,
              max_depth: Optional[int], n_candidates: int,
              importances: np.ndarray) -> dict:
    """Grow one classification tree on a fresh random feature subset per
    node; accumulates raw impurity-decrease importances weighted by node
    fraction."""
    n_root, d = X.shape

    def features():
        return np.sort(rng.choice(d, size=min(n_candidates, d),
                                  replace=False))

    def leaf_value(idx):
        # majority class; ties predict botnet
        return 1 if int(y[idx].sum()) * 2 >= idx.shape[0] else 0

    def on_split(idx, feature, decrease):
        importances[feature] += (idx.shape[0] / n_root) * decrease

    return trees.grow(X, y, trees.gini_decrease, max_depth, features,
                      leaf_value, on_split)


def train_random_forest(ds: Dataset, hp: ForestParams,
                        n_threads: int = 1) -> ModelArtifact:
    if ds.n == 0:
        raise ValueError("cannot train a forest on an empty dataset")
    X = ds.rows
    y = ds.labels
    n, d = X.shape
    n_candidates = max(1, int(math.isqrt(d)))

    def one_tree(t: int):
        rng = np.random.default_rng(hp.seed + t)
        sample = rng.integers(0, n, size=n)
        importances = np.zeros(d)
        tree = grow_tree(X[sample], y[sample], rng, hp.max_depth,
                         n_candidates, importances)
        return tree, importances

    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(one_tree, range(hp.n_trees)))
    else:
        results = [one_tree(t) for t in range(hp.n_trees)]

    forest = [tree for tree, _ in results]
    importances = np.sum([imp for _, imp in results], axis=0)
    total = importances.sum()
    if total > 0:
        importances = importances / total

    return ModelArtifact(
        family="rf",
        hyperparams={"n_trees": hp.n_trees, "max_depth": hp.max_depth,
                     "seed": hp.seed},
        feature_names=list(ds.feature_names),
        standardization=None,
        parameters={"trees": forest,
                    "feature_importances": importances.tolist()},
        metadata={"n_train": n, "split_candidates": n_candidates},
    )


def score_forest(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    forest = artifact.parameters["trees"]
    votes = np.zeros(X.shape[0])
    for tree in forest:
        votes += trees.predict(tree, X)
    return votes / len(forest)
