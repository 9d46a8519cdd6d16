"""Random forest of Gini decision trees, trained on bootstrap samples.

Trees are grown to purity unless a depth cap is set. Splits are scanned at
midpoints between consecutive distinct values of a per-node random feature
subset (floor(sqrt(d)) features), choosing the maximal Gini-impurity
decrease; ties keep the lowest feature index and threshold. Zero-decrease
splits are allowed so consistent training sets can always reach purity.
A tree holds each distinct (row, label) pair of the training data once,
weighted by the number of times its bootstrap sample drew it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import Count, Seed, check
from . import trees
from .base import ModelArtifact


@dataclass
class ForestParams:
    n_trees: Count = 100
    max_depth: Optional[Count] = None  # None: unbounded
    seed: Seed = 42

    __post_init__ = check


def grow_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator,
              max_depth: Optional[int], n_candidates: int,
              importances: np.ndarray, weights: Optional[np.ndarray] = None,
              order: Optional[np.ndarray] = None) -> dict:
    """Grow one classification tree on a fresh random feature subset per
    node; accumulates raw impurity-decrease importances weighted by node
    fraction. `weights` and `order` are as in `trees.grow`."""
    d = X.shape[1]
    if weights is None:
        weights = np.ones(X.shape[0], dtype=np.int64)
    n_root = int(weights.sum())

    def features():
        return np.sort(rng.choice(d, size=min(n_candidates, d),
                                  replace=False))

    def leaf_value(idx):
        # majority class; ties predict botnet
        w = weights[idx]
        return 1 if int(y[idx] @ w) * 2 >= int(w.sum()) else 0

    def on_split(idx, feature, decrease):
        importances[feature] += (int(weights[idx].sum()) / n_root) * decrease

    return trees.grow(X, y, trees.gini_decrease, max_depth, features,
                      leaf_value, on_split, weights, order)


def distinct_pairs(X: np.ndarray, y: np.ndarray):
    """(first, pair_of): one row of each distinct (row, label) pair of
    float rows `X` and int labels `y`, and each row's index into `first`.
    Rows are compared bit for bit, one column at a time, after sorting
    by a hash of their bits, so no full copy of `X` is made; a hash
    collision can only leave copies of a pair in separate groups, which
    grows the same trees."""
    bits = np.ascontiguousarray(X).view(np.uint64)
    key = y.astype(np.uint64)
    for column in bits.T:
        key = key * np.uint64(0x9E3779B97F4A7C15) + column  # wraps
    order = np.argsort(key)
    same = np.ones(X.shape[0] - 1, dtype=bool)
    for column in (y, *bits.T):
        sorted_column = column[order]
        same &= sorted_column[1:] == sorted_column[:-1]
    starts = np.concatenate([[True], ~same])
    pair_of = np.empty(X.shape[0], dtype=np.intp)
    pair_of[order] = np.cumsum(starts) - 1
    return order[starts], pair_of


def fit(rows: np.ndarray, labels: np.ndarray, hp: ForestParams):
    n, d = rows.shape
    if n == 0:
        raise ValueError("cannot train a forest on an empty dataset")
    n_candidates = max(1, int(math.isqrt(d)))
    # identical (row, label) pairs always share a node, so each tree
    # grows on the distinct pairs, weighted by how often it drew them
    first, pair_of = distinct_pairs(rows, labels)
    X, y = rows[first], labels[first]
    order = trees.presort(X)

    def one_tree(t: int):
        rng = np.random.default_rng(hp.seed + t)
        sample = rng.integers(0, n, size=n)
        weights = np.bincount(pair_of[sample], minlength=first.shape[0])
        importances = np.zeros(d)
        tree = grow_tree(X, y, rng, hp.max_depth, n_candidates,
                         importances, weights, order)
        return tree, importances

    results = [one_tree(t) for t in range(hp.n_trees)]
    forest = [tree for tree, _ in results]
    importances = np.sum([imp for _, imp in results], axis=0)
    total = importances.sum()
    if total > 0:
        importances = importances / total

    return ({"trees": forest, "feature_importances": importances.tolist()},
            {"split_candidates": n_candidates})


def score(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    forest = artifact.parameters["trees"]
    votes = np.zeros(X.shape[0])
    for tree in forest:
        votes += trees.predict(tree, X)
    return votes / len(forest)
