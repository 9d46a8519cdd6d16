"""Random forest of Gini decision trees, trained on bootstrap samples.

Trees are grown to purity unless a depth cap is set. Splits are scanned at
midpoints between consecutive distinct values of a per-node random feature
subset (floor(sqrt(d)) features), choosing the maximal Gini-impurity
decrease; ties keep the lowest feature index and threshold. Zero-decrease
splits are allowed so consistent training sets can always reach purity.
A tree holds each distinct (row, label) pair of the training data once,
weighted by the number of times its bootstrap sample drew it. The trees
are independent of each other, so they grow in lockstep, one node of
each tree per step (`trees.grow`); each tree's generator draws its
bootstrap sample, then its feature subsets in the tree's preorder, so
every tree comes out as if it had grown alone.
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


def grow_trees(X: np.ndarray, y: np.ndarray, rngs: list,
               max_depth: Optional[int], n_candidates: int,
               weights: Optional[np.ndarray] = None):
    """(trees, importances): one classification tree per generator of
    `rngs`, tree t on the rows of `X` weighted by weights[t] (default:
    every row once), and each tree's raw impurity-decrease importances,
    (len(rngs), d), weighted by node fraction. Each node is offered a
    fresh random feature subset drawn from its tree's generator, in the
    tree's preorder."""
    n, d = X.shape
    if weights is None:
        weights = np.ones((len(rngs), n), dtype=np.int64)
    n_root = weights.sum(axis=1)
    importances = np.zeros((len(rngs), d))
    k = min(n_candidates, d)

    def draw(trees_):
        return np.sort([rngs[t].choice(d, size=k, replace=False)
                        for t in trees_.tolist()], axis=1)

    def majority(tree, rows, starts):
        w = weights.ravel()[np.repeat(tree * n, np.diff(starts)) + rows]
        total = np.add.reduceat(w, starts[:-1])
        positives = np.add.reduceat(w * y[rows], starts[:-1])
        return (2 * positives >= total).astype(int).tolist()  # ties: botnet

    def on_split(tree, feature, weight, decrease):
        importances[tree, feature] += (weight / n_root[tree]) * decrease

    return trees.grow(trees.presort(X), y, trees.gini_decrease, max_depth,
                      majority, weights, draw, on_split), importances


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
    rngs = [np.random.default_rng(hp.seed + t) for t in range(hp.n_trees)]
    weights = np.array([
        np.bincount(pair_of[rng.integers(0, n, size=n)],
                    minlength=first.shape[0]) for rng in rngs])
    forest, importances = grow_trees(X, y, rngs, hp.max_depth, n_candidates,
                                     weights)
    importances = importances.sum(axis=0)
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
