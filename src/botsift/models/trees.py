"""The binary decision tree of the forest and boosting families.

This is the only module that knows the tree layout: a dict of parallel
per-node lists in preorder (node 0 is the root and a left child directly
follows its parent): `feature` (-1 at a leaf), `threshold` (a row goes
left when its feature value is <= it), `left` and `right` (-1 at a
leaf) and `value` (0 at an inner node).
"""

from __future__ import annotations

import numpy as np

FIELDS = ("feature", "threshold", "left", "right", "value")


def gini_decrease(ys: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Gini-impurity decrease of 0/1 labels `ys` (sorted by the feature)
    for a split after each position in `boundaries`."""
    n = ys.shape[0]
    total_pos = int(ys.sum())
    p = total_pos / n
    parent = 1.0 - p * p - (1.0 - p) * (1.0 - p)

    n_left = boundaries + 1
    left_pos = np.cumsum(ys)[boundaries]
    n_right = n - n_left
    right_pos = total_pos - left_pos

    gini_left = 1.0 - ((left_pos / n_left) ** 2
                       + ((n_left - left_pos) / n_left) ** 2)
    gini_right = 1.0 - ((right_pos / n_right) ** 2
                        + ((n_right - right_pos) / n_right) ** 2)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    return parent - weighted


def sse_decrease(ts: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Sum-of-squared-error reduction of targets `ts` (sorted by the
    feature) for a split after each position in `boundaries`."""
    n = ts.shape[0]
    s1 = np.cumsum(ts)
    s2 = np.cumsum(ts * ts)
    total1 = s1[-1]
    total2 = s2[-1]
    parent = total2 - total1 * total1 / n

    n_left = boundaries + 1
    l1 = s1[boundaries]
    l2 = s2[boundaries]
    n_right = n - n_left
    sse_left = l2 - l1 * l1 / n_left
    sse_right = (total2 - l2) - (total1 - l1) ** 2 / n_right
    return parent - (sse_left + sse_right)


def best_split(x: np.ndarray, t: np.ndarray, decrease):
    """(decrease, threshold) of the best midpoint between consecutive
    distinct values of one feature, ties keeping the lowest threshold;
    None when the feature is constant over the node."""
    # integer sums are exact in any tie order; float sums need the stable one
    order = np.argsort(x, kind="stable" if t.dtype.kind == "f" else None)
    xs = x[order]
    boundaries = np.nonzero(xs[1:] > xs[:-1])[0]  # split after position i
    if boundaries.size == 0:
        return None
    gains = decrease(t[order], boundaries)
    best = int(np.argmax(gains))
    pos = boundaries[best]
    threshold = (xs[pos] + xs[pos + 1]) / 2.0
    return float(gains[best]), float(threshold)


def grow(X: np.ndarray, targets: np.ndarray, decrease,
         max_depth: int | None, features, leaf_value,
         on_split=None) -> dict:
    """Grow one tree on the rows of `X`, splitting under `decrease`.

    A node is a leaf holding `leaf_value(idx)` when it has under 2 rows,
    sits at `max_depth` (None = unbounded), has constant targets, or no
    feature that `features()` then offers varies; ties keep the feature
    offered first. `on_split(idx, feature, decrease)` sees each split."""
    def split(node):
        idx, depth = node
        t_node = targets[idx]
        if (idx.shape[0] < 2 or (max_depth is not None and depth >= max_depth)
                or np.all(t_node == t_node[0])):
            return None
        best = None  # (decrease, feature, threshold)
        for f in features():
            found = best_split(X[idx, f], t_node, decrease)
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], int(f), found[1])
        if best is None:
            return None
        gain, feature, threshold = best
        if on_split is not None:
            on_split(idx, feature, gain)
        left = X[idx, feature] <= threshold
        return (feature, threshold,
                (idx[left], depth + 1), (idx[~left], depth + 1))

    return _preorder((np.arange(X.shape[0]), 0), split,
                     lambda node: leaf_value(node[0]))


def from_v1(root: dict) -> dict:
    """The tree of an artifact of format_version 1, which nested
    {"f", "t", "l", "r"} dicts down to {"leaf": value} dicts."""
    return _preorder(
        root,
        lambda node: None if "leaf" in node else (
            node["f"], node["t"], node["l"], node["r"]),
        lambda node: node["leaf"])


def _preorder(root, split, leaf_value) -> dict:
    """Flat tree below `root`, where `split(node)` gives (feature,
    threshold, left node, right node), or None at a leaf."""
    tree = {key: [] for key in FIELDS}
    stack = [(root, -1, "left")]
    while stack:
        node, parent, side = stack.pop()
        number = len(tree["feature"])
        if parent >= 0:
            tree[side][parent] = number
        found = split(node)
        if found is None:
            entry = (-1, 0.0, -1, -1, leaf_value(node))
        else:
            feature, threshold, left, right = found
            entry = (feature, threshold, -1, -1, 0)
            # the left child is popped first, so numbers run in preorder
            stack += [(right, number, "right"), (left, number, "left")]
        for key, value in zip(FIELDS, entry):
            tree[key].append(value)
    return tree


def predict(tree: dict, X: np.ndarray) -> np.ndarray:
    """Leaf value per row, moving all rows down one level per step."""
    feature = np.asarray(tree["feature"], dtype=np.intp)
    threshold = np.asarray(tree["threshold"], dtype=float)
    left = np.asarray(tree["left"], dtype=np.intp)
    right = np.asarray(tree["right"], dtype=np.intp)
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0])
    while rows.size:
        rows = rows[feature[node[rows]] >= 0]
        at = node[rows]
        go_left = X[rows, feature[at]] <= threshold[at]
        node[rows] = np.where(go_left, left[at], right[at])
    return np.asarray(tree["value"])[node]
