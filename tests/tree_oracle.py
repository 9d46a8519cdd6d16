"""Reference tree growing for tests: one node of one tree at a time.

This is the straightforward version of `botsift.models.trees.grow`: a
tree grows node by node in preorder, each node scans a presorted
(offered features, rows) block with `best_split`, and `grow_tree` grows
one forest tree with its own random feature subsets. The program's
lockstep grower must give the same trees and, for forests, the same
importances bit for bit.
"""

import numpy as np

FIELDS = ("feature", "threshold", "left", "right", "value")


def gini_decrease(ys: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Gini-impurity decrease of 0/1 labels `ys` with integer
    multiplicities `ws`, both (k, m) and each row sorted by one feature,
    for a split after each of the first m - 1 positions of every row."""
    # integer sums, exact in float64 and cheaper to divide there
    counts = np.cumsum(ws, axis=1, dtype=float)
    positives = np.cumsum(ys * ws, axis=1, dtype=float)
    # every row holds the same rows, so the totals are shared
    n = float(counts[0, -1])
    total_pos = float(positives[0, -1])
    p = total_pos / n
    parent = 1.0 - p * p - (1.0 - p) * (1.0 - p)

    n_left = counts[:, :-1]
    left_pos = positives[:, :-1]
    n_right = n - n_left
    right_pos = total_pos - left_pos

    gini_left = 1.0 - ((left_pos / n_left) ** 2
                       + ((n_left - left_pos) / n_left) ** 2)
    gini_right = 1.0 - ((right_pos / n_right) ** 2
                        + ((n_right - right_pos) / n_right) ** 2)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    return parent - weighted


def sse_decrease(ts: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Sum-of-squared-error reduction of targets `ts`, (k, m) with each
    row sorted by one feature, for a split after each of the first m - 1
    positions of every row. Every row counts once: gboost, the only
    caller, never weights a row, so `ws` goes unread."""
    m = ts.shape[1]
    n_left = np.arange(1.0, m)
    s1 = np.cumsum(ts, axis=1)
    s2 = np.cumsum(ts * ts, axis=1)
    total1, total2 = s1[:, -1:], s2[:, -1:]
    l1, l2 = s1[:, :-1], s2[:, :-1]
    parent = total2 - total1 * total1 / m
    sse_left = l2 - l1 * l1 / n_left
    sse_right = (total2 - l2) - (total1 - l1) ** 2 / (m - n_left)
    return parent - (sse_left + sse_right)


def best_split(xs: np.ndarray, ts: np.ndarray, ws: np.ndarray, decrease):
    """(decrease, threshold, row) of the best split of a (k, m) block
    whose rows each hold one feature's values `xs` in ascending order,
    with the targets `ts` and positive integer weights `ws` of the same
    rows in the same order. Thresholds are midpoints between consecutive
    distinct values, or the lower value where the midpoint does not lie
    below the upper one; ties keep the lowest block row, then the lowest
    threshold. None when every row of `xs` is constant."""
    boundary = xs[:, 1:] > xs[:, :-1]  # split after position i
    if not boundary.any():
        return None
    gains = np.where(boundary, decrease(ts, ws), -np.inf)
    row, pos = divmod(int(np.argmax(gains)), gains.shape[1])
    lower, upper = float(xs[row, pos]), float(xs[row, pos + 1])
    threshold = (lower + upper) / 2.0
    if not lower <= threshold < upper:
        # the midpoint rounded up to `upper`, or overflowed to +-inf or
        # nan, and would send every row to one side: a node that never
        # shrinks. scikit-learn's splitter falls back to `lower` too.
        threshold = lower
    return float(gains[row, pos]), threshold, row


def presort(X: np.ndarray) -> np.ndarray:
    """(d + 1, n) row ids: row f lists the rows of `X` by ascending
    feature f, ties in increasing row order; the last row lists them in
    increasing order."""
    order = np.empty((X.shape[1] + 1, X.shape[0]), dtype=np.intp)
    order[:-1] = np.argsort(X, axis=0, kind="stable").T
    order[-1] = np.arange(X.shape[0])
    return order


def grow(X: np.ndarray, targets: np.ndarray, decrease,
         max_depth: int | None, features, leaf_value,
         on_split=None, weights: np.ndarray | None = None,
         order: np.ndarray | None = None) -> dict:
    """Grow one tree on the rows of `X` that have a positive integer
    weight (default: every row, weight 1), splitting under `decrease`,
    which reads a row of weight w as w copies (`gini_decrease` does).

    `order` is `presort(X)`, which callers that grow many trees on one
    `X` compute once. It is split down the tree without sorting again,
    so every node scans its rows in the order of a stable sort of that
    node alone. A node is a leaf holding `leaf_value(idx)`, idx its rows
    in increasing order, when it holds fewer than 2 rows, sits at
    `max_depth` (None = unbounded), has constant targets, or no feature
    that `features()` then offers varies; ties keep the feature offered
    first. `on_split(idx, feature, decrease)` sees each split."""
    if weights is None:
        weights = np.ones(X.shape[0], dtype=np.int64)
    if order is None:
        order = presort(X)
    member = np.zeros(X.shape[0], dtype=bool)

    def cut(rows):
        """The columns of `rows` whose row ids are set in `member`."""
        # np.compress is several times faster than a boolean index here
        return np.compress(member.take(rows).ravel(), rows).reshape(
            rows.shape[0], -1)

    # A node is (a presorted block that holds its rows, which ids of the
    # block's last row are its own, depth). Only a node that splits cuts
    # its own block out of that one, and only when that at least halves
    # it; a larger node cuts just the rows it scans and passes the block
    # on. Leaves cut nothing, and no node scans a block over twice its
    # size.
    def split(node):
        base, mine, depth = node
        idx = np.compress(mine, base[-1])
        t_node = targets[idx]
        if (idx.shape[0] < 2
                or (max_depth is not None and depth >= max_depth)
                or np.all(t_node == t_node[0])):
            return None
        offered = np.asarray(features(), dtype=np.intp)
        if idx.shape[0] < base.shape[1]:
            member[base[-1]] = mine
            if 2 * idx.shape[0] <= base.shape[1]:
                base, mine = cut(base), np.ones(idx.shape[0], dtype=bool)
        block = base[offered]
        if idx.shape[0] < base.shape[1]:
            block = cut(block)
        xs = X[block, offered[:, None]]
        found = best_split(xs, targets[block], weights[block], decrease)
        if found is None:
            return None
        gain, threshold, k = found
        feature = int(offered[k])
        if on_split is not None:
            on_split(idx, feature, gain)
        # the rows with x <= threshold lead the sorted row of the feature
        n_left = int(np.count_nonzero(xs[k] <= threshold))
        member[base[-1]] = False
        member[block[k, :n_left]] = True
        left = member.take(base[-1])
        return (feature, threshold, (base, left, depth + 1),
                (base, mine & ~left, depth + 1))

    return _preorder((order, weights.take(order[-1]) > 0, 0), split,
                     lambda node: leaf_value(np.compress(node[1],
                                                         node[0][-1])))


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


def grow_tree(X, y, rng, max_depth, n_candidates, importances, weights=None,
              order=None) -> dict:
    """Grow one classification tree on a fresh random feature subset per
    node; accumulates raw impurity-decrease importances weighted by node
    fraction. `weights` and `order` are as in `grow`."""
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

    return grow(X, y, gini_decrease, max_depth, features, leaf_value,
                on_split, weights, order)
