"""The binary decision trees of the forest and boosting families.

This is the only module that knows the tree layout: a dict of parallel
per-node lists in preorder (node 0 is the root and a left child directly
follows its parent): `feature` (-1 at a leaf), `threshold` (a row goes
left when its feature value is <= it), `left` and `right` (-1 at a
leaf) and `value` (0 at an inner node).

`grow` grows a batch of trees in lockstep: all the trees of a forest,
which are independent of each other (Breiman 2001), or the one tree of a
boosting stage. Each step takes the next open node of every tree and
does the work of all of them in a few vectorized passes: the leaf
checks, the split scans and the partition of each split node's rows.
A tree's nodes are contiguous ranges of one array of row ids, each in
increasing row order. A scan needs a node's rows in the order of each
offered feature, as a stable sort of that node alone gives them. An
unweighted tree offered every feature (a boosting stage's) reads its
root's from the presort and each other node's from its parent's, split
(the presorted attribute lists of SLIQ, Mehta et al. 1996). A forest
tree reads its root's from the presort, less the rows of weight 0, and
sorts any other node's rows by their rank in each drawn feature. The
scans of a step go in groups of at most `SCAN_GROUP` (row, feature)
elements, or one node, which bounds their arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

FIELDS = ("feature", "threshold", "left", "right", "value")
SCAN_GROUP = 1 << 14


@dataclass
class Presorted:
    """`X` (n, d) as the grower reads it, the rest (d, n): `order[f]`
    lists the rows by ascending feature f, ties in increasing row order,
    and `rank[f, i]` is the position of row i in `order[f]`."""
    X: np.ndarray
    order: np.ndarray
    rank: np.ndarray

    @cached_property
    def values(self) -> np.ndarray:
        """Feature f in the order of `order[f]`, made when a root scan of
        an unweighted tree first reads it: once per boosting fit, never
        in a forest fit."""
        return np.take_along_axis(self.X.T, self.order, axis=1)

    @cached_property
    def rises(self) -> np.ndarray:
        """Where the next of `values` is larger."""
        rises = np.zeros(self.values.shape, dtype=bool)
        np.greater(self.values[:, 1:], self.values[:, :-1], out=rises[:, :-1])
        return rises


def presort(X: np.ndarray) -> Presorted:
    order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(X.shape[0]), axis=1)
    return Presorted(np.ascontiguousarray(X), order, rank)


class Scan(NamedTuple):
    """A scan group as `decrease` reads it: `ts` and `ws` (None when
    unweighted) hold the targets and weights of slot s at [starts[s],
    starts[s + 1]), the rows of a node in ascending order of one feature
    it is offered; each node has `k` adjacent slots, in the order of its
    features. `boundary` is set where the feature value rises at the next
    position of the slot: only there may a split fall."""
    ts: np.ndarray
    ws: np.ndarray | None
    starts: np.ndarray
    k: int
    boundary: np.ndarray


def gini_decrease(scan: Scan):
    """Best split of each node of `scan` under the Gini-impurity decrease
    of 0/1 labels with positive integer weights, a row of weight w
    counting as w copies: (position after which it falls, -1 for none;
    its decrease; node weight)."""
    counts = _cumsum0(scan.ws)
    positives = _cumsum0(scan.ts * scan.ws)
    at = scan.boundary.nonzero()[0]
    first, last = scan.starts[:-1], scan.starts[1:]
    # integer sums are exact, so a slot's sums are differences of these
    weight = counts[last] - counts[first]
    slot = np.arange(first.size).repeat(last - first)[at]
    n = weight[slot].astype(float)
    total_pos = (positives[last] - positives[first])[slot].astype(float)
    slot = first[slot]
    n_left = (counts[at + 1] - counts[slot]).astype(float)
    left_pos = (positives[at + 1] - positives[slot]).astype(float)
    del counts, positives, slot
    # parent - (n_left * gini_left + n_right * gini_right) / n, the parent
    # impurity 1 - p * p - (1 - p) * (1 - p) at p = total_pos / n
    gains = total_pos / n
    parent = gains * gains
    np.subtract(1.0, parent, out=parent)
    np.subtract(1.0, gains, out=gains)
    gains *= gains
    np.subtract(parent, gains, out=gains)
    del parent
    left = _gini(n_left, left_pos)
    left *= n_left
    n_left -= n
    np.negative(n_left, out=n_left)  # n_right
    np.subtract(total_pos, left_pos, out=left_pos)  # right_pos
    right = _gini(n_left, left_pos)
    right *= n_left
    left += right
    left /= n
    gains -= left
    # a node's splits are adjacent, by offered feature, then position,
    # and the first of its largest gains wins
    head = at.searchsorted(scan.starts[::scan.k])
    runs = head[1:] - head[:-1]
    has = runs.nonzero()[0]
    position = np.full(runs.size, -1)
    gain = np.zeros(runs.size)
    if has.size:
        best = np.maximum.reduceat(gains, head[has])
        hit = (gains == best.repeat(runs[has])).nonzero()[0]
        node = head.searchsorted(hit, side="right")
        hit = hit[np.concatenate(([True], node[1:] != node[:-1]))]
        position[has], gain[has] = at[hit], gains[hit]
    return position, gain, weight[::scan.k]


def sse_decrease(scan: Scan):
    """Best split of each node of `scan` under the sum-of-squared-error
    reduction: (position after which it falls, -1 for none; its
    decrease; node row count). Every row counts once: gboost, the only
    caller, never weights a row. Float sums depend on their order, so
    each node's (k, m) block is summed on its own, each slot from its
    first row, as a one-node scan did."""
    position, gain, size = [], [], []
    k = scan.k
    bounds = scan.starts[::k].tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        ts = scan.ts[a:b].reshape(k, -1)
        m = ts.shape[1]
        size.append(m)
        # the splits that fall at a boundary, by offered feature, then
        # position, in the layout of the (k, m - 1) gains
        at = np.flatnonzero(scan.boundary[a:b].reshape(k, m)[:, :-1])
        if not at.size:  # one row, or no offered feature varies
            position.append(-1)
            gain.append(0.0)
            continue
        n_left = np.arange(1.0, m)
        # parent - (sse_left + sse_right), with s1 and s2 the running sums
        # of ts and ts * ts, sse_left = l2 - l1 * l1 / n_left and
        # sse_right = (total2 - l2) - (total1 - l1) ** 2 / (m - n_left),
        # written into as few arrays as the operations need
        s1 = ts.cumsum(axis=1)
        s2 = ts * ts
        s2.cumsum(axis=1, out=s2)
        total1, total2 = s1[:, -1:], s2[:, -1:]
        l1, l2 = s1[:, :-1], s2[:, :-1]
        parent = total2 - total1 * total1 / m
        sse_left = l1 * l1
        sse_left /= n_left
        np.subtract(l2, sse_left, out=sse_left)
        gains = total1 - l1
        np.square(gains, out=gains)
        gains /= m - n_left
        np.subtract(total2, l2, out=l2)
        np.subtract(l2, gains, out=gains)
        gains += sse_left
        np.subtract(parent, gains, out=gains)
        # the first of the largest
        row, pos = divmod(int(at[gains.ravel()[at].argmax()]), m - 1)
        position.append(a + row * m + pos)
        gain.append(gains[row, pos])
    return np.array(position), np.array(gain), np.array(size)


def grow(presorted: Presorted, targets: np.ndarray, decrease, max_depth,
         leaf_values, weights: np.ndarray | None = None, draw=None,
         on_split=None) -> list:
    """One tree per row of `weights`, (T, n) nonnegative integers (None:
    one tree, every row once); tree t grows on the rows of positive
    weights[t], splitting under `decrease`.

    Every node is offered every feature, unless `draw(trees)` gives, for
    the next node of each listed tree, the features it offers: one row
    each, ascending, so that ties keep the feature offered first. A node
    is a leaf when it holds fewer than 2 rows, sits at `max_depth` (None:
    unbounded) or has constant targets, with no draw made for it, or when
    no offered feature varies on it. A split takes the largest decrease,
    the first offered feature and lowest position on ties, at the midpoint
    between two consecutive distinct values, or at the lower value where
    the midpoint does not lie below the upper one.

    With `draw`, a step takes the next node of every tree, in the tree's
    preorder, so each tree draws from its own stream in preorder whatever
    the other trees do. Without it, a step takes every open node.
    `on_split(tree, feature, weight, decrease)` sees the splits of each
    step, with each split node's total weight: with `draw`, each tree's
    splits in preorder. `leaf_values(tree, rows, starts)` gives the value
    of every leaf i at once, `rows[starts[i]:starts[i + 1]]` its rows in
    increasing order and `tree[i]` its tree."""
    n, d = presorted.X.shape
    # an unweighted tree offered every feature keeps the rows of each node
    # it scans in each feature's order, for the node's children
    attribute_lists = weights is None and draw is None
    if weights is None:
        rows, bounds, weights = np.arange(n), [0, n], (None, None)
    else:
        flat_w = weights.ravel()
        kept = flat_w > 0
        rows = kept.nonzero()[0]  # tree * n + row, tree by tree
        bounds = rows.searchsorted(np.arange(len(weights) + 1) * n).tolist()
        rows %= n
        weights = (flat_w, kept)
    n_trees = len(bounds) - 1
    # a node is (tree, first, end, depth, record): [first, end) is its
    # range of `rows`, and records number the nodes as they are made.
    # With attribute lists, `parents` holds the split of each node of the
    # last step, with its rows in each feature's order, by the records of
    # its children.
    stacks = [[(t, bounds[t], bounds[t + 1], 0, t)] for t in range(n_trees)]
    n_records, parents = n_trees, {}
    made, thresholds = [], []
    while True:
        if draw is None:
            nodes = [node for stack in stacks for node in stack]
            for stack in stacks:
                stack.clear()
        else:
            nodes = [stack.pop() for stack in stacks if stack]
        if not nodes:
            break
        tree, lo, hi, depth, record = np.array(nodes).T
        m = hi - lo
        leaf = m < 2
        if max_depth is not None:
            leaf |= depth >= max_depth
        check = (~leaf).nonzero()[0]
        if check.size:
            leaf[check[_constant(targets, rows, lo[check], m[check])]] = True

        feature = np.full(len(nodes), -1)
        threshold = np.zeros(len(nodes))
        left = np.full(len(nodes), -1)
        split = (~leaf).nonzero()[0]
        if split.size:
            offered = (np.arange(d)[None].repeat(split.size, axis=0)
                       if draw is None else draw(tree[split]))
            blocks = None
            if attribute_lists:
                blocks = [_child_rows(presorted.rank, *parents[r])
                          for r in record[split].tolist()
                          ] if depth.any() else [presorted.order]
            found, f, cut, gain, weight, n_left, below = _best_splits(
                presorted, rows, targets, weights, decrease, not depth.any(),
                tree[split], lo[split], m[split], offered, blocks)
            split = split[found]
            feature[split], threshold[split] = f, cut
            s_lo, s_m = lo[split], m[split]
            _partition(presorted.rank, rows, s_lo, s_m, n_left, f, below)
            left[split] = n_records + 2 * np.arange(split.size)
            n_records += 2 * split.size
            children = [v.tolist() for v in (tree[split], s_lo, s_lo + n_left,
                                             hi[split], depth[split] + 1,
                                             left[split])]
            for t, a, mid, b, dep, rec in zip(*children):
                # the left child is popped first: preorder
                stacks[t] += [(t, mid, b, dep, rec + 1), (t, a, mid, dep, rec)]
            if attribute_lists:
                parents = {}
                for i, rec, f_i, below_i in zip(found.tolist(), children[-1],
                                                f.tolist(), below.tolist()):
                    parent = [blocks[i], f_i, below_i, None]
                    parents[rec] = parent, True
                    parents[rec + 1] = parent, False
            if on_split is not None:
                on_split(tree[split], f, weight, gain)
        made.append(np.array([record, tree, lo, depth, feature, left]))
        thresholds.append(threshold)
    return _assemble(np.concatenate(made, axis=1), np.concatenate(thresholds),
                     n_trees, rows, leaf_values)


def _best_splits(presorted, rows, targets, weights, decrease, roots, tree,
                 lo, m, offered, blocks):
    """For the nodes (tree, lo, m), each offered the features of its row
    of `offered`: which of them split, and at which feature, threshold,
    decrease and node weight, how many rows go left and the rank in that
    feature of the last of them. `weights` are all trees' weights and
    which of them are positive, flat; `roots` says the nodes are roots.
    `blocks`, when not None, holds each node's rows in the order of each
    feature, (d, m), and each node is offered every feature. Nodes are
    scanned in groups of at most SCAN_GROUP (row, feature) elements, or
    one node."""
    cuts, total = [0], 0
    for c, size in enumerate((offered.shape[1] * m).tolist()):
        if total and total + size > SCAN_GROUP:
            cuts.append(c)
            total = 0
        total += size
    cuts.append(m.size)
    found = [_scan_group(presorted, rows, targets, weights, decrease, roots,
                         tree[a:b], lo[a:b], m[a:b], offered[a:b],
                         None if blocks is None else blocks[a:b])
             for a, b in zip(cuts[:-1], cuts[1:])]
    for first, group in zip(cuts, found):
        group[0] += first
    node, f, lower, upper, *rest = map(np.concatenate, zip(*found))
    return [node, f, np.array(list(map(_midpoint, lower.tolist(),
                                       upper.tolist()))), *rest]


def _midpoint(lower: float, upper: float) -> float:
    """The threshold between two consecutive distinct values."""
    threshold = (lower + upper) / 2.0
    # the midpoint rounded up to `upper`, or overflowed to +-inf or nan,
    # and would send every row to one side: a node that never shrinks.
    # scikit-learn's splitter falls back to `lower` too.
    return threshold if lower <= threshold < upper else lower


def _scan_group(presorted, rows, targets, weights, decrease, roots, tree, lo,
                m, offered, blocks):
    """`_best_splits` for one group of nodes, numbered within the group."""
    X, order, rank = (presorted.X.ravel(), presorted.order.ravel(),
                      presorted.rank.ravel())
    flat_w, kept = weights
    n = presorted.order.shape[1]
    k = offered.shape[1]
    feature = offered.ravel()
    size = m.repeat(k)  # of each slot
    starts = _cumsum0(size)
    boundary = None
    if blocks is not None:
        ids = np.concatenate(blocks, axis=None)
        if roots:  # every row of every feature, in the presort's order
            xs, boundary = presorted.values.ravel(), presorted.rises.ravel()
    elif roots:  # a root's slot is its feature's presort, less weight 0
        ids = presorted.order[feature]
        # np.compress is several times faster than a 2-d boolean index
        ids = ids.ravel().compress(
            kept.take(ids + (tree * n).repeat(k)[:, None]).ravel())
    else:
        ids = rows[(lo.repeat(k) - starts[:-1]).repeat(size)
                   + np.arange(starts[-1])]
        # sort each slot's rows by their rank in its feature: the keys of
        # slot s lie in [s * n, (s + 1) * n), so one sort keeps slots apart
        slot_base = np.arange(0, size.size * n, n).repeat(size)
        keys = np.add(rank[(feature * n).repeat(size) + ids], slot_base,
                      dtype=np.int32 if size.size * n < 2 ** 31 else np.int64,
                      casting="unsafe")
        keys.sort()
        keys -= slot_base
        del slot_base
        ids = order[(feature * n).repeat(size) + keys]
        del keys
    if boundary is None:
        at = ids * presorted.X.shape[1]
        at += feature.repeat(size)
        xs = X[at]
        del at
        boundary = np.empty(xs.shape, dtype=bool)
        np.greater(xs[1:], xs[:-1], out=boundary[:-1])
        boundary[starts[1:] - 1] = False  # no split between two slots
    ws = None if flat_w is None else flat_w[(tree * n).repeat(k * m) + ids]
    e, gain, weight = decrease(Scan(targets[ids], ws, starts, k, boundary))
    node = (e >= 0).nonzero()[0]
    e = e[node]
    s = node * k + (e - starts[node * k]) // m[node]
    f = feature[s]
    return [node, f, xs[e], xs[e + 1], gain[node], weight[node],
            e - starts[s] + 1, rank[f * n + ids[e]]]


def _gini(count: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """The Gini impurity of sides of `count` rows, `positive` of them
    botnet: 1 - ((positive / count) ** 2 + ((count - positive) / count)
    ** 2)."""
    share = positive / count
    np.square(share, out=share)
    other = count - positive
    other /= count
    np.square(other, out=other)
    share += other
    return np.subtract(1.0, share, out=share)


def _constant(targets, rows, lo, m) -> np.ndarray:
    """Which of the nodes [lo, lo + m) of `rows` have constant targets."""
    where, first = _spans(lo, m)
    t_node = targets[rows[where]]
    differs = np.empty(t_node.shape, dtype=bool)
    np.not_equal(t_node[1:], t_node[:-1], out=differs[1:])
    differs[first] = False
    return ~np.logical_or.reduceat(differs, first)


def _partition(rank, rows, lo, m, n_left, feature, below):
    """Stable partition of the nodes [lo, lo + m) of `rows`: the n_left
    rows that rank at most `below` in `feature` lead, each side in
    increasing order."""
    ids = rows[_spans(lo, m)[0]]
    goes_left = (rank.ravel()[(feature * rank.shape[1]).repeat(m) + ids]
                 <= below.repeat(m))
    rows[_spans(lo, n_left)[0]] = ids[goes_left]
    rows[_spans(lo + n_left, m - n_left)[0]] = ids[~goes_left]


def _child_rows(rank, parent, goes_left):
    """A child's rows in the order of each feature, from its parent's
    scanned rows and split: `parent` is [rows (d, m), feature, rank of
    the last left row, the side of each of the rows once known]."""
    rows, feature, below, left = parent
    if left is None:
        left = parent[3] = rank[feature][rows] <= below
    return rows.ravel().compress((left if goes_left else ~left).ravel()
                                 ).reshape(len(rows), -1)


def _assemble(made, thresholds, n_trees, rows, leaf_values) -> list:
    """The trees in the flat layout from the records of their nodes, a
    node's children numbered after it, its left child first."""
    record, tree, lo, depth, feature, left = made
    count = record.size
    by_record = np.empty(count, dtype=np.intp)
    by_record[record] = np.arange(count)
    tree, lo, depth, feature, left, thresholds = (
        v[by_record] for v in (tree, lo, depth, feature, left, thresholds))
    inner = left >= 0
    levels = [np.flatnonzero(inner & (depth == level))
              for level in range(int(depth.max()) + 1)]
    size = np.ones(count, dtype=np.intp)  # of each node's subtree
    for sel in reversed(levels):
        size[sel] += size[left[sel]] + size[left[sel] + 1]
    number = np.zeros(count, dtype=np.intp)  # in its tree's preorder
    for sel in levels:
        child = left[sel]
        number[child] = number[sel] + 1
        number[child + 1] = number[child] + size[child]
    base = np.cumsum(size[:n_trees]) - size[:n_trees]  # record t: root of t
    at = base[tree] + number
    out = {"feature": np.empty(count, dtype=np.intp),
           "threshold": np.empty(count),
           "left": np.full(count, -1, dtype=np.intp),
           "right": np.full(count, -1, dtype=np.intp),
           "value": np.zeros(count, dtype=object)}
    out["feature"][at] = feature
    out["threshold"][at] = thresholds
    out["left"][at[inner]] = number[left[inner]]
    out["right"][at[inner]] = number[left[inner] + 1]
    leaves = np.flatnonzero(~inner)
    leaves = leaves[np.argsort(lo[leaves])]  # their ranges tile `rows`
    out["value"][at[leaves]] = leaf_values(
        tree[leaves], rows, np.append(lo[leaves], rows.size))
    return [{key: out[key][a:a + s].tolist() for key in FIELDS}
            for a, s in zip(base.tolist(), size[:n_trees].tolist())]


def _cumsum0(a: np.ndarray) -> np.ndarray:
    """[0, a[0], a[0] + a[1], ...]."""
    out = np.zeros(a.size + 1, dtype=a.dtype)
    np.cumsum(a, out=out[1:])
    return out


def _spans(first: np.ndarray, length: np.ndarray):
    """(the ranges [first, first + length) one after another, where each
    starts in that array)."""
    starts = np.cumsum(length) - length
    return (np.repeat(first - starts, length) + np.arange(length.sum()),
            starts)


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


def check(tree: dict, n_features: int, name: str):
    """A ValueError naming `name` and the first node off the layout: an
    inner node's feature in [0, n_features), children above it (preorder:
    no cycle) and below the node count; a leaf's feature and children -1."""
    count = len(tree["feature"])
    if not count or any(len(tree[key]) != count for key in FIELDS):
        raise ValueError(f"{name}: per-node lists empty or of unequal lengths")
    for node, links in enumerate(zip(tree["feature"], tree["left"],
                                     tree["right"])):
        if not all(type(v) is int for v in links) or (
                links != (-1, -1, -1) and not (0 <= links[0] < n_features
                                               and node < min(links[1:])
                                               and max(links[1:]) < count)):
            raise ValueError(f"{name}, node {node}: feature, children {links}")


def predict(tree: dict, X: np.ndarray) -> np.ndarray:
    """Leaf value per row; each node splits the rows that reach it."""
    feature, threshold = tree["feature"], tree["threshold"]
    left, right, value = tree["left"], tree["right"], tree["value"]
    out = np.empty(X.shape[0], dtype=np.asarray(value).dtype)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        f = feature[node]
        if f < 0:
            out[rows] = value[node]
        elif rows.size:
            go_left = X[rows, f] <= threshold[node]
            stack += [(left[node], rows[go_left]),
                      (right[node], rows[~go_left])]
    return out
