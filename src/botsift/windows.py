"""Overlapping time-window aggregation of flows into per-source feature rows.

Flows are binned by start time into windows of fixed width and stride,
grouped by source address inside each window, and each nonempty group
becomes one 22-feature row: a flow count, unique-value counts and
normalized entropies for the categorical columns (source port, destination
address, destination port), and sum/mean/std/max/median for the numeric
columns (duration, total bytes, source bytes).

`write_features` and `load_features` write and read those rows as CSV;
the loader reads through `flows.read_csv`, as captures are read, and
decodes a chunk one column at a time with the one number rule, `_numbers`.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import KW_ONLY, dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Annotated, Iterable, Optional

import numpy as np

from .config import check
from .flows import (CHUNK_ROWS, FlowTable, _UNREADABLE, _is_utf8, _numbers,
                    read_csv)

FEATURE_NAMES = (
    "counts",
    "Sport_nunique", "DstAddr_nunique", "Dport_nunique",
    "Dur_sum", "Dur_mean", "Dur_std", "Dur_max", "Dur_median",
    "TotBytes_sum", "TotBytes_mean", "TotBytes_std", "TotBytes_max",
    "TotBytes_median",
    "SrcBytes_sum", "SrcBytes_mean", "SrcBytes_std", "SrcBytes_max",
    "SrcBytes_median",
    "Sport_RU", "DstAddr_RU", "Dport_RU",
)

BOTNET_MARKER = "Botnet"

# a feature row's (window index, source address)
KEY = np.dtype([("window", np.int64), ("source", object)])


@dataclass(frozen=True)
class WindowConfig:
    """Window width/stride in seconds; window 0 starts at the earliest
    flow."""

    width: float = 120.0
    stride: Annotated[float, "(0, inf)"] = 60.0

    def __post_init__(self):
        check(self)
        if self.stride > self.width:
            raise ValueError(f"stride {self.stride} > width {self.width}")


@dataclass
class Dataset:
    """Feature rows, labels and names; optional scenario name and KEYs."""

    rows: np.ndarray
    labels: np.ndarray
    feature_names: list
    _: KW_ONLY
    scenario: Optional[str] = None
    keys: Optional[np.ndarray] = None

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.rows.shape[0] != len(self.labels) or (
                self.keys is not None and len(self.keys) != len(self.labels)):
            raise ValueError("rows, labels and keys must have equal length")
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.feature_names):
            raise ValueError("row width must match feature_names")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return replace(self, rows=self.rows[idx], labels=self.labels[idx],
                       keys=None if self.keys is None else self.keys[idx])

    def select_features(self, names) -> "Dataset":
        idx = [self.feature_names.index(name) for name in names]
        # take() keeps the result C-ordered for any input layout, so
        # float reductions over it do not depend on how it was sliced
        return replace(self, rows=self.rows.take(idx, axis=1),
                       feature_names=list(names))


def window_spans(t: np.ndarray, cfg: WindowConfig) -> tuple:
    """(flow positions, window indices) of all pairs with k >= 0 and
    k*stride <= t[i] < k*stride + width. Candidates reach one window past
    each end the divisions give, so their rounding can never drop one;
    the interval test decides. Memory grows with the pairs emitted."""
    first = np.maximum(np.floor((t - cfg.width) / cfg.stride), 0)
    offsets = range(int(np.max(np.floor(t / cfg.stride) + 1 - first,
                               initial=0)) + 1)

    def inside(offset):
        start = (first + offset) * cfg.stride
        return (start <= t) & (t < start + cfg.width)

    # count first, so that the two results are the only arrays as long as
    # the pair count
    total = sum(int(np.count_nonzero(inside(o))) for o in offsets)
    flows, windows = np.empty(total, np.int32), np.empty(total, np.int64)
    end = 0
    for offset in offsets:
        hit = np.flatnonzero(inside(offset))
        flows[end:end + len(hit)] = hit
        windows[end:end + len(hit)] = first[hit] + offset
        end += len(hit)
    return flows, windows


def botnet_flows(table: FlowTable) -> np.ndarray:
    """Per flow, whether its label holds BOTNET_MARKER."""
    labels = table.label
    return np.array([BOTNET_MARKER in v for v in labels.values],
                    bool)[labels.codes]


def normalized_entropy(category_counts: Iterable[int]) -> float:
    """Shannon entropy of a count multiset scaled to [0, 1] by log(m), m
    the number of distinct categories; a single category yields 0."""
    counts = list(category_counts)
    if not counts or min(counts) <= 0:
        raise ValueError("normalized_entropy needs positive counts")
    return float(_normalized_entropies(np.array([counts]))[0])


def _normalized_entropies(counts: np.ndarray) -> np.ndarray:
    """normalized_entropy of each row of a (groups, k) count matrix, its
    rows zero-padded at the right. A term p * log(p) uses `math.log`, not
    `np.log`, which can differ in the last bit; `cumsum` adds a row's terms
    strictly left to right, the padding adding nothing, as a loop would."""
    m = np.count_nonzero(counts, axis=1)
    multi = np.flatnonzero(m > 1)  # one category has entropy 0
    counts, out = counts[multi], np.zeros(len(counts))
    present = counts > 0
    terms = counts / counts.sum(axis=1, keepdims=True)
    p, inverse = np.unique(terms[present], return_inverse=True)
    terms[present] = (p * [math.log(v) for v in p.tolist()])[inverse]
    # uniform counts can land one ulp above 1 in float arithmetic
    out[multi] = np.minimum(-np.cumsum(terms, axis=1)[:, -1] / [
        math.log(k) for k in m[multi].tolist()], 1.0)
    return out


def _category_features(block: np.ndarray) -> tuple:
    """Distinct-value count and normalized entropy of each row of a
    (groups, size) block of category codes, members in file order.

    A stable sort of each row puts each category's first member at the
    head of its run; ordering the runs by that member gives the counts in
    order of first appearance, the order in which the entropy adds them.
    """
    order = np.argsort(block, axis=1, kind="stable")
    ranked = np.take_along_axis(block, order, axis=1)
    head = np.ones(block.shape, dtype=bool)
    head[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    heads = np.flatnonzero(head)  # each row opens a run: none spans rows
    first = heads - heads % block.shape[1] + order.ravel()[heads]
    nunique = head.sum(axis=1)
    counts = np.zeros((len(block), nunique.max()), dtype=np.int64)
    counts[np.arange(counts.shape[1]) < nunique[:, None]] = np.diff(
        heads, append=block.size)[np.argsort(first)]
    return nunique, _normalized_entropies(counts)


def build_dataset(table: FlowTable, cfg: WindowConfig,
                  scenario: str = None) -> Dataset:
    """One labeled feature row per nonempty (window, source address) pair,
    ordered by window, then source, each group's flows in file order.
    Groups of one size are stacked into a (groups, size) block and reduced
    along its rows, which gives the bits of reducing each group alone."""
    if not len(table):
        raise ValueError("cannot build a dataset from an empty table")
    flow, window = window_spans(table.offsets(), cfg)
    src_names, src = table.src_addr.values, table.src_addr.codes
    # one int per (window, source) pair, in the pairs' order
    key = window * len(src_names) + src[flow]
    del window, src
    order = np.lexsort((flow, key))
    flow, key = flow[order], key[order]
    del order
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    key, sizes = key[starts], np.diff(starts, append=len(flow))

    # One flow attribute is extracted at a time, and each bucket's block
    # is gathered from it when needed, so that the working set stays small
    # next to the feature matrix.
    rows = np.empty((len(starts), len(FEATURE_NAMES)))
    rows[:, 0] = sizes
    by_size = np.argsort(sizes, kind="stable")
    cuts = np.flatnonzero(np.diff(sizes[by_size])) + 1
    buckets = np.split(by_size, cuts) if len(starts) else []

    def blocks(column):
        for bucket in buckets:
            members = starts[bucket, None] + np.arange(sizes[bucket[0]])
            yield bucket, column[flow[members]]

    labels = np.zeros(len(starts), dtype=bool)
    for bucket, block in blocks(botnet_flows(table)):
        labels[bucket] = block.any(axis=1)
    for i, attr in enumerate(("sport", "dst_addr", "dport")):
        for bucket, block in blocks(getattr(table, attr).codes):
            rows[bucket, 1 + i], rows[bucket, 19 + i] = _category_features(
                block)
    for col, attr in zip((4, 9, 14), ("dur", "tot_bytes", "src_bytes")):
        for bucket, block in blocks(getattr(table, attr)):
            for j, reduce in enumerate((np.sum, np.mean, np.std, np.max,
                                        np.median)):
                rows[bucket, col + j] = reduce(block, axis=1)
    del flow, starts, by_size, buckets

    keys = np.empty(len(key), KEY)
    keys["window"], sources = np.divmod(key, len(src_names))
    keys["source"] = np.array(src_names, object)[sources]
    return Dataset(rows, labels, list(FEATURE_NAMES),
                   scenario=scenario or table.source_path, keys=keys)


def write_features(ds: Dataset, path):
    """Feature CSV: window_index,src_addr,label,<feature columns>,
    preceded by a '# scenario=' comment when the dataset is named, in
    the csv module's bytes, each feature `%.12g`. A distinct value (by
    its bits: -0.0 stays "-0") is formatted once, a source quoted once.
    Text with no UTF-8 encoding is refused before the file is opened."""
    if ds.scenario and ("\n" in ds.scenario or "\r" in ds.scenario):
        raise ValueError(f"scenario {ds.scenario!r} holds a line break")
    keys = (ds.keys.tolist() if ds.keys is not None
            else [(i, "?") for i in range(ds.n)])
    labels = ds.labels.tolist()
    quoted = {s: _csv_cell(s) for s in dict.fromkeys(s for _, s in keys)}
    if not _is_utf8((ds.scenario or "") + "".join(quoted)):
        bad = next(t for t in (ds.scenario, *quoted) if not _is_utf8(t or ""))
        raise ValueError(f"scenario or source {bad!r} is not UTF-8 text")
    bits, where = np.unique(ds.rows.ravel().view(np.uint64),
                            return_inverse=True)
    cells = np.array([",%.12g" % v for v in bits.view(float).tolist()],
                     dtype=object)
    where = where.reshape(ds.rows.shape)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        if ds.scenario:
            handle.write(f"# scenario={ds.scenario}\n")
        csv.writer(handle).writerow(["window_index", "src_addr", "label",
                                     *ds.feature_names])
        for at in range(0, ds.n, CHUNK_ROWS):
            rows = zip(keys[at:at + CHUNK_ROWS], labels[at:at + CHUNK_ROWS],
                       cells[where[at:at + CHUNK_ROWS]].tolist())
            handle.write("".join(f"{w},{quoted[s]},{label}{''.join(row)}\r\n"
                                 for (w, s), label, row in rows))


def _csv_cell(text: str) -> str:
    """text as the csv module writes it between two cells of a row."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(("", text, ""))
    return buffer.getvalue()[1:-3]


def load_features(path) -> Dataset:
    """Read a feature CSV written by write_features, through read_csv. A
    header without the key columns and a feature column, a file with no
    rows, or a row `_fault` refuses is a ValueError naming the row's line."""
    chunks = read_csv(path)
    scenario, header = next(chunks)
    if header[:3] != ["window_index", "src_addr", "label"] or len(
            header) == 3:
        raise ValueError(f"{path}: not a feature CSV (the header needs "
                         "window_index,src_addr,label,<features>)")
    if not _is_utf8((scenario or "") + "".join(header)):
        line = 1 + (scenario is not None and _is_utf8(scenario))
        raise ValueError(f"{path} line {line}: bytes that are not UTF-8")
    parts = [_decode_rows(chunk, len(header), path) for chunk in chunks]
    if not any(len(keys) for keys, _, _ in parts):
        raise ValueError(f"{path}: no feature rows")
    keys, labels, values = (np.concatenate(c) for c in zip(*parts))
    # rows in C order, as a per-row reader gives them: float reductions
    # over a matrix can depend on its layout
    return Dataset(np.ascontiguousarray(values), labels, header[3:], keys=keys,
                   scenario=scenario)


def _decode_rows(rows, width: int, path) -> tuple:
    """(keys, labels, features) of a chunk of read_csv; a blank line is no
    row. The first row `_fault` refuses is a ValueError naming its line."""
    widths = np.fromiter(map(len, rows), np.intp, len(rows))
    whole = np.flatnonzero(widths == width)
    cells = list(zip(*map(rows.__getitem__, whole.tolist()))) or [()] * width
    ints, unread = _numbers(cells[0] + cells[2], int)
    window, label = np.array(ints, object).reshape(2, -1)
    values, refused = _numbers(list(chain.from_iterable(cells[3:])), float)
    values = np.array(values, float).reshape(width - 3, -1).T
    faulty = (widths > 0) & (widths != width)
    faulty[whole] = (unread.reshape(2, -1).any(axis=0)
                     | refused.reshape(width - 3, -1).any(axis=0)
                     | (window < -2**63) | (window >= 2**63)
                     | (label != 0) & (label != 1)
                     | ~np.isfinite(values).all(axis=1))
    # a source is the only cell not UTF-8 that no other check refuses
    if not _is_utf8("".join(cells[1])):
        faulty[whole] |= ~np.fromiter(map(_is_utf8, cells[1]), bool)
    if faulty.any():
        i = int(np.argmax(faulty))
        raise ValueError(f"{path} line {rows.line_of(i)}: "
                         f"{_fault(rows[i], width)}")
    keys = np.empty(len(whole), KEY)
    keys["window"], keys["source"] = window.astype(np.int64), cells[1]
    return keys, label.astype(np.int64), values


def _fault(row: list, width: int) -> str:
    """The first check a row fails, in the order of README "Feature files":
    bytes that are not UTF-8, a cell longer than csv.field_size_limit(), a
    cell count, a number cell, the window's int64 range, the label, a
    non-finite feature."""
    if not _is_utf8("".join(row)):
        return "bytes that are not UTF-8"
    if row is _UNREADABLE:
        return "a cell longer than csv.field_size_limit()"
    if len(row) != width:
        return f"{len(row)} cells, the header has {width}"
    (window, label), unread = _numbers(row[:3:2], int)
    refused = np.r_[unread, _numbers(row[3:], float)[1]]
    if refused.any():
        return f"{(row[:1] + row[2:])[np.argmax(refused)]!r} is not a number"
    if not -2**63 <= window < 2**63:
        return f"window index {row[0]} is not an int64"
    if label not in (0, 1):
        return f"label {row[2]} is not 0 or 1"
    return "non-finite feature value"
