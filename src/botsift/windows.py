"""Overlapping time-window aggregation of flows into per-source feature rows.

Flows are binned by start time into windows of fixed width and stride,
grouped by source address inside each window, and each nonempty group
becomes one 22-feature row: a flow count, unique-value counts and
normalized entropies for the categorical columns (source port, destination
address, destination port), and sum/mean/std/max/median for the numeric
columns (duration, total bytes, source bytes).
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .flows import ABSENT, FlowRecord, FlowTable

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


@dataclass(frozen=True)
class WindowConfig:
    """Window width/stride in seconds; origin defaults to the earliest flow."""

    width: float = 120.0
    stride: float = 60.0
    origin: Optional[datetime] = None

    def __post_init__(self):
        if not (0 < self.stride <= self.width):
            raise ValueError(
                f"need 0 < stride <= width, got stride={self.stride} "
                f"width={self.width}")


@dataclass
class WindowGroup:
    """Flows of one source address inside one window."""

    window_index: int
    src_addr: str
    members: list


@dataclass
class FeatureRow:
    window_index: int
    src_addr: str
    label: Optional[int]
    features: np.ndarray


@dataclass
class Dataset:
    """Feature matrix with labels, feature names, and provenance metadata."""

    rows: np.ndarray
    labels: np.ndarray
    feature_names: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.rows.shape[0] != self.labels.shape[0]:
            raise ValueError("rows and labels must have equal length")
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.feature_names):
            raise ValueError("row width must match feature_names")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        meta = dict(self.meta)
        if "row_keys" in meta:
            meta["row_keys"] = [meta["row_keys"][i] for i in indices]
        return Dataset(self.rows[indices], self.labels[indices],
                       list(self.feature_names), meta)

    def select_features(self, names) -> "Dataset":
        idx = [self.feature_names.index(name) for name in names]
        # take() keeps the result C-ordered for any input layout, so
        # float reductions over it do not depend on how it was sliced
        return Dataset(self.rows.take(idx, axis=1), self.labels, list(names),
                       dict(self.meta))


def window_span_indices(t: float, cfg: WindowConfig) -> list:
    """All window indices k >= 0 with k*stride <= t < k*stride + width."""
    k_max = math.floor(t / cfg.stride)
    k_min = math.floor((t - cfg.width) / cfg.stride) + 1
    # Widen by one and re-check so float rounding in the division can never
    # disagree with the interval definition.
    lo = max(0, k_min - 1)
    return [k for k in range(lo, k_max + 2)
            if k * cfg.stride <= t < k * cfg.stride + cfg.width]


def resolve_origin(table: FlowTable, cfg: WindowConfig) -> datetime:
    if cfg.origin is not None:
        return cfg.origin
    if not table.records:
        raise ValueError("cannot derive a window origin from an empty table")
    return min(r.start_time for r in table.records)


def normalized_entropy(category_counts: Iterable[int]) -> float:
    """Shannon entropy of a count multiset scaled to [0, 1] by log(m).

    m is the number of distinct categories; a single category yields 0.
    """
    counts = list(category_counts)
    if not counts:
        raise ValueError("normalized_entropy needs at least one category")
    if any(c <= 0 for c in counts):
        raise ValueError("category counts must be positive")
    m = len(counts)
    if m == 1:
        return 0.0
    total = sum(counts)
    entropy = -sum((c / total) * math.log(c / total) for c in counts)
    # the ratio is bounded by [0, 1] mathematically; uniform counts can
    # land one ulp above 1 in float arithmetic
    return min(entropy / math.log(m), 1.0)


def _numeric_block(values: np.ndarray) -> tuple:
    return (
        float(values.sum()),
        float(values.mean()),
        float(values.std()),
        float(values.max()),
        float(np.median(values)),
    )


def _categorical_counts(members, attr: str) -> Counter:
    return Counter(getattr(r, attr) or ABSENT for r in members)


def extract_features(group: WindowGroup) -> FeatureRow:
    """The 22-feature vector of one window group (label left unset)."""
    members = group.members
    if not members:
        raise ValueError("cannot extract features from an empty group")

    sport = _categorical_counts(members, "sport")
    dst = _categorical_counts(members, "dst_addr")
    dport = _categorical_counts(members, "dport")

    dur = np.fromiter((r.dur for r in members), float, len(members))
    tot_bytes = np.fromiter((r.tot_bytes for r in members), float, len(members))
    src_bytes = np.fromiter((r.src_bytes for r in members), float, len(members))

    features = np.array(
        (float(len(members)), float(len(sport)), float(len(dst)),
         float(len(dport)))
        + _numeric_block(dur)
        + _numeric_block(tot_bytes)
        + _numeric_block(src_bytes)
        + (normalized_entropy(sport.values()),
           normalized_entropy(dst.values()),
           normalized_entropy(dport.values())),
        dtype=float,
    )
    return FeatureRow(group.window_index, group.src_addr, None, features)


def label_group(group: WindowGroup) -> int:
    """1 iff any member flow carries the botnet marker in its label."""
    return int(any(BOTNET_MARKER in r.label for r in group.members))


def build_dataset(table: FlowTable, cfg: WindowConfig,
                  scenario: str = None) -> Dataset:
    """One labeled feature row per nonempty (window, source address) pair.

    Rows are ordered by window index, then source address, so output is
    deterministic regardless of grouping order.
    """
    if not table.records:
        raise ValueError("cannot build a dataset from an empty table")
    origin = resolve_origin(table, cfg)

    groups = defaultdict(list)
    for record in table.records:
        t = (record.start_time - origin).total_seconds()
        for k in window_span_indices(t, cfg):
            groups[(k, record.src_addr)].append(record)

    keys = sorted(groups)
    rows = np.empty((len(keys), len(FEATURE_NAMES)), dtype=float)
    labels = np.empty(len(keys), dtype=int)
    for i, key in enumerate(keys):
        group = WindowGroup(key[0], key[1], groups[key])
        rows[i] = extract_features(group).features
        labels[i] = label_group(group)

    meta = {
        "scenario": scenario or table.source_path,
        "window": {"width": cfg.width, "stride": cfg.stride,
                   "origin": origin.isoformat()},
        "row_keys": keys,
    }
    return Dataset(rows, labels, list(FEATURE_NAMES), meta)


def write_features(ds: Dataset, path):
    """Feature CSV: window_index,src_addr,label,<feature columns>,
    preceded by a '# scenario=' comment when the dataset is named."""
    keys = ds.meta.get("row_keys") or [(i, "?") for i in range(ds.n)]
    with Path(path).open("w", newline="") as handle:
        if ds.meta.get("scenario"):
            handle.write(f"# scenario={ds.meta['scenario']}\n")
        writer = csv.writer(handle)
        writer.writerow(["window_index", "src_addr", "label",
                         *ds.feature_names])
        for (window_index, src_addr), label, row in zip(keys, ds.labels,
                                                        ds.rows):
            writer.writerow([window_index, src_addr, int(label),
                             * ("%.12g" % v for v in row)])


def load_features(path) -> Dataset:
    """Read a feature CSV written by write_features. A row whose cell
    count differs from the header's, or whose features are not all
    finite numbers, is a ValueError naming its line."""
    path = Path(path)
    scenario = None
    header_lines = 1
    with path.open(newline="") as handle:
        first = handle.readline()
        if first.startswith("# scenario="):
            scenario = first[len("# scenario="):].rstrip("\n")
            first = handle.readline()
            header_lines += 1
        header = next(csv.reader([first]))
        if header[:3] != ["window_index", "src_addr", "label"]:
            raise ValueError(f"{path}: not a feature CSV")
        names = header[3:]
        keys, labels, rows, lines = [], [], [], []
        reader = csv.reader(handle)
        for row in reader:
            if not row:
                continue
            lines.append(header_lines + reader.line_num)
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells, the header has "
                                     f"{len(header)}")
                keys.append((int(row[0]), row[1]))
                labels.append(int(row[2]))
                rows.append([float(v) for v in row[3:]])
            except ValueError as exc:
                raise ValueError(f"{path} line {lines[-1]}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    rows = np.array(rows)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        bad = lines[int(np.argmin(finite))]
        raise ValueError(f"{path} line {bad}: non-finite feature value")
    meta = {"scenario": scenario, "row_keys": keys}
    return Dataset(rows, np.array(labels), names, meta)
