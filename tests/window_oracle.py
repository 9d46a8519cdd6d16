"""Reference windowing for tests: one (window, source) group at a time.

This is the straightforward version of `botsift.windows.build_dataset`:
each flow is placed in its windows by the interval definition, grouped
in a dict, and every group is reduced with its own numpy and `Counter`
calls, its entropies with a scalar loop. Flows are read back from the
table's columns as FlowRecords, and their offsets from the earliest
start come from datetime arithmetic. The program's size-bucketed path
must reproduce it bit for bit. `write_features` is the per-row writer
that the program's chunked one must reproduce byte for byte, and
`load_features` the per-row reader whose datasets the program's
columnar one must reproduce.
"""

import csv
import math
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import flow_oracle
from botsift.flows import ABSENT, _is_number_text
from botsift.windows import BOTNET_MARKER, FEATURE_NAMES, KEY, Dataset


def window_span_indices(t: float, cfg) -> list:
    """All window indices k >= 0 with k*stride <= t < k*stride + width."""
    k_max = math.floor(t / cfg.stride)
    k_min = math.floor((t - cfg.width) / cfg.stride) + 1
    lo = max(0, k_min - 1)
    return [k for k in range(lo, k_max + 2)
            if k * cfg.stride <= t < k * cfg.stride + cfg.width]


def normalized_entropy(counts) -> float:
    """Entropy of a list of positive counts over log(m), each term
    subtracted in turn, left to right."""
    m = len(counts)
    if m == 1:
        return 0.0
    total = sum(counts)
    entropy = 0.0
    for c in counts:
        entropy -= (c / total) * math.log(c / total)
    return min(entropy / math.log(m), 1.0)


def _numeric_block(values: np.ndarray) -> tuple:
    return (float(values.sum()), float(values.mean()), float(values.std()),
            float(values.max()), float(np.median(values)))


def extract_features(members: list) -> np.ndarray:
    """The 22-feature vector of one group's flows, in file order."""
    cats = [Counter(getattr(r, attr) or ABSENT for r in members)
            for attr in ("sport", "dst_addr", "dport")]
    nums = [np.fromiter((getattr(r, attr) for r in members), float,
                        len(members))
            for attr in ("dur", "tot_bytes", "src_bytes")]
    return np.array(
        (float(len(members)),) + tuple(float(len(c)) for c in cats)
        + sum((_numeric_block(v) for v in nums), ())
        + tuple(normalized_entropy(list(c.values())) for c in cats),
        dtype=float)


def label_group(members: list) -> int:
    """1 iff any member flow carries the botnet marker in its label."""
    return int(any(BOTNET_MARKER in r.label for r in members))


def build_dataset(table, cfg, scenario=None) -> Dataset:
    records = flow_oracle.records(table)
    origin = min(record.start_time for record in records)
    groups = defaultdict(list)
    for record in records:
        t = (record.start_time - origin).total_seconds()
        for k in window_span_indices(t, cfg):
            groups[(k, record.src_addr)].append(record)
    keys = sorted(groups)
    rows = np.empty((len(keys), len(FEATURE_NAMES)))
    labels = np.empty(len(keys), dtype=int)
    for i, key in enumerate(keys):
        rows[i] = extract_features(groups[key])
        labels[i] = label_group(groups[key])
    return Dataset(rows, labels, list(FEATURE_NAMES),
                   scenario=scenario or table.source_path,
                   keys=np.array(keys, KEY))


def write_features(ds: Dataset, path):
    """One csv row per feature row, each value formatted on its own."""
    keys = (ds.keys.tolist() if ds.keys is not None
            else [(i, "?") for i in range(ds.n)])
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        if ds.scenario:
            handle.write(f"# scenario={ds.scenario}\n")
        writer = csv.writer(handle)
        writer.writerow(["window_index", "src_addr", "label",
                         *ds.feature_names])
        for (window_index, src_addr), label, row in zip(keys, ds.labels,
                                                        ds.rows):
            writer.writerow([window_index, src_addr, int(label),
                             * ("%.12g" % v for v in row)])


def load_features(path) -> Dataset:
    """One csv row at a time: each cell tested by the capture reader's
    number rule, then read by int() or float(). The first failing row
    names its line, except that a non-finite feature is looked for only
    once every row has been read."""
    path = Path(path)
    scenario = None
    header_lines = 1
    with path.open(newline="", encoding="utf-8") as handle:
        first = handle.readline()
        if first.startswith("# scenario="):
            scenario = first[len("# scenario="):].rstrip("\r\n")
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
                # the joined cells pass the rule only if every cell does
                if not _is_number_text(row[0] + row[2] + "".join(row[3:])):
                    for cell in (row[0], row[2], *row[3:]):
                        if not _is_number_text(cell):
                            raise ValueError(f"{cell!r} is not a number")
                keys.append((int(row[0]), row[1]))
                if not -2**63 <= keys[-1][0] < 2**63:
                    raise ValueError(f"window index {row[0]} is not an int64")
                labels.append(int(row[2]))
                if labels[-1] not in (0, 1):
                    raise ValueError(f"label {row[2]} is not 0 or 1")
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
    return Dataset(rows, np.array(labels), names, scenario=scenario,
                   keys=np.array(keys, KEY))
