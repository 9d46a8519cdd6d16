"""The benchmark's own reference computations and output parsers.

Every check compares an output of `botsift` with something computed here
from the generator's ground truth or from a property of the method,
never with a stored copy of an earlier output. Each `check_*` function
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import math
import re
import statistics
from collections import Counter

import numpy as np

WIDTH_US = 120_000_000  # the CLI's default window width and stride
STRIDE_US = 60_000_000

FEATURE_NAMES = (
    "counts", "Sport_nunique", "DstAddr_nunique", "Dport_nunique",
    "Dur_sum", "Dur_mean", "Dur_std", "Dur_max", "Dur_median",
    "TotBytes_sum", "TotBytes_mean", "TotBytes_std", "TotBytes_max",
    "TotBytes_median",
    "SrcBytes_sum", "SrcBytes_mean", "SrcBytes_std", "SrcBytes_max",
    "SrcBytes_median",
    "Sport_RU", "DstAddr_RU", "Dport_RU",
)


class FeatureFile:
    """A feature CSV read without botsift's reader."""

    def __init__(self, path):
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
        if lines and lines[0].startswith("# scenario="):
            lines.pop(0)
        reader = csv.reader(lines)
        header = next(reader)
        self.names = header[3:]
        body = [row for row in reader if row]
        self.keys = [(int(r[0]), r[1]) for r in body]
        self.labels = np.array([int(r[2]) for r in body], dtype=int)
        self.rows = np.array([[float(v) for v in r[3:]] for r in body],
                             dtype=float).reshape(len(body), len(self.names))

    @property
    def n(self) -> int:
        return len(self.keys)


# ----------------------------------------------------------------- ingest

def window_memberships(t_us: np.ndarray):
    """(flow index, window index) of every window each flow falls in.

    Windows start at the earliest flow; window k covers
    [k * stride, k * stride + width). Integer microseconds, so no
    rounding can move a flow across a boundary.
    """
    rel = t_us - t_us.min()
    k_top = rel // STRIDE_US
    flows, ks = [], []
    for back in range(WIDTH_US // STRIDE_US + 1):
        k = k_top - back
        inside = (k >= 0) & (k * STRIDE_US <= rel) & (rel < k * STRIDE_US
                                                      + WIDTH_US)
        flows.append(np.nonzero(inside)[0])
        ks.append(k[inside])
    return np.concatenate(flows), np.concatenate(ks)


def expected_keys(cols: dict) -> list:
    """Sorted distinct (window, source) pairs of a capture's valid flows."""
    flow, k = window_memberships(cols["t_us"])
    return sorted(set(zip(k.tolist(), cols["src"][flow].tolist())))


def _numeric_block(values: list) -> list:
    n = len(values)
    total = math.fsum(values)
    mean = total / n
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n)
    return [total, mean, std, max(values), statistics.median(values)]


def relative_uncertainty(values: list) -> float:
    """Shannon entropy of the value counts over log(distinct count)."""
    counts = Counter(values).values()
    if len(counts) == 1:
        return 0.0
    total = sum(counts)
    h = -math.fsum(c / total * math.log(c / total) for c in counts)
    return min(h / math.log(len(counts)), 1.0)


def reference_features(cols: dict, key) -> list:
    """The 22 features of one (window, source) group, from the capture."""
    k, src = key
    rel = cols["t_us"] - cols["t_us"].min()
    sel = np.nonzero((cols["src"] == src) & (k * STRIDE_US <= rel)
                     & (rel < k * STRIDE_US + WIDTH_US))[0]
    # an empty port cell counts as a category of its own
    sport = cols["sport"][sel].tolist()
    dst = cols["dst"][sel].tolist()
    dport = cols["dport"][sel].tolist()
    out = [float(len(sel)), float(len(set(sport))), float(len(set(dst))),
           float(len(set(dport)))]
    for column in ("dur", "bytes", "sbytes"):
        out += _numeric_block([float(v) for v in cols[column][sel]])
    out += [relative_uncertainty(sport), relative_uncertainty(dst),
            relative_uncertainty(dport)]
    return out


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= 1e-9 * max(abs(want), scale, 1e-12)


def parse_summary(text: str) -> dict:
    """Counts and numeric ranges from `botsift summarize` output."""
    out = {"reasons": {}, "ranges": {}}
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("rows accepted: "):
            out["accepted"] = int(line.split(": ")[1])
        elif line.startswith("rows rejected: "):
            out["rejected"] = int(line.split(": ")[1])
            for follow in lines[i + 1:]:
                m = re.fullmatch(r"  (\w+): (\d+)", follow)
                if not m:
                    break
                out["reasons"][m.group(1)] = int(m.group(2))
        else:
            m = re.match(r"(\w+): min=(\S+) max=(\S+) ", line)
            if m:
                out["ranges"][m.group(1)] = (float(m.group(2)),
                                             float(m.group(3)))
    return out


def check_summary(text: str, capture) -> list:
    got = parse_summary(text)
    problems = []
    if got.get("accepted", -1) + got.get("rejected", -1) != capture.n_rows:
        problems.append(f"accepted + rejected = {got.get('accepted')} + "
                        f"{got.get('rejected')}, but {capture.n_rows} data "
                        "rows were written")
    if got.get("accepted") != capture.n_valid:
        problems.append(f"accepted {got.get('accepted')}, expected "
                        f"{capture.n_valid}")
    if got["reasons"] != dict(capture.rejection_tally()):
        problems.append(f"rejection tally {got['reasons']} != injected "
                        f"{dict(capture.rejection_tally())}")
    cols = capture.cols
    for name, column in (("dur", "dur"), ("tot_pkts", "pkts"),
                         ("tot_bytes", "bytes"), ("src_bytes", "sbytes")):
        want = (float(f"{cols[column].min():g}"),
                float(f"{cols[column].max():g}"))
        if got["ranges"].get(name) != want:
            problems.append(f"{name} range {got['ranges'].get(name)} != "
                            f"{want}")
    return problems


def check_features(ff: FeatureFile, capture, sample: np.ndarray) -> list:
    """Feature-file checks against the capture's ground truth; `sample`
    holds the row positions whose 22 features are recomputed."""
    cols = capture.cols
    problems = []
    if tuple(ff.names) != FEATURE_NAMES:
        return [f"feature columns {ff.names} != the 22 expected"]
    want_keys = expected_keys(cols)
    if ff.n != len(want_keys):
        problems.append(f"{ff.n} feature rows, but the capture has "
                        f"{len(want_keys)} distinct (window, source) pairs")
    elif ff.keys != want_keys:
        problems.append("feature row keys differ from the expected "
                        "(window, source) pairs")
    memberships = len(window_memberships(cols["t_us"])[0])
    counts = ff.rows[:, 0]
    if counts.sum() != memberships:
        problems.append(f"sum of counts {counts.sum():.0f} != {memberships} "
                        "flow-window memberships")
    want_labels = np.array([src in capture.botnet_sources
                            for _, src in ff.keys], dtype=int)
    if not np.array_equal(ff.labels, want_labels):
        problems.append(f"{int(np.sum(ff.labels != want_labels))} labels "
                        "differ from botnet-source membership")
    ru = ff.rows[:, 19:22]
    if not np.all((ru >= 0.0) & (ru <= 1.0)):
        problems.append("a *_RU feature lies outside [0, 1]")
    if not np.all(ff.rows[:, 1:4] <= counts[:, None]):
        problems.append("a *_nunique feature exceeds counts")
    for i in sample:
        want = reference_features(cols, ff.keys[i])
        got = ff.rows[i]
        for j, name in enumerate(FEATURE_NAMES):
            block = 4 + 5 * ((j - 4) // 5) if 4 <= j < 19 else j
            scale = abs(want[block + 3]) if 4 <= j < 19 else 1.0
            if not _close(got[j], want[j], scale):
                problems.append(f"row {ff.keys[i]} {name} = {got[j]!r}, "
                                f"reference {want[j]!r}")
    return problems


def label_f1(ff: FeatureFile, capture) -> float:
    """F1 of the feature file's labels against botnet-source membership."""
    truth = np.array([src in capture.botnet_sources for _, src in ff.keys])
    pred = ff.labels == 1
    tp = int(np.sum(truth & pred))
    fp = int(np.sum(~truth & pred))
    fn = int(np.sum(truth & ~pred))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


# ------------------------------------------------------------ model runs

def metrics_problems(m, n_test: int) -> list:
    """Confusion counts against the test size and F1 against its
    definition as the harmonic mean of precision and recall."""
    problems = []
    if m.tp + m.fp + m.fn + m.tn != n_test:
        problems.append(f"confusion counts sum to "
                        f"{m.tp + m.fp + m.fn + m.tn}, test side has "
                        f"{n_test} rows")
    p = m.tp / (m.tp + m.fp) if m.tp + m.fp else 0.0
    r = m.tp / (m.tp + m.fn) if m.tp + m.fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    for name, got, want in (("precision", m.precision, p),
                            ("recall", m.recall, r), ("f1", m.f1, f1)):
        if abs(got - want) > 1e-12:
            problems.append(f"{name} {got!r} != {want!r} from the counts")
    return problems


def table_row(text: str) -> list:
    """Cells of the last row of an aligned text table."""
    rows = [line for line in text.splitlines() if line.strip()]
    return re.split(r"\s{2,}", rows[-1].strip())


def printed_matches(cell: str, value: float, decimals: int = 4) -> bool:
    """A printed `x` or `mean±std` cell shows `value` rounded."""
    shown = float(cell.split("±")[0])
    return abs(shown - value) <= 0.51 * 10.0 ** -decimals


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc, yc = x - x.mean(), y - y.mean()
    return float(xc @ yc / math.sqrt(float(xc @ xc) * float(yc @ yc)))


def check_filter(text: str, ff: FeatureFile, threshold: float = 0.1,
                 redundancy: float = 0.95) -> list:
    """Label correlations against our own, and the two selection rules:
    every selected feature clears the threshold, and no selected pair is
    more correlated than the redundancy limit."""
    problems = []
    y = ff.labels.astype(float)
    status = {}
    for line in text.splitlines():
        m = re.fullmatch(r"(\S+)\s+([+-]\d\.\d{4})\s+(.+?)\s*", line)
        if m and m.group(1) in ff.names:
            status[m.group(1)] = (float(m.group(2)), m.group(3))
    selected = []
    for j, name in enumerate(ff.names):
        col = ff.rows[:, j]
        if np.all(col == col[0]):
            continue
        r = pearson(col, y)
        if name not in status:
            problems.append(f"{name} missing from the filter table")
            continue
        shown, state = status[name]
        if abs(shown - r) > 0.51e-4:
            problems.append(f"{name} label correlation {shown} != {r:.6f}")
        if state == "selected":
            selected.append(j)
            if abs(r) <= threshold:
                problems.append(f"{name} selected with |r| = {abs(r):.4f}")
        elif state == "below threshold" and abs(r) > threshold:
            problems.append(f"{name} marked below threshold, |r| = {r:.4f}")
    for a in selected:
        for b in selected:
            if a < b and abs(pearson(ff.rows[:, a], ff.rows[:, b])) > \
                    redundancy:
                problems.append(f"{ff.names[a]} and {ff.names[b]} both "
                                "selected though redundant")
    final = [line for line in text.splitlines()
             if line.startswith("selected: ")]
    if not final or set(final[0].split()[1:]) != {ff.names[j]
                                                  for j in selected}:
        problems.append("the 'selected:' line disagrees with the table")
    if not selected:
        problems.append("the filter selected no feature")
    return problems


def check_pca(text: str, ff: FeatureFile, k: int = 2) -> list:
    """Explained-variance ratios against our own SVD of the standardized
    matrix."""
    std = ff.rows.std(axis=0)
    std[std == 0.0] = 1.0
    xs = (ff.rows - ff.rows.mean(axis=0)) / std
    power = np.linalg.svd(xs, compute_uv=False) ** 2
    want = power[:k] / power.sum()
    got = [float(m.group(1)) for m in
           re.finditer(r"^PC\d+\s+(\d\.\d{6})\s", text, re.MULTILINE)]
    if len(got) != k:
        return [f"pca printed {len(got)} components, expected {k}"]
    return [f"PC{i + 1} ratio {g} != {w:.8f}" for i, (g, w)
            in enumerate(zip(got, want)) if abs(g - w) > 0.51e-6]
