"""Report tables for evaluation runs: aligned text for the terminal
and CSV for downstream tooling.

The evaluation tables mirror the capture-summary layout used
throughout the result sections: one row per capture with its size,
botnet share in permille, and precision/recall/f1 for the training and
test sides.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .evaluation import Metrics, RepeatedMetrics, SweepResult
from .selection import FilterResult, PcaResult, SelectionTrace
from .windows import Dataset


@dataclass
class Table:
    title: str
    headers: list
    rows: list  # lists of strings

    def to_text(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        lines.append("  ".join(h.ljust(widths[i])
                               for i, h in enumerate(self.headers)).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)).rstrip())
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _pair(mean: float, std: float, repeated: bool) -> str:
    return f"{_fmt(mean)}±{_fmt(std)}" if repeated else _fmt(mean)


def botnet_permille(ds: Dataset) -> float:
    return 1000.0 * float(np.mean(ds.labels)) if ds.n else 0.0


def eval_table(name: str, ds: Dataset, rm: RepeatedMetrics,
               title: str) -> Table:
    """One capture evaluated over one or more splits; cells show
    mean±population-std when more than one run was made."""
    repeated = len(rm.test_runs) > 1
    train = rm.summary("train")
    test = rm.summary("test")
    row = [name, str(ds.n), f"{botnet_permille(ds):.2f}"]
    for side in (train, test):
        for key in ("precision", "recall", "f1"):
            row.append(_pair(side[key][0], side[key][1], repeated))
    return Table(title,
                 ["Botnet", "Size", "Botnet permille", "Train P",
                  "Train R", "Train f1", "Test P", "Test R", "Test f1"],
                 [row])


def cross_scenario_table(train_name: str, test_name: str, test_ds: Dataset,
                         metrics: Metrics, title: str) -> Table:
    row = [train_name, test_name, str(test_ds.n),
           f"{botnet_permille(test_ds):.2f}", _fmt(metrics.precision),
           _fmt(metrics.recall), _fmt(metrics.f1)]
    return Table(title,
                 ["Train capture", "Test capture", "Test size",
                  "Botnet permille", "P", "R", "f1"],
                 [row])


def sweep_table(sweep: SweepResult, title: str) -> Table:
    rows = []
    for i, entry in enumerate(sweep.entries):
        params = " ".join(f"{k}={v}" for k, v in entry.params.items())
        if entry.error is not None:
            rows.append([params, "error", "", "", entry.error])
            continue
        test = entry.metrics.summary("test")
        rows.append([params, _fmt(test["f1"][0]), _fmt(test["f1"][1]),
                     "*" if i == sweep.best_index else "", ""])
    return Table(title,
                 ["Params", "Mean test f1", "Std", "Best", "Error"],
                 rows)


def filter_table(result: FilterResult, title: str) -> Table:
    rows = []
    ordered = sorted(result.label_correlations.items(),
                     key=lambda kv: (-abs(kv[1]), kv[0]))
    dropped = {name for name, _, _ in result.dropped}
    for name, r in ordered:
        if name in dropped:
            status = "dropped (redundant)"
        elif name in result.selected:
            status = "selected"
        else:
            status = "below threshold"
        rows.append([name, f"{r:+.4f}", status])
    for name in result.constant_features:
        rows.append([name, "", "constant (excluded)"])
    return Table(title, ["Feature", "Label corr", "Status"], rows)


def trace_table(trace: SelectionTrace, title: str) -> Table:
    rows = []
    for i, step in enumerate(trace.steps):
        rows.append([str(i), step.removed_feature or "(start)",
                     _fmt(step.f1), str(len(step.feature_subset))])
    return Table(title, ["Step", "Removed", "f1", "Features left"], rows)


def importance_table(names, importances, title: str) -> Table:
    order = np.argsort(-np.asarray(importances), kind="stable")
    rows = [[names[i], f"{importances[i]:.6f}"] for i in order]
    return Table(title, ["Feature", "Importance"], rows)


def pca_table(result: PcaResult, title: str) -> Table:
    rows = [[f"PC{i + 1}", f"{ratio:.6f}", f"{100.0 * ratio:.2f}%"]
            for i, ratio in enumerate(result.explained_variance_ratio)]
    return Table(title,
                 ["Component", "Variance ratio", "Percent"],
                 rows)
