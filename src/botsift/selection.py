"""Feature-selection analyses over a windowed dataset: Pearson filter
with redundancy pruning, backward feature elimination, and PCA."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .evaluation import prf1, split_dataset
from .models import predict, train_model
from .windows import Dataset

logger = logging.getLogger(__name__)


def pearson(x, y) -> float:
    """Product-moment correlation; errors on constant input, where the
    coefficient is undefined."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two equal-length vectors")
    if x.shape[0] < 2:
        raise ValueError("pearson needs at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(xc @ xc))
    sy = float(np.sqrt(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson is undefined for constant input")
    return float((xc @ yc) / (sx * sy))


@dataclass
class FilterResult:
    threshold: float
    redundancy_threshold: float
    label_correlations: dict            # feature -> r against the label
    constant_features: list             # excluded, with a warning
    stage1: list                        # |r| > threshold, sorted by |r| desc
    dropped: list                       # (feature, kept_partner, |r| between)
    selected: list                      # stage1 minus redundancy drops


def filter_select(ds: Dataset, threshold: float = 0.1,
                  redundancy_threshold: float = 0.95) -> FilterResult:
    """Stage 1 keeps features whose |pearson(feature, label)| exceeds
    the threshold; stage 2 repeatedly takes the most-correlated
    remaining pair above the redundancy threshold and drops the member
    with the weaker label correlation."""
    if ds.n < 2:
        raise ValueError("filter_select needs at least 2 rows")
    y = ds.labels.astype(float)
    if len(np.unique(ds.labels)) < 2:
        raise ValueError("filter_select needs both classes present")

    label_corr = {}
    constant = []
    for j, name in enumerate(ds.feature_names):
        col = ds.rows[:, j]
        if np.all(col == col[0]):
            constant.append(name)
            continue
        label_corr[name] = pearson(col, y)
    if constant:
        logger.warning("constant features excluded from the filter: %s",
                       ", ".join(constant))

    stage1 = [name for name in label_corr
              if abs(label_corr[name]) > threshold]
    stage1.sort(key=lambda nm: (-abs(label_corr[nm]),
                                ds.feature_names.index(nm)))

    cols = {nm: ds.rows[:, ds.feature_names.index(nm)] for nm in stage1}
    selected = list(stage1)
    dropped = []
    while True:
        worst = None  # (|r|, pos_i, pos_j)
        for a in range(len(selected)):
            for b in range(a + 1, len(selected)):
                r = abs(pearson(cols[selected[a]], cols[selected[b]]))
                if r > redundancy_threshold and (worst is None
                                                 or r > worst[0]):
                    worst = (r, a, b)
        if worst is None:
            break
        r, a, b = worst
        fa, fb = selected[a], selected[b]
        # the stage1 ordering already ranks by |label correlation|
        drop, keep = (fb, fa) if (abs(label_corr[fa])
                                  >= abs(label_corr[fb])) else (fa, fb)
        dropped.append((drop, keep, r))
        selected.remove(drop)

    return FilterResult(threshold, redundancy_threshold, label_corr,
                        constant, stage1, dropped, selected)


def correlation_matrix(ds: Dataset) -> np.ndarray:
    """Pairwise feature correlations; rows/columns of constant features
    are marked absent (NaN) throughout, including the diagonal."""
    if ds.n < 2:
        raise ValueError("correlation_matrix needs at least 2 rows")
    d = len(ds.feature_names)
    out = np.full((d, d), np.nan)
    usable = [j for j in range(d)
              if not np.all(ds.rows[:, j] == ds.rows[0, j])]
    for ai, a in enumerate(usable):
        out[a, a] = 1.0
        for b in usable[ai + 1:]:
            r = pearson(ds.rows[:, a], ds.rows[:, b])
            out[a, b] = r
            out[b, a] = r
    return out


def write_correlation_csv(matrix: np.ndarray, names, path) -> None:
    """Tidy (row, col, value) CSV for external heatmap plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value"])
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                v = matrix[i, j]
                writer.writerow([a, b, "" if np.isnan(v) else f"{v:.12g}"])


@dataclass
class SelectionStep:
    feature_subset: list
    f1: float
    removed_feature: Optional[str]


@dataclass
class SelectionTrace:
    method: str
    steps: list = field(default_factory=list)


def _subset_f1(train: Dataset, test: Dataset, names, family, hp) -> float:
    artifact = train_model(family, train.select_features(names), hp)
    _, pred = predict(artifact, test.select_features(names).rows)
    return prf1(test.labels, pred).f1


def backward_elimination(ds: Dataset, family: str, hp, seed: int,
                         train_frac: float = 2.0 / 3.0) -> SelectionTrace:
    """Starting from all features, repeatedly remove the feature whose
    removal maximizes held-out f1 on one fixed split; stop when no
    removal maintains or improves the incumbent f1 or one feature
    remains. Ties remove the lowest-index feature."""
    train, test = split_dataset(ds, train_frac, seed)

    current = list(ds.feature_names)
    try:
        incumbent = _subset_f1(train, test, current, family, hp)
    except Exception as exc:
        raise RuntimeError(f"initial fit on all features failed: {exc}"
                           ) from exc

    trace = SelectionTrace(method="backward_elimination")
    trace.steps.append(SelectionStep(list(current), incumbent, None))

    while len(current) > 1:
        best_f1 = None
        best_feature = None
        for name in current:  # ascending canonical order; ties keep first
            candidate = [nm for nm in current if nm != name]
            try:
                f1 = _subset_f1(train, test, candidate, family, hp)
            except Exception as exc:
                raise RuntimeError(
                    f"step {len(trace.steps)}: removing {name!r} failed: "
                    f"{exc}") from exc
            if best_f1 is None or f1 > best_f1:
                best_f1 = f1
                best_feature = name
        if best_f1 is None or best_f1 < incumbent:
            break
        current = [nm for nm in current if nm != best_feature]
        incumbent = best_f1
        trace.steps.append(SelectionStep(list(current), incumbent,
                                         best_feature))
    return trace


def write_trace_csv(trace: SelectionTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "removed_feature", "f1",
                         "n_features", "feature_subset"])
        for i, step in enumerate(trace.steps):
            writer.writerow([i, step.removed_feature or "",
                             f"{step.f1:.12g}", len(step.feature_subset),
                             " ".join(step.feature_subset)])


@dataclass
class PcaResult:
    component_vectors: np.ndarray       # k x d, rows orthonormal
    explained_variance_ratio: np.ndarray
    projected: np.ndarray               # n x k
    eigenvalues: np.ndarray             # all d, descending


def pca(ds: Dataset, k: int) -> PcaResult:
    """Top-k principal components of the standardized feature matrix.

    Features are scaled to unit variance first; raw columns span many
    orders of magnitude (bytes vs entropies) and would otherwise drown
    the decomposition. Component signs are fixed by making each
    vector's largest-magnitude entry positive."""
    d = len(ds.feature_names)
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}]")
    if ds.n < 2:
        raise ValueError("pca needs at least 2 rows")

    mean = ds.rows.mean(axis=0)
    std = ds.rows.std(axis=0)
    std[std == 0.0] = 1.0
    Xs = (ds.rows - mean) / std

    cov = Xs.T @ Xs / ds.n
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.maximum(eigenvalues[order], 0.0)
    eigenvectors = eigenvectors[:, order]

    total = float(eigenvalues.sum())
    rank = int(np.sum(eigenvalues > 1e-12 * max(total, 1.0)))
    if k > rank:
        logger.warning("k=%d exceeds the numerical rank %d; trailing "
                       "components explain no variance", k, rank)

    components = eigenvectors[:, :k].T.copy()
    for row in components:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    ratios = (eigenvalues[:k] / total if total > 0
              else np.zeros(k))
    return PcaResult(components, ratios, Xs @ components.T, eigenvalues)
