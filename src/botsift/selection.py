"""Feature-selection analyses over a windowed dataset: Pearson filter
with redundancy pruning over one correlation matrix, backward feature
elimination, and PCA on the models' standardization."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .evaluation import cross_scenario_eval, split_dataset
from .models import apply_standardizer, fit_standardizer
from .windows import Dataset

logger = logging.getLogger(__name__)

_TINY = np.finfo(float).tiny  # the smallest normal double


def pearson(x, y) -> float:
    """Product-moment correlation; errors on constant input (all values
    equal), where the coefficient is undefined. r is scale-free, so where
    the squares of the centered values underflow or their product
    overflows, both are first scaled to max |v| = 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two equal-length vectors")
    if x.shape[0] < 2:
        raise ValueError("pearson needs at least 2 points")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("pearson is undefined for constant input")
    return _pearson_centered(x - x.mean(), y - y.mean())


def _pearson_centered(xc, yc) -> float:
    """pearson's product-and-norm step, on two centered columns."""
    with np.errstate(over="ignore"):
        sxx, syy = float(xc @ xc), float(yc @ yc)
    sx, sy = math.sqrt(sxx), math.sqrt(syy)
    if sxx < _TINY or syy < _TINY or math.isinf(sx * sy):
        return pearson(xc / np.abs(xc).max(), yc / np.abs(yc).max())
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
    correlations: np.ndarray            # correlation_matrix of the dataset


def filter_select(ds: Dataset, threshold: float = 0.1,
                  redundancy_threshold: float = 0.95) -> FilterResult:
    """Stage 1 keeps the non-constant features whose |pearson(feature,
    label)| exceeds the threshold, by |r| descending, ties in feature
    order. Stage 2 repeatedly takes the most-correlated pair of
    still-selected features above the redundancy threshold (on ties the
    first pair, row by row in stage-1 order; never a NaN) and drops its
    later member, the one with the weaker label correlation. Both stages
    read one correlation_matrix; the pruning calls no pearson."""
    if math.isnan(threshold) or math.isnan(redundancy_threshold):
        raise ValueError("filter thresholds must not be NaN")
    if len(np.unique(ds.labels)) < 2:
        raise ValueError("filter_select needs both classes present")
    # the label rides as a last column, so each column is centered once
    names = ds.feature_names
    full = correlation_matrix(np.column_stack([ds.rows, ds.labels]))
    matrix = full[:-1, :-1]
    usable = ~np.isnan(np.diag(matrix))
    constant = [nm for nm, ok in zip(names, usable) if not ok]
    if constant:
        logger.warning("constant features excluded from the filter: %s",
                       ", ".join(constant))
    label_corr = {nm: float(full[-1, j])
                  for j, nm in enumerate(names) if usable[j]}

    stage1 = [nm for nm in label_corr if abs(label_corr[nm]) > threshold]
    stage1.sort(key=lambda nm: (-abs(label_corr[nm]), names.index(nm)))

    pos = [names.index(nm) for nm in stage1]
    block = np.abs(matrix[np.ix_(pos, pos)])
    block[~np.triu(block > redundancy_threshold, 1)] = -np.inf
    selected = list(stage1)
    dropped = []
    while block.size and block.max() > -np.inf:
        a, b = divmod(int(np.argmax(block)), len(pos))
        dropped.append((stage1[b], stage1[a], float(block[a, b])))
        selected.remove(stage1[b])
        block[b, :] = block[:, b] = -np.inf

    return FilterResult(threshold, redundancy_threshold, label_corr,
                        constant, stage1, dropped, selected, matrix)


def correlation_matrix(rows: np.ndarray) -> np.ndarray:
    """Pairwise column correlations, entry (a, b) for a < b bit for bit
    pearson(column a, column b); rows and columns of constant columns are
    NaN, including the diagonal. Each column is centered once."""
    if len(rows) < 2:
        raise ValueError("correlation_matrix needs at least 2 rows")
    d = rows.shape[1]
    out = np.full((d, d), np.nan)
    centered = [(j, x - x.mean()) for j, x in enumerate(rows.T)
                if not np.all(x == x[0])]
    for ai, (a, xa) in enumerate(centered):
        out[a, a] = 1.0
        for b, xb in centered[ai + 1:]:
            out[a, b] = out[b, a] = _pearson_centered(xa, xb)
    return out


def write_correlation_csv(matrix: np.ndarray, names, path) -> None:
    """Tidy (row, col, value) CSV; an empty value is a constant feature."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
    return cross_scenario_eval(train.select_features(names),
                               test.select_features(names), family, hp).f1


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
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

    Features are standardized first by the models' own rule
    (`fit_standardizer`: population mean and std, a constant feature
    keeps std 1); raw columns span many orders of magnitude (bytes vs
    entropies) and would otherwise drown the decomposition. Component
    signs make each vector's largest-magnitude entry positive."""
    d = len(ds.feature_names)
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}]")
    if ds.n < 2:
        raise ValueError("pca needs at least 2 rows")

    Xs = apply_standardizer(ds.rows, fit_standardizer(ds.rows))

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
