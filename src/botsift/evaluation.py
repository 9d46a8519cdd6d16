"""Metrics, dataset splits, repeated-run statistics, bootstrap
augmentation, hyperparameter sweeps, and cross-scenario evaluation.

Confusion counts are integers and may weight each row (`prf1`'s
`counts`), so the training metrics of a bootstrap run of a family that
scores each row on its own come from its distinct training rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Optional, Sequence

import numpy as np

from .config import Count, Seed, require
from .models import FAMILIES, make_params, predict, train_model
from .windows import Dataset

METRIC_KEYS = ("precision", "recall", "f1")
_FRACTION = Annotated[float, "(0, 1)"]


@dataclass
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def prf1(y_true, y_pred, counts=None) -> Metrics:
    """Precision/recall/f1 from integer confusion counts, row i counted
    counts[i] times (default once); every 0/0 ratio is defined as 0."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    counts = (np.ones(y_true.shape, dtype=np.int64) if counts is None
              else np.asarray(counts, dtype=np.int64))
    if not y_true.shape == y_pred.shape == counts.shape:
        raise ValueError("y_true, y_pred and counts must have equal length")

    tp = int(counts[(y_true == 1) & (y_pred == 1)].sum())
    fp = int(counts[(y_true == 0) & (y_pred == 1)].sum())
    fn = int(counts[(y_true == 1) & (y_pred == 0)].sum())
    tn = int(counts[(y_true == 0) & (y_pred == 0)].sum())

    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    denom = precision + recall
    f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
    return Metrics(tp, fp, fn, tn, precision, recall, f1)


def split_dataset(ds: Dataset, train_frac: float, seed: int):
    """Uniform random partition; train side gets floor(train_frac * n)
    rows. Both sides keep row order and feature names."""
    require("train_frac", train_frac, _FRACTION)
    require("seed", seed, Seed)
    n_train = int(train_frac * ds.n)
    if n_train == 0 or n_train == ds.n:
        raise ValueError(
            f"split of {ds.n} rows at {train_frac} leaves a side empty")
    perm = np.random.default_rng(seed).permutation(ds.n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return ds.subset(train_idx), ds.subset(test_idx)


def bootstrap_draw(n: int, factor: int, seed: int) -> np.ndarray:
    """The row numbers of factor * n draws, uniform with replacement,
    from n rows."""
    require("factor", factor, Count)
    return np.random.default_rng(seed).integers(0, n, size=int(factor) * n)


def bootstrap_resample(train: Dataset, factor: int, seed: int) -> Dataset:
    """factor * n rows drawn uniformly with replacement from the
    training data. Test data is never resampled."""
    return train.subset(bootstrap_draw(train.n, factor, seed))


@dataclass
class RepeatedMetrics:
    train_runs: list = field(default_factory=list)
    test_runs: list = field(default_factory=list)

    def summary(self, side: str = "test") -> dict:
        """{metric: (mean, population std)} over the runs."""
        runs = self.test_runs if side == "test" else self.train_runs
        out = {}
        for key in METRIC_KEYS:
            values = np.array([getattr(m, key) for m in runs])
            out[key] = (float(values.mean()), float(values.std()))
        return out


def evaluate_once(ds: Dataset, family: str, hp, split_seed: int,
                  train_frac: float = 2.0 / 3.0, bootstrap_factor: int = 1):
    """One split/train/evaluate pass; returns (train Metrics,
    test Metrics, artifact). Training metrics describe the data the
    model was actually fit to (the resampled set when bootstrapping);
    factor 1 fits the split's training rows as they are.

    A resample repeats the split's training rows. A family whose score
    of a row does not depend on the other rows scored with it (rf,
    gboost) scores each of those rows once, and the confusion counts
    weight it by the number of times it was drawn: the same integers as
    a scoring of the whole resample."""
    require("bootstrap_factor", bootstrap_factor, Count)
    train, test = split_dataset(ds, train_frac, split_seed)
    fit_on = train
    if bootstrap_factor != 1:
        fit_on = bootstrap_resample(train, bootstrap_factor, split_seed)
    artifact = train_model(family, fit_on, hp)  # refuses an unknown family
    scored, counts = fit_on, None
    if bootstrap_factor != 1 and FAMILIES[family].per_row:
        # how often the resample drew each row: its draw, made again
        scored = train
        counts = np.bincount(bootstrap_draw(train.n, bootstrap_factor,
                                            split_seed), minlength=train.n)
    _, train_pred = predict(artifact, scored.rows)
    _, test_pred = predict(artifact, test.rows)
    return (prf1(scored.labels, train_pred, counts),
            prf1(test.labels, test_pred), artifact)


def repeated_eval(ds: Dataset, family: str, hp, n_runs: int, seed: int,
                  train_frac: float = 2.0 / 3.0,
                  bootstrap_factor: int = 1) -> RepeatedMetrics:
    """n_runs independent split/train/test passes; run i uses split
    seed = seed + i."""
    require("n_runs", n_runs, Count)
    require("seed", seed, Seed)
    require("bootstrap_factor", bootstrap_factor, Count)
    result = RepeatedMetrics()
    for i in range(n_runs):
        try:
            train_m, test_m, _ = evaluate_once(
                ds, family, hp, seed + i, train_frac, bootstrap_factor)
        except Exception as exc:
            raise RuntimeError(f"run {i} (seed {seed + i}) failed: {exc}"
                               ) from exc
        result.train_runs.append(train_m)
        result.test_runs.append(test_m)
    return result


@dataclass
class SweepEntry:
    params: dict
    metrics: Optional[RepeatedMetrics]
    error: Optional[str] = None


@dataclass
class SweepResult:
    entries: list
    best_index: Optional[int]

    @property
    def best(self) -> Optional[SweepEntry]:
        return (self.entries[self.best_index]
                if self.best_index is not None else None)


def hyperparam_sweep(ds: Dataset, family: str, grid: Sequence[dict],
                     n_runs: int, seed: int,
                     train_frac: float = 2.0 / 3.0) -> SweepResult:
    """Evaluates every grid point with repeated_eval; a point whose
    runs fail is recorded and the sweep continues. Best = highest mean
    test f1, first grid point on ties. Errors of the arguments every
    point shares are raised before the first point."""
    if not grid:
        raise ValueError("grid must be nonempty")
    require("n_runs", n_runs, Count)
    require("seed", seed, Seed)
    require("train_frac", train_frac, _FRACTION)
    entries = []
    best_index = None
    best_f1 = -1.0
    for point in grid:
        hp = make_params(family, dict(point))
        try:
            rm = repeated_eval(ds, family, hp, n_runs, seed, train_frac)
        except Exception as exc:
            entries.append(SweepEntry(dict(point), None, str(exc)))
            continue
        entries.append(SweepEntry(dict(point), rm))
        mean_f1 = rm.summary("test")["f1"][0]
        if mean_f1 > best_f1:
            best_f1 = mean_f1
            best_index = len(entries) - 1
    return SweepResult(entries, best_index)


def cross_scenario_eval(train_ds: Dataset, test_ds: Dataset, family: str,
                        hp) -> Metrics:
    """Train on every row of one capture, test on every row of
    another."""
    if list(train_ds.feature_names) != list(test_ds.feature_names):
        raise ValueError("train and test datasets disagree on features")
    artifact = train_model(family, train_ds, hp)
    _, test_pred = predict(artifact, test_ds.rows)
    return prf1(test_ds.labels, test_pred)
