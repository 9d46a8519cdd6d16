"""Metrics, dataset splits, repeated-run statistics, bootstrap
augmentation, hyperparameter sweeps, and cross-scenario evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .models import make_params, predict, train_model
from .windows import Dataset

METRIC_KEYS = ("precision", "recall", "f1")


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


def prf1(y_true, y_pred) -> Metrics:
    """Precision/recall/f1 from integer confusion counts; every 0/0
    ratio is defined as 0."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have equal length")

    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))

    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    denom = precision + recall
    f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
    return Metrics(tp, fp, fn, tn, precision, recall, f1)


def split_dataset(ds: Dataset, train_frac: float, seed: int):
    """Uniform random partition; train side gets floor(train_frac * n)
    rows. Both sides keep row order and feature names."""
    _check_train_frac(train_frac)
    n_train = int(train_frac * ds.n)
    if n_train == 0 or n_train == ds.n:
        raise ValueError(
            f"split of {ds.n} rows at {train_frac} leaves a side empty")
    perm = np.random.default_rng(seed).permutation(ds.n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return ds.subset(train_idx), ds.subset(test_idx)


def _check_train_frac(train_frac):
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must lie strictly between 0 and 1")


def _check_runs(n_runs):
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")


def _check_factor(factor):
    if int(factor) != factor or factor < 1:
        raise ValueError(
            f"bootstrap factor must be an integer >= 1, got {factor!r}")


def bootstrap_resample(train: Dataset, factor: int, seed: int) -> Dataset:
    """factor * n rows drawn uniformly with replacement from the
    training data. Test data is never resampled."""
    _check_factor(factor)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, train.n, size=int(factor) * train.n)
    return train.subset(idx)


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
                  train_frac: float = 2.0 / 3.0,
                  bootstrap_factor: Optional[int] = None):
    """One split/train/evaluate pass; returns (train Metrics,
    test Metrics, artifact). Training metrics describe the data the
    model was actually fit to (the resampled set when bootstrapping)."""
    train, test = split_dataset(ds, train_frac, split_seed)
    if bootstrap_factor not in (None, 1):
        train = bootstrap_resample(train, bootstrap_factor, split_seed)
    artifact = train_model(family, train, hp)
    _, train_pred = predict(artifact, train.rows)
    _, test_pred = predict(artifact, test.rows)
    return (prf1(train.labels, train_pred), prf1(test.labels, test_pred),
            artifact)


def repeated_eval(ds: Dataset, family: str, hp, n_runs: int, seed: int,
                  train_frac: float = 2.0 / 3.0,
                  bootstrap_factor: Optional[int] = None) -> RepeatedMetrics:
    """n_runs independent split/train/test passes; run i uses split
    seed = seed + i."""
    _check_runs(n_runs)
    if bootstrap_factor is not None:
        _check_factor(bootstrap_factor)
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
    _check_runs(n_runs)
    _check_train_frac(train_frac)
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
