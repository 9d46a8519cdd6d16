"""Fits run on one OpenBLAS thread: the same bytes as a fit on the
default pool, and the pool's size is restored afterwards."""

import logging
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from botsift import models
from botsift.models import FAMILIES, blas, make_params, train_model
from botsift.windows import Dataset

# large enough that OpenBLAS splits the products among its threads: nn's
# 32 x 256 x 128 mini-batch GEMMs, logreg's 2,000 x 22 matrix-vector
# products and svm's 2,000 x 22 x 512 random-feature map
FITS = [("nn", {"epochs": 2}), ("logreg", {"max_iter": 50}),
        ("svm", {"kernel": "rbf", "epochs": 3}),
        ("gboost", {"n_trees": 20})]

needs_pool = pytest.mark.skipif(blas._pool() is None,
                                reason="numpy's BLAS is no OpenBLAS with "
                                       "thread control")


def dataset(n=2000, labels=None) -> Dataset:
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(n, 22)) * rng.uniform(0.1, 50.0, 22)
    if labels is None:
        labels = (rows[:, 0] / 50 + rows[:, 3] + rng.normal(size=n)) > 1.0
    return Dataset(rows, labels, [f"f{j}" for j in range(22)])


@contextmanager
def pool_size(n):
    """The OpenBLAS pool at n threads in the block, restored after it."""
    get, set_ = blas._pool()
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


@needs_pool
@pytest.mark.parametrize("family,hp", FITS, ids=[f for f, _ in FITS])
def test_pinned_fit_writes_the_bytes_of_a_fit_on_two_threads(
        family, hp, monkeypatch):
    ds = dataset()
    with pool_size(2):
        pinned = train_model(family, ds, make_params(family, hp)).to_json()
        monkeypatch.setattr(models, "one_thread", nullcontext)
        direct = train_model(family, ds, make_params(family, hp)).to_json()
    assert pinned == direct


@needs_pool
def test_fit_runs_on_one_thread_and_restores_the_pool(monkeypatch):
    get, _ = blas._pool()
    family = FAMILIES["logreg"]
    seen = []

    def spy(X, labels, hp):
        seen.append(get())
        return family.fit(X, labels, hp)

    monkeypatch.setitem(FAMILIES, "logreg", family._replace(fit=spy))
    with pool_size(2):
        train_model("logreg", dataset(), family.params(max_iter=5))
        assert get() == 2
    assert seen == [1]


@needs_pool
def test_pool_is_restored_after_a_fit_that_raises():
    single_class = dataset(n=50, labels=np.ones(50, dtype=int))
    with pool_size(2):
        with pytest.raises(ValueError, match="both classes"):
            train_model("nn", single_class, make_params("nn", {}))
        assert blas._pool()[0]() == 2


@pytest.mark.parametrize("family,hp", FITS, ids=[f for f, _ in FITS])
def test_fits_run_without_an_openblas(monkeypatch, family, hp):
    ds = dataset()
    expected = train_model(family, ds, make_params(family, hp)).to_json()
    monkeypatch.setattr(blas, "_pool", lambda: None)
    assert train_model(family, ds, make_params(family, hp)).to_json() \
        == expected


def test_discovery_logs_its_outcome_once(caplog):
    blas._pool.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="botsift.models.blas"):
        blas._pool()
        blas._pool()
    assert len(caplog.records) == 1
