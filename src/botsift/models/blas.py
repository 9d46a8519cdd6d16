"""One OpenBLAS thread while a model is fit: a fit's products are small
(nn's 32-row mini-batches), so a second thread adds CPU time and saves
almost no wall time. OpenBLAS splits a product by output block, so the
results are the same at any pool size."""

from __future__ import annotations

import ctypes
import functools
import logging
from contextlib import contextmanager

logger = logging.getLogger(__name__)


@functools.cache
def _pool():
    """(get, set) of the thread count of the OpenBLAS in numpy's wheel,
    found among the libraries this process has loaded, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in maps if "openblas" in line})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        logger.debug("fits run on one BLAS thread of %s", path)
        return get, set_
    logger.debug("no OpenBLAS thread control found; fits use the BLAS "
                 "threads as they are")
    return None


@contextmanager
def one_thread():
    """Run the block with OpenBLAS on one thread, then restore the old
    count, also when the block raises; without _pool, just run it. The
    count is process-wide, so fits on concurrent threads would restore
    each other's."""
    pool = _pool()
    if pool is None:
        yield
        return
    get, set_ = pool
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
