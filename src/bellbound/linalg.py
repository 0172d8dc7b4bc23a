"""
Dense linear-algebra kernels shared by the other modules: triangular and
symmetric positive-definite solves on Cholesky factors.

All routines are pure functions of plain numpy arrays (complex128 for
operator algebra, float64 for correlation matrices) and are safe to share
read-only across threads.

Importing this module pins the OpenBLAS copy bundled with numpy to one
thread, and the first triangular solve, the first use of scipy, pins
scipy's copy, unless ``OPENBLAS_NUM_THREADS`` is set: the matrices here are
at most a few hundred wide, and on them a multithreaded BLAS is many times
slower than a single thread.  scipy is imported only there, so code that
solves no SDP never loads it.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os

import numpy as np


def _pin_openblas(module_name: str, symbol: str) -> None:
    """Set the OpenBLAS copy that extension module ``module_name`` links to
    one thread through its setter ``symbol``; skip a copy not found.  dlsym
    on a module's handle also searches the libraries it links, so the
    setter resolves in that module's own copy."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    try:
        path = importlib.import_module(module_name).__file__
        setter = getattr(ctypes.CDLL(path), symbol)
    except (ImportError, OSError, AttributeError):
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)


_pin_openblas("numpy.linalg._umath_linalg", "scipy_openblas_set_num_threads64_")


@functools.cache
def _dtrtrs():
    """scipy's LAPACK dtrtrs, loaded at the first triangular solve.  It is
    bellbound's only use of scipy's BLAS, so pinning that copy here, before
    the first call, leaves it never used unpinned."""
    from scipy.linalg.lapack import dtrtrs

    _pin_openblas("scipy.linalg._fblas", "scipy_openblas_set_num_threads")
    return dtrtrs


def _upper_solve(u: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """u^-1 b (trans=0) or u^-T b (trans=1) for upper-triangular u, by LAPACK
    dtrtrs.  Raises LinAlgError on a zero pivot."""
    x, info = _dtrtrs()(u, b, lower=0, trans=trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


# The two solvers below make the LAPACK calls scipy.linalg.solve_triangular
# makes for a C-ordered factor, as np.linalg.cholesky returns: it hands
# LAPACK the Fortran-ordered transpose, an upper factor.  Calling dtrtrs
# directly gives the same bits without the wrapper's per-call overhead.


def solve_lower(ell: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ell^-1 b for a lower-triangular, C-ordered factor ``ell``."""
    return _upper_solve(ell.T, b, 1)


def solve_cholesky(ell: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back-substitution with a precomputed lower Cholesky factor."""
    return _upper_solve(ell.T, solve_lower(ell, b), 0)
