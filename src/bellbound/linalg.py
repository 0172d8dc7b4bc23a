"""
Dense linear-algebra kernels shared by the other modules: a Hermitian
check, a Cholesky factorization with a pivot floor, and triangular and
symmetric positive-definite solves on Cholesky factors.

All routines are pure functions of plain numpy arrays (complex128 for
operator algebra, float64 for correlation matrices) and are safe to share
read-only across threads.

Importing this module pins the OpenBLAS copies bundled with numpy and
scipy to one thread, unless ``OPENBLAS_NUM_THREADS`` is set: the matrices
here are at most a few hundred wide, and on them a multithreaded BLAS is
many times slower than a single thread.
"""

from __future__ import annotations

import ctypes
import importlib
import os

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import NotPositiveDefinite

# Central tolerance record.
EPS_HERM = 1e-12    # max elementwise |M - M^dag| for "Hermitian"
EPS_CHOL = 1e-13    # smallest acceptable Cholesky pivot

# (extension module linked against a bundled OpenBLAS, thread setter of
# that copy).  dlsym on a module's handle also searches the libraries it
# links, so each setter resolves in its own copy.
_OPENBLAS_SETTERS = (
    ("numpy.linalg._umath_linalg", "scipy_openblas_set_num_threads64_"),
    ("scipy.linalg._fblas", "scipy_openblas_set_num_threads"),
)


def _pin_openblas() -> None:
    """Set each bundled OpenBLAS to one thread; skip copies not found."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    for module_name, symbol in _OPENBLAS_SETTERS:
        try:
            path = importlib.import_module(module_name).__file__
            setter = getattr(ctypes.CDLL(path), symbol)
        except (ImportError, OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)


_pin_openblas()


def is_hermitian(m: np.ndarray, tol: float = EPS_HERM) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def cholesky_spd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Raises NotPositiveDefinite when the factorization breaks down or any
    pivot (squared diagonal of the factor) is at or below EPS_CHOL.
    """
    try:
        ell = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if float(np.min(np.diag(ell)) ** 2) <= EPS_CHOL:
        raise NotPositiveDefinite("Cholesky pivot at or below threshold")
    return ell


def _upper_solve(u: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """u^-1 b (trans=0) or u^-T b (trans=1) for upper-triangular u, by LAPACK
    dtrtrs.  Raises LinAlgError on a zero pivot."""
    x, info = dtrtrs(u, b, lower=0, trans=trans)
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
