"""
Dense linear-algebra kernels used by every other module: a Hermitian
check, a 3x3 SVD (LAPACK) with a deterministic sign convention, and
triangular and symmetric positive-definite solves on Cholesky factors.

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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SvdResult3:
    """SVD of a real 3x3 matrix: t = u @ diag(singular_values) @ v.T.

    Singular values are sorted descending; the columns of ``u`` and ``v``
    are orthonormal.  The first nonzero component of every right singular
    vector is made nonnegative so the output is reproducible across
    platforms.
    """

    singular_values: np.ndarray  # (3,), descending, >= 0
    left_vectors: np.ndarray     # (3, 3), columns u_i
    right_vectors: np.ndarray    # (3, 3), columns v_i


def is_hermitian(m: np.ndarray, tol: float = EPS_HERM) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def svd3(t: np.ndarray) -> SvdResult3:
    """Singular value decomposition of a real 3x3 matrix (LAPACK).

    Degenerate and zero matrices still yield orthonormal bases; the sign
    convention of :class:`SvdResult3` fixes the remaining freedom.
    """
    t = np.array(t, dtype=float)
    if t.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("matrix entries must be finite")
    u, sigma, vt = np.linalg.svd(t)
    v = vt.T
    # Sign convention: first nonzero component of each right vector >= 0.
    first = np.argmax(np.abs(v) > 1e-12, axis=0)
    signs = np.where(v[first, np.arange(3)] < 0.0, -1.0, 1.0)
    return SvdResult3(singular_values=sigma, left_vectors=u * signs, right_vectors=v * signs)


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
