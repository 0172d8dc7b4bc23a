"""
Dense linear-algebra kernels used by every other module: Hermitian
eigendecomposition, a small hand-rolled 3x3 SVD with a deterministic sign
convention, Kronecker products, and symmetric positive-definite solves.

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
import scipy.linalg

from .errors import NonHermitianInput, NotPositiveDefinite

# Central tolerance record.
EPS_HERM = 1e-12    # max elementwise |M - M^dag| for "Hermitian"
EPS_RECON = 1e-10   # allowed reconstruction error of decompositions
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

_JACOBI_SWEEP_CAP = 60
_JACOBI_OFF_TOL = 1e-14


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


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues in ascending
    order and orthonormal eigenvectors as columns, so that
    m @ vecs[:, i] == vals[i] * vecs[:, i] up to roundoff.

    Raises NonHermitianInput if the symmetry tolerance is violated and
    NoConvergence if the underlying QL/QR iteration fails.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m):
        raise NonHermitianInput(
            f"matrix deviates from Hermitian by {np.max(np.abs(m - m.conj().T)):.3e}"
        )
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        from .errors import NoConvergence

        raise NoConvergence(str(exc)) from exc
    return vals, vecs


def svd3(t: np.ndarray) -> SvdResult3:
    """Singular value decomposition of a real 3x3 matrix.

    One-sided Jacobi: columns of a working copy of ``t`` are rotated until
    mutually orthogonal (equivalently, t.T @ t is diagonalized).  Cyclic
    sweeps stop once every off-diagonal Gram entry is below tolerance, with
    a hard sweep cap.  Degenerate and zero matrices still yield valid
    decompositions; left vectors for vanishing singular values are filled
    with an orthonormal completion.
    """
    t = np.array(t, dtype=float)
    if t.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("matrix entries must be finite")

    a = t.copy()
    v = np.eye(3)
    scale = max(1.0, float(np.sum(a * a)))
    for _ in range(_JACOBI_SWEEP_CAP):
        off = 0.0
        for p, q in ((0, 1), (0, 2), (1, 2)):
            cp = a[:, p]
            cq = a[:, q]
            gamma = float(cp @ cq)
            off = max(off, abs(gamma))
            if abs(gamma) <= _JACOBI_OFF_TOL * scale:
                continue
            alpha = float(cp @ cp)
            beta = float(cq @ cq)
            zeta = (beta - alpha) / (2.0 * gamma)
            tan = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
            if zeta == 0.0:
                tan = 1.0
            cos = 1.0 / np.hypot(1.0, tan)
            sin = cos * tan
            rot = np.array([[cos, sin], [-sin, cos]])
            a[:, [p, q]] = a[:, [p, q]] @ rot
            v[:, [p, q]] = v[:, [p, q]] @ rot
        if off <= _JACOBI_OFF_TOL * scale:
            break

    sigma = np.linalg.norm(a, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    a = a[:, order]
    v = v[:, order]

    u = np.zeros((3, 3))
    for j in range(3):
        if sigma[j] > 1e-300:
            u[:, j] = a[:, j] / sigma[j]
    _complete_orthonormal(u, sigma)

    # Sign convention: first nonzero component of each right vector >= 0.
    for j in range(3):
        nz = np.nonzero(np.abs(v[:, j]) > 1e-12)[0]
        if nz.size and v[nz[0], j] < 0.0:
            v[:, j] = -v[:, j]
            u[:, j] = -u[:, j]
    return SvdResult3(singular_values=sigma, left_vectors=u, right_vectors=v)


def _complete_orthonormal(u: np.ndarray, sigma: np.ndarray) -> None:
    """Fill columns of u belonging to (near-)zero singular values."""
    for j in range(3):
        if sigma[j] > 1e-14 and np.linalg.norm(u[:, j]) > 0.5:
            continue
        # Deterministic Gram-Schmidt against the columns already in place.
        for cand in np.eye(3):
            w = cand.copy()
            for k in range(3):
                if k != j and np.linalg.norm(u[:, k]) > 0.5:
                    w -= (u[:, k] @ w) * u[:, k]
            norm = np.linalg.norm(w)
            if norm > 1e-6:
                u[:, j] = w / norm
                break


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; entry (i*p+k, j*q+l) equals a[i,j]*b[k,l]."""
    return np.kron(np.asarray(a), np.asarray(b))


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


def solve_cholesky(ell: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back-substitution with a precomputed lower Cholesky factor."""
    y = scipy.linalg.solve_triangular(ell, b, lower=True, check_finite=False)
    return scipy.linalg.solve_triangular(ell.T, y, lower=False, check_finite=False)
