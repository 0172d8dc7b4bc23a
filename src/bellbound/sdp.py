"""
Dense standard-form semidefinite programming:

    minimize     tr(C X)
    subject to   tr(A_i X) = b_i,   X >= 0 (PSD)

solved by an infeasible-start primal-dual path-following method with
Mehrotra predictor-corrector steps and the HKM scaling direction.  Newton
systems are reduced to the m x m Schur complement

    B_ij = tr(A_i X A_j S^-1),

which is symmetric positive definite and factored densely by Cholesky.
It is assembled as in SDPA for sparse constraints (Fujisawa, Kojima &
Nakata, Math. Prog. 79 (1997)): row j of an m x n^2 matrix K holds
vec(X A_j S^-1), a sum of one rank-one term per nonzero of A_j, and
B = A K^T.  A problem takes the constraints as that one m x n^2 operator
A, row i being vec(A_i), and keeps it in CSR.  Its rows are batched by
nonzero count when the problem is made, so K is filled by one stacked
matrix product per group rather than one product per constraint.  No
other sparsity is exploited; the moment matrices this package produces
stay well under 50 x 50.  X and S are factored in one
place, the step search that backtracks until the next iterate factors;
that factor serves the next iterate's S^-1 and step-length searches.

Also provided: the 4x4 Gram-matrix problem over unit-diagonal PSD
matrices whose optimum -2 pins the inner-product sum of the four optimal
Bob vectors, and the matching dual feasibility certificate.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .linalg import solve_cholesky, solve_lower

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"
BOUNDED = "bounded"
_STATUS = {OPTIMAL: OPTIMAL, BOUNDED: BOUNDED, "iteration_cap": MAX_ITERATIONS,
           "stalled": MAX_ITERATIONS, "schur_breakdown": NUMERICAL_FAILURE,
           "diverged": NUMERICAL_FAILURE}  # status of each reason

_MAX_ITER = 200
_STALL = 80  # iterates without a new smallest certificate; see solve
_GAP_TOL = 1e-8
_FEAS_TOL = 1e-8
_STEP_FRACTION = 0.98


def _checked_objective(c, b, n: int, m: int):
    """C as a finite symmetric n x n array and b as m finite targets."""
    c, b = np.asarray(c, dtype=float), np.array(b, dtype=float)
    if c.shape != (n, n):
        raise ValueError("objective matrix shape mismatch")
    if not np.all(np.isfinite(c)):
        raise ValueError("objective matrix must be finite")
    if np.max(np.abs(c - c.T)) > 1e-12:
        raise ValueError("objective matrix is not symmetric")
    if b.shape != (m,) or not np.all(np.isfinite(b)):
        raise ValueError(f"need {m} finite constraint targets")
    return c, b


@dataclass(eq=False)
class SdpProblem:
    """Standard-form problem data: ``a`` is the m x n^2 constraint operator
    whose row i is vec(A_i), dense or scipy sparse, each A_i symmetric, and
    ``b`` the m targets.

    The operator is copied into canonical CSR (duplicates summed, columns
    sorted), validated and its rows grouped by nonzero count when the
    problem is made; :meth:`with_objective` shares it with a copy that
    differs only in C and b."""

    n: int
    c: np.ndarray
    a: object  # canonical scipy.sparse CSR after __post_init__
    b: np.ndarray
    _groups: tuple = field(init=False, repr=False)

    def __post_init__(self):
        import scipy.sparse as sp

        n = self.n
        self.a = sp.csr_matrix(self.a, dtype=float, copy=True)
        self.a.sum_duplicates()
        m, width = self.a.shape
        if width != n * n:
            raise ValueError(f"constraint operator has width {width}, expected {n * n}")
        if not 0 < m <= n * (n + 1) // 2:
            raise ValueError(f"need 1 to n(n+1)/2 = {n * (n + 1) // 2} constraints, got {m}")
        self.c, self.b = _checked_objective(self.c, self.b, n, m)
        if not np.all(np.isfinite(self.a.data)):
            raise ValueError("constraint matrix must be finite")
        # Row i holds vec(A_i); its transpose permutes columns r*n+c -> c*n+r.
        cols = np.arange(n * n)
        asym = (self.a - self.a[:, (cols % n) * n + cols // n]).data
        if asym.size and np.max(np.abs(asym)) > 1e-12:
            raise ValueError("constraint matrix is not symmetric")
        # (js, R, C, V) per nonzero count: the rows js and their nonzeros' (r, c, v).
        sizes = np.diff(self.a.indptr)
        groups = []
        for k in np.unique(sizes):
            js = np.flatnonzero(sizes == k)
            at = self.a.indptr[js][:, None] + np.arange(k)
            flat = self.a.indices[at]
            groups.append((js, flat // n, flat % n, self.a.data[at]))
        self._groups = tuple(groups)

    @property
    def constraints(self) -> tuple:
        """A_1..A_m as n x n CSR matrices, rebuilt from ``a`` at each read."""
        import scipy.sparse as sp

        return tuple(map(sp.csr_matrix, self.a.toarray().reshape(-1, self.n, self.n)))

    def with_objective(self, c, b) -> "SdpProblem":
        """Copy with objective ``c`` and targets ``b`` that shares the
        validated operator and its groups."""
        other = copy.copy(self)
        other.c, other.b = _checked_objective(c, b, self.n, self.a.shape[0])
        return other


@dataclass(eq=False)
class SdpSolution:
    """The iterate a solve returns, with its objectives, gap and residuals,
    and the solve's ``certificate``.

    ``dual_obj`` is b.y at the returned dual iterate, and that iterate is
    feasible only to about 1e-9, so ``dual_obj`` is not a certified lower
    bound on the optimum: on one ebi level-1 guessing solve it read
    0.9274234798 against an optimum of 0.9274234517 found by re-solving at
    1e-11.  The bound this package reports is ``certificate``, the smallest
    finite certificate of the iterates the solve ranked (see :func:`solve`;
    infinite if there was none).  Every solution but an ``optimal`` one is
    the iterate it was read from; an ``optimal`` one is the last iterate,
    whose certificate may be a little larger.  A ``bounded`` solution is the
    first iterate whose certificate fell below the solve's ``stop_below``: a
    valid bound, not a near-optimal one.
    """

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    primal_obj: float
    dual_obj: float
    gap: float
    status: str
    iterations: int
    primal_residual: float
    dual_residual: float
    certificate: float
    history: list = field(default_factory=list, repr=False)
    reason: str = ""  # optimal, bounded, iteration_cap, stalled, schur_breakdown or diverged


def _max_step(ell: np.ndarray, dm: np.ndarray) -> float:
    """Largest alpha with m + alpha*dm PSD, via the generalized eigenbound;
    ``ell`` is the lower Cholesky factor of m."""
    w = solve_lower(ell, dm)
    w = solve_lower(ell, w.T)
    lam_min = float(np.linalg.eigvalsh(0.5 * (w + w.T))[0])
    if lam_min >= -1e-12:
        return np.inf
    return -1.0 / lam_min


def _schur_complement(problem: SdpProblem, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
    """The Schur matrix B_ij = tr(A_i X A_j S^-1), symmetrized.

    Row j of kmat is vec(X A_j S^-1), the sum over the nonzeros (r, c, v)
    of A_j of v X[:, r] (x) S^-1[c, :]; each group of constraints with the
    same nonzero count is one batched product.  Each constraint's nonzeros
    are summed in row-major order, the order ``np.nonzero`` and canonical
    CSR list them, so the sums are those of a loop over the constraints one
    at a time; the tests compare the two bit for bit."""
    n = problem.n
    kmat = np.empty((problem.a.shape[0], n * n))
    xt = x.T
    for js, rr, cc, vv in problem._groups:
        kmat[js] = np.matmul(
            (xt[rr] * vv[..., None]).transpose(0, 2, 1), s_inv[cc]
        ).reshape(-1, n * n)
    schur = problem.a @ kmat.T
    return 0.5 * (schur + schur.T)


def _step(m: np.ndarray, ell: np.ndarray, dm: np.ndarray, alpha: float):
    """Shrink alpha until the symmetrized m + alpha*dm factors.

    Returns (alpha, next iterate, its lower Cholesky factor), or
    (0, m, ell) when alpha falls below 1e-12.  No pivot floor here: late
    iterates are legitimately ill-conditioned."""
    while alpha >= 1e-12:
        cand = m + alpha * dm
        cand = 0.5 * (cand + cand.T)
        try:
            return alpha, cand, np.linalg.cholesky(cand)
        except np.linalg.LinAlgError:
            alpha *= 0.5
    return 0.0, m, ell


def solve(problem: SdpProblem, stop_below: float = -np.inf, start=None) -> SdpSolution:
    """Run the interior-point iteration to the 1e-8 relative tolerances, or
    until an iterate certifies a value below ``stop_below``.

    An iterate's certificate, kept in ``history``, is tr(C X) +
    ||b - A vec X||_1.  X factors at every iterate, so it is PSD, and with
    b.y = tr(C X) - tr(S X) + y.(b - A vec X) the certificate bounds b.y
    from above for every dual-feasible y with |y_i| <= 1 (Jansen, Chaykin &
    Keil, SIAM J. Numer. Anal. 46 (2007)): the optimum, when some optimal y
    lies in that box.  The Gram problem's (y = -1/2) and every moment
    vector do.  Elsewhere a certificate can undercut the optimum: on the
    sixth ``engineered_problem`` of the tests' ``default_rng(66)``, whose
    optimal y reaches |y_i| = 2.2, iterate 0 certifies -37.7 against an
    optimum of -17.4.  The ranking below, the stall and ``bounded`` all
    rely on the box.  The smallest finite certificate of the iterates that
    did not diverge is the solution's ``certificate``.  ``reason`` names the
    stop that fired:
    ``optimal`` (every tolerance met), ``bounded`` (the certificate is below
    ``stop_below``), ``iteration_cap`` (200 iterates), ``stalled`` (80
    iterates with no new smallest certificate, above the 71 of the longest
    such run in an optimal solve of the test suite), ``schur_breakdown``
    (the Schur matrix would not factor) or ``diverged`` (the iterate or a
    direction is not finite, or mu < 0); ``status`` follows from it.
    ``optimal`` returns the last iterate; every other stop returns the one
    with the smallest certificate, recorded once more at the end of
    ``history`` when it is not the last (a ``bounded`` iterate is that one,
    as no earlier certificate fell below ``stop_below``).  The test only
    reads the iterate, so a solve that does not stop ``bounded`` runs the
    same iterates, bit for bit, whatever ``stop_below``.

    ``start`` = (X, y, S), shaped (n, n), (m,) and (n, n) or a ValueError,
    is iterate 0 of the one loop, in place of the default start, and meets
    the same stops.  If ``optimal`` or ``bounded`` fires there it is
    returned with ``iterations`` 0.  A refused start (one that fires
    neither, is not finite, or whose X or S does not factor) yields the
    cold solve of the same problem and ``stop_below``.
    """
    return _solve(problem, stop_below, start)


def _solve(problem: SdpProblem, stop_below: float, start) -> SdpSolution:
    """:func:`solve`.  A refused start re-enters here, not through ``solve``,
    so each call of ``solve`` is one call whatever wraps that name."""
    n = problem.n
    c_int = 0.5 * (problem.c + problem.c.T)
    amat, b = problem.a, problem.b
    amat_t = amat.T
    m = amat.shape[0]
    history: list[dict] = []

    def record():
        pobj = float(np.sum(c_int * x))
        dobj = float(b @ y)
        rp = b - amat @ x.ravel()
        rd = c_int - s - (amat_t @ y).reshape(n, n)
        pr = float(np.max(np.abs(rp))) / (1.0 + float(np.max(np.abs(b))))
        dr = float(np.max(np.abs(rd))) / (1.0 + float(np.max(np.abs(c_int))))
        mu = float(np.sum(x * s)) / n
        cert = _certificate(pobj, rp)
        history.append(
            {
                "primal_obj": pobj,
                "dual_obj": dobj,
                "mu": mu,
                "primal_residual": pr,
                "dual_residual": dr,
                "certificate": cert,
            }
        )
        return rd, pobj, dobj, pr, dr, mu, cert

    if start is None:
        tau = max(1.0, float(np.linalg.norm(c_int)), float(np.max(np.abs(b))))
        x = s = tau * np.eye(n)
        ell_x = ell_s = np.linalg.cholesky(x)
        y = np.zeros(m)
    else:
        x, y, s = (np.asarray(v, dtype=float) for v in start)
        if x.shape != (n, n) or s.shape != (n, n) or y.shape != (m,):
            raise ValueError(f"start must be shaped ({n}, {n}), ({m},), ({n}, {n})")
        if not all(np.isfinite(v).all() for v in (x, y, s)):
            return _solve(problem, stop_below, None)
        try:
            ell_x, ell_s = np.linalg.cholesky(x), np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return _solve(problem, stop_below, None)
    eye = np.eye(n)
    eye_m = np.eye(m)
    best_cert, best_at, best_iterate = np.inf, 0, (x, y, s)

    for iterations in range(_MAX_ITER + 1):
        rd, pobj, dobj, pres, dres, mu, cert = record()
        if not np.all(np.isfinite([pobj, dobj, mu, pres, dres])) or mu < 0:
            reason = "diverged"
        else:
            if cert < best_cert:  # never true of a certificate that is not finite
                best_cert, best_at, best_iterate = cert, iterations, (x, y, s)
            rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            reason = (OPTIMAL if rel_gap <= _GAP_TOL and pres <= _FEAS_TOL and dres <= _FEAS_TOL
                      else BOUNDED if cert < stop_below
                      else "iteration_cap" if iterations == _MAX_ITER
                      else "stalled" if iterations - best_at >= _STALL else "")
        if start is not None and reason not in (OPTIMAL, BOUNDED):
            return _solve(problem, stop_below, None)  # refused at iterate 0
        if reason:
            break

        s_inv = solve_cholesky(ell_s, eye)
        s_inv = 0.5 * (s_inv + s_inv.T)

        schur = _schur_complement(problem, x, s_inv)

        # Jacobi-scaled, as rows differ widely in magnitude.  One Cholesky
        # under a fixed 1e-14 shift, with no pivot floor (as for X and S in
        # _step) and no retry: if it fails, the solve stops.
        diag_scale = np.sqrt(np.clip(np.diag(schur), 1e-300, None))
        scaled = schur / diag_scale[:, None] / diag_scale[None, :]
        try:
            ell_b = np.linalg.cholesky(scaled + 1e-14 * eye_m)
        except np.linalg.LinAlgError:
            reason = "schur_breakdown"
            break

        a_sinv = amat @ s_inv.ravel()
        a_xrd = amat @ (x @ rd @ s_inv).ravel()

        def direction(nu, corr):
            """Newton direction (dx, dy, ds) toward X S = nu I; ``corr`` is
            the second-order term dX dS of the corrector, zero otherwise."""
            rhs = b - nu * a_sinv + a_xrd + amat @ (corr @ s_inv).ravel()
            dy = solve_cholesky(ell_b, rhs / diag_scale) / diag_scale
            for _ in range(2):  # refinement against the unscaled system
                dy += (
                    solve_cholesky(ell_b, (rhs - schur @ dy) / diag_scale)
                    / diag_scale
                )
            ds = rd - (amat_t @ dy).reshape(n, n)
            ds = 0.5 * (ds + ds.T)
            dx = nu * s_inv - x - (x @ ds + corr) @ s_inv
            return 0.5 * (dx + dx.T), dy, ds

        try:
            # Predictor (affine scaling, target 0).
            dx_a, _, ds_a = direction(0.0, np.zeros((n, n)))

            alpha_p = min(1.0, _max_step(ell_x, dx_a))
            alpha_d = min(1.0, _max_step(ell_s, ds_a))
            mu_aff = max(
                0.0,
                float(np.sum((x + alpha_p * dx_a) * (s + alpha_d * ds_a))) / n,
            )
            sigma = min(1.0, max(0.0, (mu_aff / max(mu, 1e-300)) ** 3))

            # Corrector with second-order term dX_a dS_a.
            dx, dy, ds = direction(sigma * mu, dx_a @ ds_a)

            alpha_p = min(1.0, _STEP_FRACTION * _max_step(ell_x, dx))
            alpha_d = min(1.0, _STEP_FRACTION * _max_step(ell_s, ds))
        except np.linalg.LinAlgError:  # eigvalsh on a non-finite direction
            reason = "diverged"
            break

        # Roundoff near a degenerate face can make the nominal step leave
        # the cone; backtrack until both updates factor.
        _, x, ell_x = _step(x, ell_x, dx, alpha_p)
        alpha_d, s, ell_s = _step(s, ell_s, ds, alpha_d)
        y = y + alpha_d * dy

    if reason != OPTIMAL and best_at != iterations:
        # One exit for every other stop: the smallest certificate seen.
        x, y, s = best_iterate
        record()
    final = history[-1]
    return SdpSolution(
        x=x,
        y=y,
        s=s,
        primal_obj=final["primal_obj"],
        dual_obj=final["dual_obj"],
        gap=final["primal_obj"] - final["dual_obj"],
        status=_STATUS[reason],
        iterations=iterations,
        primal_residual=final["primal_residual"],
        dual_residual=final["dual_residual"],
        certificate=best_cert,
        history=history,
        reason=reason,
    )


def _certificate(objective: float, residual: np.ndarray) -> float:
    """tr(C X) + ||b - A vec X||_1 from tr(C X) and the residual b - A vec X:
    the one formula behind every certificate.  Rounding in its evaluation is
    not accounted for."""
    return float(objective + np.sum(np.abs(residual)))


def gram_problem() -> SdpProblem:
    """Minimize the off-diagonal inner-product sum of four unit vectors.

    Variables form the 4x4 Gram matrix M of the Bob vectors; the objective
    is (1/2) tr(M W) with W the all-ones-off-diagonal matrix, constrained
    by m_ii = 1 and M PSD.  The optimum is -2.
    """
    w = np.ones((4, 4)) - np.eye(4)
    # Row i is vec(e_i e_i^T): a one at flat index 5 i.
    return SdpProblem(n=4, c=0.5 * w, a=np.eye(16)[::5], b=np.ones(4))


def dual_certificate_check(v: np.ndarray) -> tuple[float, bool]:
    """Feasibility of a dual vector of :func:`gram_problem`: min eigenvalue
    of C - sum_i v_i A_i, read off the problem's own ``c`` and ``a``."""
    problem = gram_problem()
    v = np.asarray(v, dtype=float)
    slack = problem.c - (problem.a.T @ v).reshape(problem.n, problem.n)
    # eigh, not eigvalsh: the two LAPACK paths differ in the last bits,
    # and this eigenvalue (about 1e-9) is printed to 12 digits.
    vals = np.linalg.eigh(slack)[0]
    min_eig = float(vals[0])
    return min_eig, min_eig >= -1e-9
