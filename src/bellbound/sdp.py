"""
Dense standard-form semidefinite programming:

    minimize / maximize   tr(C X)
    subject to            tr(A_i X) = b_i,   X >= 0 (PSD)

solved by an infeasible-start primal-dual path-following method with
Mehrotra predictor-corrector steps and the HKM scaling direction.  Newton
systems are reduced to the m x m Schur complement

    B_ij = tr(A_i X A_j S^-1),

which is symmetric positive definite and factored densely by Cholesky.
No sparsity is exploited beyond the constraint matrices themselves; the
moment matrices this package produces stay well under 50 x 50.

Also provided: the 4x4 Gram-matrix problem over unit-diagonal PSD
matrices whose optimum -2 pins the inner-product sum of the four optimal
Bob vectors, and the matching dual feasibility certificate.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import NotPositiveDefinite
from .linalg import cholesky_spd, solve_cholesky

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"

_MAX_ITER = 200
_GAP_TOL = 1e-8
_FEAS_TOL = 1e-8
_STEP_FRACTION = 0.98


def _checked_objective(c, n: int) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.shape != (n, n):
        raise ValueError("objective matrix shape mismatch")
    if np.max(np.abs(c - c.T)) > 1e-12:
        raise ValueError("objective matrix is not symmetric")
    return c


@dataclass(eq=False)
class SdpProblem:
    """Standard-form problem data.  Constraint matrices may be dense arrays
    or scipy sparse matrices; all must be symmetric.

    The constraints are validated and flattened into one m x n^2 operator
    when the problem is made; :meth:`with_objective` shares that operator
    with a copy that differs only in C."""

    n: int
    c: np.ndarray
    constraints: tuple  # ((A_i, b_i), ...)
    sense: str = "min"
    _amat: sp.csr_matrix = field(init=False, repr=False)
    _triplets: list = field(init=False, repr=False)
    _b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        self.c = _checked_objective(self.c, self.n)
        self.constraints = tuple(self.constraints)
        if not self.constraints:
            raise ValueError("at least one equality constraint is required")
        if len(self.constraints) > self.n * (self.n + 1) // 2:
            raise ValueError("more constraints than independent matrix entries")
        self._amat, self._triplets, self._b = _flatten_constraints(
            self.constraints, self.n
        )
        if not np.all(np.isfinite(self._b)):
            raise ValueError("constraint target must be finite")
        # Row i holds vec(A_i); its transpose permutes columns r*n+c -> c*n+r.
        cols = np.arange(self.n * self.n)
        transposed = (cols % self.n) * self.n + cols // self.n
        asym = (self._amat - self._amat[:, transposed]).data
        if asym.size and np.max(np.abs(asym)) > 1e-12:
            raise ValueError("constraint matrix is not symmetric")

    def with_objective(self, c) -> "SdpProblem":
        """Copy with objective ``c`` that shares the validated constraints."""
        other = copy.copy(self)
        other.c = _checked_objective(c, self.n)
        return other

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "C": self.c.tolist(),
                "constraints": [
                    {"A": (a.toarray() if sp.issparse(a) else a).tolist(), "b": float(b)}
                    for a, b in self.constraints
                ],
                "sense": self.sense,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SdpProblem":
        payload = json.loads(text)
        return cls(
            n=payload["n"],
            c=np.array(payload["C"], dtype=float),
            constraints=[
                (np.array(entry["A"], dtype=float), float(entry["b"]))
                for entry in payload["constraints"]
            ],
            sense=payload["sense"],
        )


@dataclass(eq=False)
class SdpSolution:
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
    history: list = field(default_factory=list, repr=False)


def _flatten_constraints(constraints, n):
    """CSR matrix of vectorized constraints plus per-constraint nnz triplets."""
    rows_idx, flat_idx, data = [], [], []
    triplets = []
    b = np.empty(len(constraints))
    for i, (a, bi) in enumerate(constraints):
        b[i] = bi
        if a.shape != (n, n):
            raise ValueError(f"constraint matrix has shape {a.shape}, expected {(n, n)}")
        if sp.issparse(a):
            coo = a.tocoo()
            r, c, v = coo.row, coo.col, coo.data
        else:
            r, c = np.nonzero(a)
            v = np.asarray(a)[r, c]
        triplets.append((r.astype(np.intp), c.astype(np.intp), v.astype(float)))
        rows_idx.append(np.full(r.size, i))
        flat_idx.append(r * n + c)
        data.append(v)
    amat = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows_idx), np.concatenate(flat_idx))),
        shape=(len(constraints), n * n),
    )
    return amat, triplets, b


class _IterateBreakdown(Exception):
    """An iterate lost numerical positive definiteness; stop iterating."""


def _chol_interior(m: np.ndarray) -> np.ndarray:
    # No pivot floor here: late iterates are legitimately ill-conditioned.
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise _IterateBreakdown(str(exc)) from exc


def _max_step(m: np.ndarray, dm: np.ndarray) -> float:
    """Largest alpha with m + alpha*dm PSD, via the generalized eigenbound."""
    ell = _chol_interior(m)
    w = scipy.linalg.solve_triangular(ell, dm, lower=True, check_finite=False)
    w = scipy.linalg.solve_triangular(ell, w.T, lower=True, check_finite=False)
    lam_min = float(np.linalg.eigvalsh(0.5 * (w + w.T))[0])
    if lam_min >= -1e-12:
        return np.inf
    return -1.0 / lam_min


def _safe_step(m: np.ndarray, dm: np.ndarray, alpha: float) -> float:
    """Shrink alpha until m + alpha*dm actually factors."""
    for _ in range(40):
        if alpha < 1e-12:
            return 0.0
        cand = m + alpha * dm
        try:
            np.linalg.cholesky(0.5 * (cand + cand.T))
            return alpha
        except np.linalg.LinAlgError:
            alpha *= 0.5
    return 0.0


def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point iteration to the 1e-8 relative tolerances.

    Returns a solution whose ``status`` is ``optimal`` when all stopping
    criteria were met, ``max_iterations`` when the iteration cap was hit
    (the best iterate is still returned with its achieved residuals), or
    ``numerical_failure`` when a Newton system lost definiteness
    irrecoverably.
    """
    n = problem.n
    maximize = problem.sense == "max"
    c_int = -problem.c if maximize else problem.c
    c_int = 0.5 * (c_int + c_int.T)
    amat, triplets, b = problem._amat, problem._triplets, problem._b
    m = len(problem.constraints)

    norm_c = float(np.linalg.norm(c_int))
    tau = max(1.0, norm_c, float(np.max(np.abs(b))))
    x = tau * np.eye(n)
    s = tau * np.eye(n)
    y = np.zeros(m)
    eye = np.eye(n)

    history: list[dict] = []
    status = MAX_ITERATIONS
    iterations = 0
    pres = dres = np.inf
    best = [np.inf, np.inf, np.inf]  # rel_gap, pres, dres
    prev_objs = (np.inf, np.inf)
    since_progress = 0
    best_worst = np.inf
    best_iterate = (x.copy(), y.copy(), s.copy())
    broke_down = False

    def record():
        pobj_int = float(np.sum(c_int * x))
        dobj_int = float(b @ y)
        pobj = -pobj_int if maximize else pobj_int
        dobj = -dobj_int if maximize else dobj_int
        rp = b - amat @ x.ravel()
        rd = c_int - s - (amat.T @ y).reshape(n, n)
        pr = float(np.max(np.abs(rp))) / (1.0 + float(np.max(np.abs(b))))
        dr = float(np.max(np.abs(rd))) / (1.0 + float(np.max(np.abs(c_int))))
        mu = float(np.sum(x * s)) / n
        history.append(
            {
                "primal_obj": pobj,
                "dual_obj": dobj,
                "mu": mu,
                "primal_residual": pr,
                "dual_residual": dr,
            }
        )
        return pobj, dobj, rp, rd, pr, dr, mu

    for iterations in range(_MAX_ITER + 1):
        pobj, dobj, rp, rd, pres, dres, mu = record()
        if not (np.isfinite(pobj) and np.isfinite(mu) and np.isfinite(pres)) or mu < 0:
            broke_down = True  # iterate diverged; fall back to the best one
            break
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        worst = max(rel_gap, pres, dres)
        if worst < best_worst:
            best_worst = worst
            best_iterate = (x.copy(), y.copy(), s.copy())
        if rel_gap <= _GAP_TOL and pres <= _FEAS_TOL and dres <= _FEAS_TOL:
            status = OPTIMAL
            break
        progressed = False
        for slot, value in enumerate((rel_gap, pres, dres)):
            if value < 0.99 * best[slot]:
                best[slot] = value
                progressed = True
        if (
            abs(pobj - prev_objs[0]) > 1e-9 * (1.0 + abs(pobj))
            or abs(dobj - prev_objs[1]) > 1e-9 * (1.0 + abs(dobj))
        ):
            progressed = True
        prev_objs = (pobj, dobj)
        since_progress = 0 if progressed else since_progress + 1
        if iterations == _MAX_ITER or mu < 1e-14 or since_progress > 20:
            break

        try:
            ell_s = _chol_interior(s)
            s_inv = solve_cholesky(ell_s, eye)
            s_inv = 0.5 * (s_inv + s_inv.T)

            # Schur complement B_ij = tr(A_i X A_j S^-1), assembled from the
            # sparse constraint triplets: X A_j S^-1 is a sum of rank-one
            # terms X[:, r] (x) S^-1[c, :].
            kmat = np.empty((m, n * n))
            for j, (rr, cc, vv) in enumerate(triplets):
                kmat[j] = ((x[:, rr] * vv) @ s_inv[cc, :]).ravel()
            schur = amat @ kmat.T
            schur = 0.5 * (schur + schur.T)

            # Jacobi-scaled Cholesky with escalating regularization; the raw
            # Schur matrix mixes rows of very different magnitudes.
            diag_scale = np.sqrt(np.clip(np.diag(schur), 1e-300, None))
            scaled = schur / diag_scale[:, None] / diag_scale[None, :]
            ell_b = None
            reg = 1e-14
            for attempt in range(6):
                try:
                    ell_b = cholesky_spd(scaled + reg * np.eye(m))
                    break
                except NotPositiveDefinite:
                    reg *= 1e3
            if ell_b is None:
                status = NUMERICAL_FAILURE
                break

            def newton_solve(rhs):
                dy = solve_cholesky(ell_b, rhs / diag_scale) / diag_scale
                for _ in range(2):  # refinement against the unscaled system
                    dy += (
                        solve_cholesky(ell_b, (rhs - schur @ dy) / diag_scale)
                        / diag_scale
                    )
                return dy

            x_rd_sinv = x @ rd @ s_inv

            # Predictor (affine scaling, target 0).
            rhs_aff = b + amat @ x_rd_sinv.ravel()
            dy_a = newton_solve(rhs_aff)
            ds_a = rd - (amat.T @ dy_a).reshape(n, n)
            ds_a = 0.5 * (ds_a + ds_a.T)
            dx_a = -x - x @ ds_a @ s_inv
            dx_a = 0.5 * (dx_a + dx_a.T)

            alpha_p = min(1.0, _max_step(x, dx_a))
            alpha_d = min(1.0, _max_step(s, ds_a))
            mu_aff = max(
                0.0,
                float(np.sum((x + alpha_p * dx_a) * (s + alpha_d * ds_a))) / n,
            )
            sigma = min(1.0, max(0.0, (mu_aff / max(mu, 1e-300)) ** 3))
            nu = sigma * mu

            # Corrector with second-order term dX_a dS_a.
            cross = dx_a @ ds_a @ s_inv
            rhs = (
                b
                - nu * (amat @ s_inv.ravel())
                + amat @ x_rd_sinv.ravel()
                + amat @ cross.ravel()
            )
            dy = newton_solve(rhs)
            ds = rd - (amat.T @ dy).reshape(n, n)
            ds = 0.5 * (ds + ds.T)
            dx = nu * s_inv - x - (x @ ds + dx_a @ ds_a) @ s_inv
            dx = 0.5 * (dx + dx.T)

            alpha_p = min(1.0, _STEP_FRACTION * _max_step(x, dx))
            alpha_d = min(1.0, _STEP_FRACTION * _max_step(s, ds))
        except _IterateBreakdown:
            broke_down = True  # cannot factor the current iterate any further
            break

        # Roundoff near a degenerate face can make the nominal step leave
        # the cone; backtrack until both updates factor.
        alpha_p = _safe_step(x, dx, alpha_p)
        alpha_d = _safe_step(s, ds, alpha_d)
        if max(alpha_p, alpha_d) < 1e-9:
            break  # stalled; keep the best-effort iterate

        x = 0.5 * ((x + alpha_p * dx) + (x + alpha_p * dx).T)
        s = 0.5 * ((s + alpha_d * ds) + (s + alpha_d * ds).T)
        y = y + alpha_d * dy

    if status != OPTIMAL:
        last = history[-1]
        finite = all(np.isfinite(v) for v in last.values())
        if not finite or last["mu"] < 0:
            # The iterate diverged or left the cone; fall back to the most
            # balanced iterate seen.
            x, y, s = best_iterate
            record()
        if broke_down:
            status = MAX_ITERATIONS if best_worst <= 1e-5 else NUMERICAL_FAILURE

    final = history[-1]
    y_report = -y if maximize else y
    return SdpSolution(
        x=x,
        y=y_report,
        s=s,
        primal_obj=final["primal_obj"],
        dual_obj=final["dual_obj"],
        gap=final["primal_obj"] - final["dual_obj"],
        status=status,
        iterations=iterations,
        primal_residual=final["primal_residual"],
        dual_residual=final["dual_residual"],
        history=history,
    )


def gram_problem() -> SdpProblem:
    """Minimize the off-diagonal inner-product sum of four unit vectors.

    Variables form the 4x4 Gram matrix M of the Bob vectors; the objective
    is (1/2) tr(M W) with W the all-ones-off-diagonal matrix, constrained
    by m_ii = 1 and M PSD.  The optimum is -2.
    """
    w = np.ones((4, 4)) - np.eye(4)
    constraints = []
    for i in range(4):
        a = np.zeros((4, 4))
        a[i, i] = 1.0
        constraints.append((a, 1.0))
    return SdpProblem(n=4, c=0.5 * w, constraints=constraints, sense="min")


def dual_certificate_check(v: np.ndarray) -> tuple[float, bool]:
    """Feasibility of a dual vector: min eigenvalue of W/2 - diag(v)."""
    v = np.asarray(v, dtype=float)
    w = np.ones((4, 4)) - np.eye(4)
    # eigh, not eigvalsh: the two LAPACK paths differ in the last bits,
    # and this eigenvalue (about 1e-9) is printed to 12 digits.
    vals = np.linalg.eigh(0.5 * w - np.diag(v))[0]
    min_eig = float(vals[0])
    return min_eig, min_eig >= -1e-9
