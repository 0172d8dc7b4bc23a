"""
Moment-matrix relaxations for bipartite two-outcome scenarios.

A relaxation level picks a list of operator words (monomials) built from
one projector per party per setting; the moment matrix M[i, j] = <w_i^dag w_j>
is PSD and its entries repeat according to the operator identities
(projector idempotence, commutation between the parties, and invariance
of real moments under word reversal).  Maximizing a Bell functional over
this spectrahedron upper-bounds the quantum value; maximizing an outcome
probability p(ab|xy) at a fixed Bell value lower-bounds the certifiable
randomness -log2 p*.

Both problems use one reduced formulation: the moments of the entry
classes are the variables, M(z) = z[entry_class], and every constraint
matrix is a sparse combination of columns of one class-indicator operator
per moment structure (see :func:`_reduced_sdp`).  Every basis starts with
1, P_0..P_{k-1}, Q_0..Q_{l-1}, so the classes of the first-order moments
<P_x>, <Q_y> and <P_x Q_y> are read straight off ``entry_class``.

Observables are encoded as A = 2 P - I, so correlators expand as
<A_x B_y> = 4 <P_x Q_y> - 2 <P_x> - 2 <Q_y> + 1, and outcome
probabilities as p(00|xy) = <P_x Q_y>, p(01|xy) = <P_x> - <P_x Q_y>, etc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import bell as _bell
from .bell import BellExpression, classical_bound
from .errors import InfeasibleValue, OutOfRange, SolverError, UnsupportedLevel
from .sdp import MAX_ITERATIONS, OPTIMAL, SdpProblem, SdpSolution, solve

LEVELS = ("1", "1+AB", "2")

# Accuracy an SDP solve must reach before its value is trusted here.
_ACCEPT_GAP = 1e-6
_ACCEPT_RES = 1e-6


@dataclass(frozen=True)
class Monomial:
    """A word of projector symbols in canonical party order.

    Alice symbols come first (the parties commute) and no symbol repeats
    immediately (projectors are idempotent).
    """

    alice: tuple[int, ...]
    bob: tuple[int, ...]


def _collapse(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for sym in word:
        if out and out[-1] == sym:
            continue
        out.append(sym)
    return tuple(out)


def _moment_key(alice: tuple[int, ...], bob: tuple[int, ...]):
    """Canonical label of <word>: reversal leaves real moments unchanged."""
    forward = (alice, bob)
    backward = (alice[::-1], bob[::-1])
    return min(forward, backward)


@dataclass(frozen=True, eq=False)
class MomentStructure:
    """Indexed monomial basis and entry-equivalence classes of one level."""

    monomials: tuple[Monomial, ...]
    size: int
    entry_class: np.ndarray        # (size, size) class index per entry
    class_count: int
    class_indicator: sp.csc_matrix  # (size**2, class_count) 0/1, column c = class c


def _normalize_level(level) -> str:
    text = str(level)
    if text not in LEVELS:
        raise UnsupportedLevel(f"level must be one of {LEVELS}, got {level!r}")
    return text


def _monomial_list(k: int, l: int, level: str) -> list[Monomial]:
    words = [Monomial((), ())]
    words += [Monomial((x,), ()) for x in range(k)]
    words += [Monomial((), (y,)) for y in range(l)]
    if level == "2":
        words += [
            Monomial((x1, x2), ())
            for x1 in range(k)
            for x2 in range(k)
            if x1 != x2
        ]
        words += [
            Monomial((), (y1, y2))
            for y1 in range(l)
            for y2 in range(l)
            if y1 != y2
        ]
    if level in ("1+AB", "2"):
        words += [Monomial((x,), (y,)) for x in range(k) for y in range(l)]
    return words


@lru_cache(maxsize=None)
def _structure_cached(k: int, l: int, level: str) -> MomentStructure:
    if k < 1 or l < 1:
        raise OutOfRange("each party needs at least one setting")
    monomials = _monomial_list(k, l, level)
    size = len(monomials)
    entry_class = np.zeros((size, size), dtype=np.int64)
    key_to_class: dict = {}
    for i in range(size):
        for j in range(i, size):
            wi, wj = monomials[i], monomials[j]
            aw = _collapse(wi.alice[::-1] + wj.alice)
            bw = _collapse(wi.bob[::-1] + wj.bob)
            key = _moment_key(aw, bw)
            cid = key_to_class.get(key)
            if cid is None:
                cid = len(key_to_class)
                key_to_class[key] = cid
            entry_class[i, j] = entry_class[j, i] = cid
    class_count = len(key_to_class)
    return MomentStructure(
        monomials=tuple(monomials),
        size=size,
        entry_class=entry_class,
        class_count=class_count,
        class_indicator=sp.csc_matrix(
            (np.ones(size * size), (np.arange(size * size), entry_class.ravel())),
            shape=(size * size, class_count),
        ),
    )


def build_moment_structure(alice_settings: int, bob_settings: int, level):
    return _structure_cached(alice_settings, bob_settings, _normalize_level(level))


def _first_order_classes(ms: MomentStructure, expr: BellExpression):
    """Classes of <P_x>, <Q_y> and <P_x Q_y> in the scenario of ``expr``:
    entries (0, 1+x), (0, 1+k+y) and (1+x, 1+k+y) of ``entry_class``."""
    k, l = expr.alice_settings, expr.bob_settings
    ec = ms.entry_class
    return ec[0, 1:1 + k], ec[0, 1 + k:1 + k + l], ec[1:1 + k, 1 + k:1 + k + l]


def _bell_functional(ms: MomentStructure, expr: BellExpression):
    """Class vector g and constant with g . y + const = Bell value."""
    alice, bob, joint = _first_order_classes(ms, expr)
    g = np.zeros(ms.class_count)
    const = 0.0
    for x in range(expr.alice_settings):
        for y in range(expr.bob_settings):
            c = float(expr.coeffs[x, y])
            if c == 0.0:
                continue
            g[joint[x, y]] += 4.0 * c
            g[alice[x]] += -2.0 * c
            g[bob[y]] += -2.0 * c
            const += c
    return g, const


def _prob_functional(ms: MomentStructure, expr: BellExpression, x: int, y: int,
                     a: int, b: int):
    """p(ab|xy) in the scenario of ``expr`` as class vector plus constant.

    With s = 1 - 2 * outcome, p(ab|xy) = <(a + s_a P_x)(b + s_b Q_y)>."""
    alice, bob, joint = _first_order_classes(ms, expr)
    s_a, s_b = 1 - 2 * a, 1 - 2 * b
    h = np.zeros(ms.class_count)
    h[joint[x, y]] = s_a * s_b
    h[alice[x]] = b * s_a
    h[bob[y]] = a * s_b
    return h, float(a * b)


def _solver_error(sol: SdpSolution, what: str) -> SolverError:
    return SolverError(
        f"{what}: solver ended with status {sol.status} "
        f"(gap {sol.gap:.2e}, residuals {sol.primal_residual:.2e}/"
        f"{sol.dual_residual:.2e})"
    )


def _certified_upper_value(sol: SdpSolution, what: str) -> float:
    """Upper-bound side of a reduced-form maximization: the primal objective."""
    rel_gap = abs(sol.gap) / (1.0 + abs(sol.primal_obj) + abs(sol.dual_obj))
    if sol.status == OPTIMAL or (
        sol.status == MAX_ITERATIONS
        and rel_gap <= _ACCEPT_GAP
        and sol.primal_residual <= _ACCEPT_RES
        and sol.dual_residual <= _ACCEPT_RES
    ):
        return sol.primal_obj
    raise _solver_error(sol, what)


def _expr_cache_key(expr: BellExpression, level: str):
    # The shape belongs in the key: a 2x3 and a 3x2 table can share bytes.
    return expr.coeffs.shape, level, expr.coeffs.tobytes()


@dataclass(frozen=True, eq=False)
class _ReducedSdp:
    """A moment SDP in reduced form; see :func:`_reduced_sdp`.

    Its value is ``const`` plus the optimum of ``problem``.  With a Bell
    constraint only F0 and the constant term depend on the Bell value: at
    value I they are ``problem.c + t * f0_step`` and ``const + const_step * t``
    with t = (I - bell_const) / t_scale, the value of the eliminated class
    (mode 'eq', t_scale its Bell coefficient) or of the slack corner (mode
    'ge', t_scale -1); :meth:`at` fills them in.  ``problem`` carries the
    constraints, validated once, and the identity-class indicator as its
    objective."""

    problem: SdpProblem
    const: float
    f0_step: np.ndarray | None = None
    const_step: float = 0.0
    bell_const: float = 0.0  # Bell value with every free moment at zero
    t_scale: float = 1.0

    def at(self, bell_value: float) -> tuple[SdpProblem, float]:
        """The problem and its constant term at the given Bell value."""
        t = (bell_value - self.bell_const) / self.t_scale
        f0 = self.problem.c + t * self.f0_step
        return self.problem.with_objective(f0), self.const + self.const_step * t


def _reduced_sdp(ms: MomentStructure, objective, bell=None, mode: str = "eq"):
    """Reduced formulation of max objective(y) over the moments y of ``ms``.

    ``objective`` and ``bell`` are (class vector, constant) pairs.  The
    free moments z are the variables: the normalization <1> = 1 and, with
    ``bell`` in mode 'eq', the Bell equality are eliminated by
    substitution, leaving  max w.z  s.t.  F0 + sum_i z_i F_i >= 0.  It is
    handed to the solver as the dual of  min tr(F0 X)  s.t.
    tr(-F_i X) = w_i,  so the solver's primal side bounds the maximum from
    above and its dual side is attained by a moment matrix.  Putting the
    compact moment body on the dual side keeps the value convergent even
    when the Bell value is pinned at the relaxation's own maximum, where
    the feasible set has no interior.  Mode 'ge' keeps the Bell value as a
    slack inequality in an extra 1x1 diagonal block instead.

    Every F_i is a combination of columns of ``ms.class_indicator``, so
    with every class free M(z) = F0 + sum_i z_i F_i is z[entry_class].
    Returns a :class:`_ReducedSdp`.
    """
    h, h_const = objective
    n = ms.size
    identity = int(ms.entry_class[0, 0])
    cols = ms.class_indicator
    free = np.flatnonzero(np.arange(ms.class_count) != identity)
    extra = {}
    if bell is None:
        f, w = cols[:, free], h[free]
    else:
        g, g_const = bell
        extra = dict(bell_const=g_const + g[identity])
        if mode == "eq":
            # Eliminate one Bell-carrying class: y_beta = (target - sum g_c y_c)/g_beta.
            weights = np.abs(g)
            weights[identity] = 0.0
            beta = int(np.argmax(weights))
            if abs(g[beta]) < 1e-12:
                raise ValueError("Bell functional carries no moment dependence")
            free = free[free != beta]
            f = cols[:, free] - cols[:, [beta]] @ sp.csr_matrix(g[free] / g[beta])
            w = h[free] - h[beta] * g[free] / g[beta]
            extra.update(
                f0_step=cols[:, beta].toarray().reshape(n, n),
                const_step=h[beta],
                t_scale=g[beta],
            )
        else:
            # Slack block carries Bell(z) - I >= 0: entry r of the n x n
            # moment matrix moves to r + r // n in the (n+1) x (n+1) one.
            n += 1
            cols = sp.csc_matrix(
                (cols.data, cols.indices + cols.indices // ms.size, cols.indptr),
                shape=(n * n, ms.class_count),
            )
            corner = sp.csc_matrix(
                (g[free], (np.full(free.size, n * n - 1), np.arange(free.size))),
                shape=(n * n, free.size),
            )
            f, w = cols[:, free] + corner, h[free]
            f0_step = np.zeros((n, n))
            f0_step[-1, -1] = 1.0
            extra.update(f0_step=f0_step, t_scale=-1.0)
    f = f.tocsc()
    constraints = []
    for i in range(f.shape[1]):
        lo, hi = f.indptr[i], f.indptr[i + 1]
        flat = f.indices[lo:hi]
        a = sp.csr_matrix((-f.data[lo:hi], (flat // n, flat % n)), shape=(n, n))
        constraints.append((a, w[i]))
    problem = SdpProblem(
        n=n,
        c=cols[:, identity].toarray().reshape(n, n),
        constraints=constraints,
    )
    return _ReducedSdp(problem=problem, const=h_const + h[identity], **extra)


_tsirelson_cache: dict = {}


def tsirelson_bound(expr: BellExpression, level) -> float:
    """SDP upper bound on the quantum value of ``expr`` at the given level."""
    level = _normalize_level(level)
    key = _expr_cache_key(expr, level)
    if key in _tsirelson_cache:
        return _tsirelson_cache[key]
    ms = _structure_cached(expr.alice_settings, expr.bob_settings, level)
    sdp = _reduced_sdp(ms, _bell_functional(ms, expr))
    value = sdp.const + _certified_upper_value(
        solve(sdp.problem), f"tsirelson_bound({expr.name}, {level})"
    )
    _tsirelson_cache[key] = value
    return value


_guess_cache: dict = {}


def _cached_guess_problem(expr: BellExpression, level: str, x: int, y: int,
                          a: int, b: int, mode: str) -> _ReducedSdp:
    """The guessing SDP of p(ab|xy), built once per expression and level."""
    key = _expr_cache_key(expr, level) + (x, y, a, b, mode)
    guess = _guess_cache.get(key)
    if guess is None:
        ms = _structure_cached(expr.alice_settings, expr.bob_settings, level)
        guess = _reduced_sdp(
            ms, _prob_functional(ms, expr, x, y, a, b), _bell_functional(ms, expr), mode
        )
        _guess_cache[key] = guess
    return guess


def _attained_side_value(sol: SdpSolution, what: str) -> float:
    """Value read off the solver's dual side, which carries the moment body."""
    if sol.status == OPTIMAL or (
        sol.status == MAX_ITERATIONS and sol.dual_residual <= 1e-7
    ):
        return sol.dual_obj
    raise _solver_error(sol, what)


def _check_input_pair(expr: BellExpression, input_pair: tuple[int, int]) -> None:
    x, y = input_pair
    if not (0 <= x < expr.alice_settings and 0 <= y < expr.bob_settings):
        raise OutOfRange(f"input pair {input_pair} outside the scenario")


def max_guessing_probability(
    expr: BellExpression,
    bell_value: float,
    input_pair: tuple[int, int] = (0, 0),
    level="2",
) -> float:
    """Largest p(ab|xy) over the relaxation at the given Bell value.

    Solves one SDP per outcome pair (a, b), with the Bell value as an
    equality, and returns the maximum."""
    level = _normalize_level(level)
    _check_input_pair(expr, input_pair)
    x, y = input_pair

    qmax = tsirelson_bound(expr, level)
    if abs(bell_value) > qmax + 1e-6:
        raise InfeasibleValue(
            f"|I| = {abs(bell_value):.6f} exceeds the level-{level} bound {qmax:.6f}"
        )

    best = 0.0
    for a in range(2):
        for b in range(2):
            problem, const_term = _cached_guess_problem(
                expr, level, x, y, a, b, "eq"
            ).at(bell_value)
            value = const_term + _attained_side_value(
                solve(problem), f"guessing probability p({a}{b}|{x}{y})"
            )
            best = max(best, value)
    return float(min(1.0, max(0.25, best)))


@dataclass(frozen=True)
class RandomnessPoint:
    """One curve sample: a Bell value and the maximal guessing probability
    there.  The min-entropy -log2 p is derived, so it is +0.0 at p = 1."""

    bell_value: float
    guessing_probability: float

    def __post_init__(self):
        if not 0.0 < self.guessing_probability <= 1.0:
            raise ValueError("guessing probability must be in (0, 1]")

    @property
    def min_entropy(self) -> float:
        return 0.0 - math.log2(self.guessing_probability)


def min_entropy_curve(
    family: str,
    grid,
    expr: BellExpression,
    level="2",
    input_pair: tuple[int, int] = (0, 0),
    seed: int = 0,
) -> list[RandomnessPoint]:
    """Certified-randomness lower bounds along a one-parameter state family.

    The Bell value fed to each randomness SDP is the max_violation value of
    the family state: the closed-form tight bound for the 3x4 expression,
    the see-saw oracle otherwise.  Each point holds that value and the
    maximal guessing probability there, from which its entropy is derived;
    parameters whose violation does not exceed the classical bound get
    probability 1, so zero entropy, without an SDP.
    """
    level = _normalize_level(level)
    _check_input_pair(expr, input_pair)
    cb = classical_bound(expr)
    points = []
    for param in grid:
        state = _bell.family_state(family, float(param))
        value = _bell.max_violation(state, expr, seed=seed)
        guess = (
            1.0 if value <= cb + 1e-9
            else max_guessing_probability(expr, value, input_pair, level)
        )
        points.append(RandomnessPoint(bell_value=value, guessing_probability=guess))
    return points


def entropy_crossover(params, curve_a, curve_b) -> float | None:
    """Parameter where curve_a's entropy overtakes curve_b's (last upward
    sign change, linearly interpolated); None if it never does."""
    params = list(params)
    diffs = [a.min_entropy - b.min_entropy for a, b in zip(curve_a, curve_b)]
    crossing = None
    for i in range(1, len(diffs)):
        if diffs[i - 1] <= 0.0 < diffs[i]:
            frac = -diffs[i - 1] / (diffs[i] - diffs[i - 1])
            crossing = params[i - 1] + frac * (params[i] - params[i - 1])
    return crossing


CURVE_CSV_HEADER = "param,bell_value,guessing_probability,min_entropy_bits"


def curve_csv(params, points) -> str:
    """CSV rows param,bell_value,guessing_probability,min_entropy_bits at 12
    significant digits.  The entropy column is recomputed from the rounded
    probability column, so each row satisfies
    min_entropy = -log2(guessing_probability) as printed."""
    lines = [CURVE_CSV_HEADER]
    for param, pt in zip(params, points):
        text = f"{pt.guessing_probability:.12g}"
        rounded = float(text)
        entropy = -math.log2(rounded) if rounded < 1.0 else 0.0
        lines.append(f"{float(param):.12g},{pt.bell_value:.12g},{text},{entropy:.12g}")
    return "\n".join(lines) + "\n"
