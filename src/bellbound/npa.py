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
class Scenario:
    """Numbers of dichotomic settings per party."""

    alice_settings: int
    bob_settings: int

    def __post_init__(self):
        if self.alice_settings < 1 or self.bob_settings < 1:
            raise OutOfRange("each party needs at least one setting")


@dataclass(frozen=True)
class Monomial:
    """A word of projector symbols in canonical party order.

    Alice symbols come first (the parties commute) and no symbol repeats
    immediately (projectors are idempotent).
    """

    alice: tuple[int, ...]
    bob: tuple[int, ...]

    def __len__(self):
        return len(self.alice) + len(self.bob)


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

    scenario: Scenario
    level: str
    monomials: tuple[Monomial, ...]
    size: int
    entry_class: np.ndarray        # (size, size) class index per entry
    class_members: tuple[tuple[tuple[int, int], ...], ...]  # upper-triangle
    class_count: int
    _key_to_class: dict

    def moment_class(self, alice: tuple[int, ...], bob: tuple[int, ...]) -> int:
        key = _moment_key(_collapse(alice), _collapse(bob))
        try:
            return self._key_to_class[key]
        except KeyError:
            raise ValueError(f"moment {key} is not represented at level {self.level}")


def _normalize_level(level) -> str:
    text = str(level)
    if text not in LEVELS:
        raise UnsupportedLevel(f"level must be one of {LEVELS}, got {level!r}")
    return text


def _monomial_list(scenario: Scenario, level: str) -> list[Monomial]:
    k, l = scenario.alice_settings, scenario.bob_settings
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
    scenario = Scenario(k, l)
    monomials = _monomial_list(scenario, level)
    size = len(monomials)
    entry_class = np.zeros((size, size), dtype=np.int64)
    key_to_class: dict = {}
    members: list[list[tuple[int, int]]] = []
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
                members.append([])
            entry_class[i, j] = entry_class[j, i] = cid
            members[cid].append((i, j))
    return MomentStructure(
        scenario=scenario,
        level=level,
        monomials=tuple(monomials),
        size=size,
        entry_class=entry_class,
        class_members=tuple(tuple(ms) for ms in members),
        class_count=len(key_to_class),
        _key_to_class=key_to_class,
    )


def build_moment_structure(scenario: Scenario, level) -> MomentStructure:
    return _structure_cached(
        scenario.alice_settings, scenario.bob_settings, _normalize_level(level)
    )


def _entry_coo(i: int, j: int, weight: float):
    """COO triplets placing ``weight`` symmetrically on entry (i, j)."""
    if i == j:
        return [i], [j], [weight]
    return [i, j], [j, i], [0.5 * weight, 0.5 * weight]


@lru_cache(maxsize=None)
def _structure_constraints_cached(k: int, l: int, level: str):
    ms = _structure_cached(k, l, level)
    n = ms.size
    constraints = []
    pin = sp.coo_matrix(([1.0], ([0], [0])), shape=(n, n)).tocsr()
    constraints.append((pin, 1.0))
    for members in ms.class_members:
        rep = members[0]
        for other in members[1:]:
            rows, cols, vals = _entry_coo(*rep, 1.0)
            r2, c2, v2 = _entry_coo(*other, -1.0)
            a = sp.coo_matrix(
                (vals + v2, (rows + r2, cols + c2)), shape=(n, n)
            ).tocsr()
            constraints.append((a, 0.0))
    return tuple(constraints)


def structure_constraints(ms: MomentStructure):
    """Equality constraints pinning <1> = 1 and tying equivalent entries."""
    return list(
        _structure_constraints_cached(
            ms.scenario.alice_settings, ms.scenario.bob_settings, ms.level
        )
    )


def _accumulate(target: dict, cid: int, weight: float) -> None:
    target[cid] = target.get(cid, 0.0) + weight


def _bell_functional(ms: MomentStructure, expr: BellExpression):
    """Class coefficients and constant so that sum + const = Bell value."""
    coeffs: dict[int, float] = {}
    const = 0.0
    for x in range(expr.alice_settings):
        for y in range(expr.bob_settings):
            c = float(expr.coeffs[x, y])
            if c == 0.0:
                continue
            _accumulate(coeffs, ms.moment_class((x,), (y,)), 4.0 * c)
            _accumulate(coeffs, ms.moment_class((x,), ()), -2.0 * c)
            _accumulate(coeffs, ms.moment_class((), (y,)), -2.0 * c)
            const += c
    for x in range(expr.alice_settings):
        c = float(expr.alice_marginals[x])
        if c != 0.0:
            _accumulate(coeffs, ms.moment_class((x,), ()), 2.0 * c)
            const -= c
    for y in range(expr.bob_settings):
        c = float(expr.bob_marginals[y])
        if c != 0.0:
            _accumulate(coeffs, ms.moment_class((), (y,)), 2.0 * c)
            const -= c
    return coeffs, const


def _prob_functional(ms: MomentStructure, x: int, y: int, a: int, b: int):
    """p(ab|xy) as class coefficients plus constant."""
    pa = ms.moment_class((x,), ())
    pb = ms.moment_class((), (y,))
    pab = ms.moment_class((x,), (y,))
    coeffs: dict[int, float] = {}
    const = 0.0
    if (a, b) == (0, 0):
        _accumulate(coeffs, pab, 1.0)
    elif (a, b) == (0, 1):
        _accumulate(coeffs, pa, 1.0)
        _accumulate(coeffs, pab, -1.0)
    elif (a, b) == (1, 0):
        _accumulate(coeffs, pb, 1.0)
        _accumulate(coeffs, pab, -1.0)
    else:
        const = 1.0
        _accumulate(coeffs, pa, -1.0)
        _accumulate(coeffs, pb, -1.0)
        _accumulate(coeffs, pab, 1.0)
    return coeffs, const


def _representatives(ms: MomentStructure):
    return [members[0] for members in ms.class_members]


def _functional_matrix(ms: MomentStructure, coeffs: dict, const: float) -> np.ndarray:
    """Dense symmetric C with tr(C M) = sum_c f_c m_c + const on feasible M."""
    c = np.zeros((ms.size, ms.size))
    reps = _representatives(ms)
    for cid, weight in coeffs.items():
        i, j = reps[cid]
        rows, cols, vals = _entry_coo(i, j, weight)
        for r, cc, v in zip(rows, cols, vals):
            c[r, cc] += v
    c[0, 0] += const  # M[0, 0] is pinned to 1
    return c


def _certified_upper_value(sol: SdpSolution, what: str) -> float:
    """Upper-bound side of a maximization: the dual objective."""
    rel_gap = abs(sol.gap) / (1.0 + abs(sol.primal_obj) + abs(sol.dual_obj))
    if sol.status == OPTIMAL or (
        sol.status == MAX_ITERATIONS
        and rel_gap <= _ACCEPT_GAP
        and sol.primal_residual <= _ACCEPT_RES
        and sol.dual_residual <= _ACCEPT_RES
    ):
        return sol.dual_obj
    raise SolverError(
        f"{what}: solver ended with status {sol.status} "
        f"(gap {sol.gap:.2e}, residuals {sol.primal_residual:.2e}/"
        f"{sol.dual_residual:.2e})"
    )


def _expr_cache_key(expr: BellExpression, level: str):
    return (
        expr.alice_settings,
        expr.bob_settings,
        level,
        expr.coeffs.tobytes(),
        expr.alice_marginals.tobytes(),
        expr.bob_marginals.tobytes(),
    )


_tsirelson_cache: dict = {}


def tsirelson_bound(expr: BellExpression, level) -> float:
    """SDP upper bound on the quantum value of ``expr`` at the given level."""
    level = _normalize_level(level)
    key = _expr_cache_key(expr, level)
    if key in _tsirelson_cache:
        return _tsirelson_cache[key]
    ms = _structure_cached(expr.alice_settings, expr.bob_settings, level)
    coeffs, const = _bell_functional(ms, expr)
    problem = SdpProblem(
        n=ms.size,
        c=_functional_matrix(ms, coeffs, const),
        constraints=structure_constraints(ms),
        sense="max",
    )
    value = _certified_upper_value(
        solve(problem), f"tsirelson_bound({expr.name}, {level})"
    )
    _tsirelson_cache[key] = value
    return value


def _class_indicator_coo(ms: MomentStructure, cid: int):
    """0/1 symmetric indicator of a class: full weight on every entry."""
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i, j in ms.class_members[cid]:
        if i == j:
            rows.append(i)
            cols.append(j)
            vals.append(1.0)
        else:
            rows += [i, j]
            cols += [j, i]
            vals += [1.0, 1.0]
    return rows, cols, vals


def _coeff_vectors(ms: MomentStructure, *functionals):
    out = []
    for coeffs in functionals:
        vec = np.zeros(ms.class_count)
        for cid, w in coeffs.items():
            vec[cid] += w
        out.append(vec)
    return out


@dataclass(frozen=True, eq=False)
class _GuessSdp:
    """A guessing-probability SDP with the Bell value left open.

    Only F0 and the constant term depend on the Bell value: at value I they
    are ``problem.c + t * f0_step`` and ``const_fixed + const_step * t``,
    with t the value of the eliminated class (mode 'eq') or of the slack
    corner (mode 'ge').  ``problem`` carries the constraints, validated
    once, and the identity-class indicator as its objective."""

    problem: SdpProblem
    mode: str
    f0_step: np.ndarray
    const_fixed: float
    const_step: float
    bell_const: float
    g_identity: float
    g_beta: float  # coefficient of the eliminated class; mode 'eq' only

    def at(self, bell_value: float) -> tuple[SdpProblem, float]:
        """The problem and its constant term at the given Bell value."""
        if self.mode == "eq":
            t = (bell_value - self.bell_const - self.g_identity) / self.g_beta
        else:
            t = self.bell_const + self.g_identity - bell_value
        f0 = self.problem.c + t * self.f0_step
        return self.problem.with_objective(f0), self.const_fixed + self.const_step * t


def _guess_problem(ms, bell_coeffs, bell_const, prob_coeffs, prob_const, mode: str):
    """Reduced formulation of max p s.t. moment structure and Bell value.

    The free moment entries are the variables: the normalization <1> = 1
    and (for mode 'eq') the Bell equality are eliminated by substitution,
    leaving the problem  max w.z  s.t.  F0 + sum_i z_i F_i >= 0, which is
    handed to the solver in its dual slot.  Putting the compact moment
    body on the dual side keeps the value convergent even when the Bell
    value is pinned at the relaxation's own maximum, where the feasible
    set has no interior.  Mode 'ge' keeps the Bell value as a slack
    inequality in an extra 1x1 diagonal block instead.  Returns a
    :class:`_GuessSdp`; its ``at`` fills in the Bell value.
    """
    g, h = _coeff_vectors(ms, bell_coeffs, prob_coeffs)
    identity_class = int(ms.entry_class[0, 0])
    indicators = {cid: _class_indicator_coo(ms, cid) for cid in range(ms.class_count)}
    extra = 1 if mode == "ge" else 0
    n = ms.size + extra
    slack = ms.size  # used only for mode 'ge'

    def as_matrix(cid_weights, corner=0.0):
        rows, cols, vals = [], [], []
        for cid, w in cid_weights:
            if w == 0.0:
                continue
            r, c, v = indicators[cid]
            rows += r
            cols += c
            vals += [w * vv for vv in v]
        if corner != 0.0:
            rows.append(slack)
            cols.append(slack)
            vals.append(corner)
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    const_fixed = prob_const + h[identity_class]
    if mode == "eq":
        # Eliminate one Bell-carrying class: y_beta = (target - sum g_c y_c)/g_beta.
        weights = np.abs(g)
        weights[identity_class] = 0.0
        beta = int(np.argmax(weights))
        if abs(g[beta]) < 1e-12:
            raise ValueError("Bell functional carries no moment dependence")
        f0_step = as_matrix([(beta, 1.0)]).toarray()
        const_step = h[beta]
        g_beta = g[beta]
        free = [
            cid
            for cid in range(ms.class_count)
            if cid not in (identity_class, beta)
        ]
        constraints = [
            (-(as_matrix([(cid, 1.0), (beta, -g[cid] / g[beta])])),
             h[cid] - h[beta] * g[cid] / g[beta])
            for cid in free
        ]
    else:
        # Slack block carries Bell(z) - I >= 0.
        f0_step = as_matrix([], corner=1.0).toarray()
        const_step = 0.0
        g_beta = 0.0
        free = [cid for cid in range(ms.class_count) if cid != identity_class]
        constraints = [
            (-(as_matrix([(cid, 1.0)], corner=g[cid])), h[cid]) for cid in free
        ]
    return _GuessSdp(
        problem=SdpProblem(
            n=n,
            c=as_matrix([(identity_class, 1.0)]).toarray(),
            constraints=constraints,
            sense="min",
        ),
        mode=mode,
        f0_step=f0_step,
        const_fixed=const_fixed,
        const_step=const_step,
        bell_const=bell_const,
        g_identity=g[identity_class],
        g_beta=g_beta,
    )


_guess_cache: dict = {}


def _cached_guess_problem(expr: BellExpression, level: str, x: int, y: int,
                          a: int, b: int, mode: str) -> _GuessSdp:
    """The guessing SDP of p(ab|xy), built once per expression and level."""
    key = _expr_cache_key(expr, level) + (x, y, a, b, mode)
    guess = _guess_cache.get(key)
    if guess is None:
        ms = _structure_cached(expr.alice_settings, expr.bob_settings, level)
        bell_coeffs, bell_const = _bell_functional(ms, expr)
        prob_coeffs, prob_const = _prob_functional(ms, x, y, a, b)
        guess = _guess_problem(
            ms, bell_coeffs, bell_const, prob_coeffs, prob_const, mode
        )
        _guess_cache[key] = guess
    return guess


def _attained_side_value(sol: SdpSolution, what: str) -> float:
    """Value read off the solver's dual side, which carries the moment body."""
    if sol.status == OPTIMAL or (
        sol.status == MAX_ITERATIONS and sol.dual_residual <= 1e-7
    ):
        return sol.dual_obj
    raise SolverError(
        f"{what}: solver ended with status {sol.status} "
        f"(gap {sol.gap:.2e}, residuals {sol.primal_residual:.2e}/"
        f"{sol.dual_residual:.2e})"
    )


def max_guessing_probability(
    expr: BellExpression,
    bell_value: float,
    input_pair: tuple[int, int] = (0, 0),
    level="2",
    bell_constraint: str = "eq",
) -> float:
    """Largest p(ab|xy) over the relaxation at the given Bell value.

    Solves one SDP per outcome pair (a, b) and returns the maximum.  The
    Bell value enters as an equality (``bell_constraint='ge'`` switches to
    'at least', for sensitivity checks)."""
    level = _normalize_level(level)
    x, y = input_pair
    if not (0 <= x < expr.alice_settings and 0 <= y < expr.bob_settings):
        raise OutOfRange(f"input pair {input_pair} outside the scenario")
    if bell_constraint not in ("eq", "ge"):
        raise ValueError("bell_constraint must be 'eq' or 'ge'")

    qmax = tsirelson_bound(expr, level)
    if abs(bell_value) > qmax + 1e-6:
        raise InfeasibleValue(
            f"|I| = {abs(bell_value):.6f} exceeds the level-{level} bound {qmax:.6f}"
        )

    best = 0.0
    for a in range(2):
        for b in range(2):
            problem, const_term = _cached_guess_problem(
                expr, level, x, y, a, b, bell_constraint
            ).at(bell_value)
            value = const_term + _attained_side_value(
                solve(problem), f"guessing probability p({a}{b}|{x}{y})"
            )
            best = max(best, value)
    return float(min(1.0, max(0.25, best)))


@dataclass(frozen=True)
class RandomnessPoint:
    """One curve sample: Bell value, max guessing probability, min-entropy."""

    bell_value: float
    guessing_probability: float
    min_entropy: float

    def __post_init__(self):
        if not 0.0 < self.guessing_probability <= 1.0:
            raise ValueError("guessing probability must be in (0, 1]")
        if abs(self.min_entropy + math.log2(self.guessing_probability)) > 1e-12:
            raise ValueError("min_entropy must equal -log2(guessing_probability)")


def min_entropy_curve(
    family: str,
    grid,
    expr: BellExpression,
    level="2",
    input_pair: tuple[int, int] = (0, 0),
    seed: int = 0,
) -> list[RandomnessPoint]:
    """Certified-randomness lower bounds along a one-parameter state family.

    The Bell value fed to each randomness SDP is the maximal violation of
    the family state: the closed-form tight bound for the 3x4 expression,
    the see-saw oracle otherwise.  Parameters whose violation does not
    exceed the classical bound report zero entropy.
    """
    level = _normalize_level(level)
    cb = classical_bound(expr)
    points = []
    for param in grid:
        state = _bell.family_state(family, float(param))
        value = _bell.max_violation(state, expr, seed=seed)
        if value <= cb + 1e-9:
            points.append(
                RandomnessPoint(
                    bell_value=value, guessing_probability=1.0, min_entropy=0.0
                )
            )
            continue
        guess = max_guessing_probability(expr, value, input_pair, level)
        points.append(
            RandomnessPoint(
                bell_value=value,
                guessing_probability=guess,
                min_entropy=-math.log2(guess),
            )
        )
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


def curve_csv_row(param: float, pt: RandomnessPoint) -> str:
    """One 12-significant-digit CSV row; the entropy column is recomputed
    from the rounded probability column so the row satisfies
    min_entropy = -log2(guessing_probability) as printed."""
    g_text = f"{pt.guessing_probability:.12g}"
    g_rounded = float(g_text)
    entropy = -math.log2(g_rounded) if g_rounded < 1.0 else 0.0
    return f"{param:.12g},{pt.bell_value:.12g},{g_text},{entropy:.12g}"


def curve_csv(params, points) -> str:
    """CSV rows param,bell_value,guessing_probability,min_entropy_bits."""
    lines = [CURVE_CSV_HEADER]
    for param, pt in zip(params, points):
        lines.append(curve_csv_row(float(param), pt))
    return "\n".join(lines) + "\n"
