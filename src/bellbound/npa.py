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
classes are the variables, M(z) = z[entry_class], and the constraint
operator is one sparse expression over the indicators of the classes,
each row combining at most two (see :func:`_reduced_sdp`).  Every basis
starts with 1, P_0..P_{k-1}, Q_0..Q_{l-1}, so the classes of the
first-order moments <P_x>, <Q_y> and <P_x Q_y> are read straight off
``entry_class``.  The objective, outcome, Bell value and multiplier set
only the targets, F0 and the constant, so each expression and level builds
one operator per form: one Bell-free, and one with the Bell value pinned by
equality per partition of the classes.  The pinned form merges each class
with its images under the setting permutations that fix the input pair and
the table (the invariant-moment reduction of Tavakoli, Rosset & Renou, PRL
122, 070501 (2019)): for ebi at level 2 that is 167 classes in place of 302,
with the same optima.  Pairs that merge alike share one operator.

Every value is read from the upper-bounding side: the smallest certificate
tr(C X) + ||b - A vec X||_1 of its solve's iterates, which the solver keeps
as ``certificate`` (:func:`~bellbound.sdp.solve`), whatever the status.
A guessing probability follows one rule: the max over the four outcomes of
the min over a list of multipliers lam of the certified
max p(ab|xy) + lam (Bell - I).  The list is [0] on the Bell-pinned form,
where the lam term vanishes; within 1e-6 of the Tsirelson bound, where that
form has no interior, it is 1e3 and 2e3 signed like I on the Bell-free
form (the Lagrangian form).  Each outcome solve after the first stops
``bounded`` as soon as its own iterate certifies a value below the largest
so far, less a margin that scales with the problem.  A solve that does not
stop runs as it would without the test.

The outcomes run in the order (0, 0), (1, 1), (0, 1), (1, 0).  A Bell
expression has no single-party terms, so the flip P -> 1 - P, Q -> 1 - Q
maps each relaxation onto that of the outcome after it
(:func:`_flip_map`).  On the Bell-pinned form the second and fourth
solves are first offered the image of the previous outcome's iterate, and
keep it at iterate 0 only if it meets their own ``optimal`` or ``bounded``
stop; otherwise they run from the default start, bit for bit.  Every value
is still the certificate of its own outcome's problem.

Observables are encoded as A = 2 P - I, so correlators expand as
<A_x B_y> = 4 <P_x Q_y> - 2 <P_x> - 2 <Q_y> + 1, and outcome
probabilities as p(00|xy) = <P_x Q_y>, p(01|xy) = <P_x> - <P_x Q_y>, etc.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bell as _bell
from .bell import BellExpression, classical_bound
from .errors import InfeasibleValue, OutOfRange, SolverError, UnsupportedLevel
from .sdp import SdpProblem, solve

LEVELS = ("1", "1+AB", "2")

# Multipliers of the Lagrangian guessing form used at the relaxation's
# maximal Bell value, where the equality form has no interior.
_ENDPOINT_LAMBDAS = (1e3, 2e3)


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
    return MomentStructure(
        monomials=tuple(monomials),
        size=size,
        entry_class=entry_class,
        class_count=len(key_to_class),
    )


def build_moment_structure(alice_settings: int, bob_settings: int, level):
    return _structure_cached(alice_settings, bob_settings, _normalize_level(level))


def _stabilizer(coeffs: np.ndarray, x: int, y: int) -> list[tuple[tuple, tuple]]:
    """Setting permutations (pa, pb), the identity first, with pa[x] == x,
    pb[y] == y and coeffs[pa][:, pb] == coeffs.  Alice's are enumerated and
    Bob's is matched column by column, so a swap of two equal columns of
    Bob's alone is left out; merging under fewer symmetries is exact too."""
    k, l = coeffs.shape

    def column_order(table):  # columns sorted, y first among equal ones
        return np.lexsort([np.arange(l) != y, *table[::-1]])

    found, target = [], column_order(coeffs)
    for rest in itertools.permutations([i for i in range(k) if i != x]):
        pa = (*rest[:x], x, *rest[x:])
        table, pb = coeffs[list(pa)], np.empty(l, dtype=np.int64)
        pb[target] = column_order(table)
        if pb[y] == y and np.array_equal(table[:, pb], coeffs):
            found.append((pa, tuple(pb.tolist())))
    return found


_merged_cache: dict = {}


def _merged_structure(expr: BellExpression, level: str, input_pair) -> MomentStructure:
    """The structure of ``expr`` at ``level`` with every entry class merged
    with its images under :func:`_stabilizer` of ``input_pair`` (the plain
    structure if nothing merges).  The symmetries fix the pair and the
    table, so averaging a moment matrix over them keeps it feasible and
    keeps p(ab|xy) and the Bell value: no guessing optimum changes."""
    key = _expr_cache_key(expr, level) + (input_pair,)
    if key not in _merged_cache:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        ms = _structure_cached(expr.alice_settings, expr.bob_settings, level)
        index = {m: i for i, m in enumerate(ms.monomials)}
        ec, images = ms.entry_class, []
        for pa, pb in _stabilizer(expr.coeffs, *input_pair):
            # Entry (i, j) maps to (p[i], p[j]), p the map of the words.
            p = [index[Monomial(tuple(pa[s] for s in m.alice), tuple(pb[s] for s in m.bob))]
                 for m in ms.monomials]
            images.append(ec[np.ix_(p, p)].ravel())
        edges = (np.tile(ec.ravel(), len(images)), np.concatenate(images))
        graph = coo_matrix((np.ones(edges[0].size), edges), shape=(ms.class_count,) * 2)
        count, labels = connected_components(graph, directed=False)
        if count < ms.class_count:
            ms = MomentStructure(ms.monomials, ms.size, labels[ec], count)
        _merged_cache[key] = ms
    return _merged_cache[key]


def _first_order_classes(ms: MomentStructure, expr: BellExpression):
    """Classes of <P_x>, <Q_y> and <P_x Q_y> in the scenario of ``expr``:
    entries (0, 1+x), (0, 1+k+y) and (1+x, 1+k+y) of ``entry_class``."""
    k, l = expr.alice_settings, expr.bob_settings
    ec = ms.entry_class
    return ec[0, 1:1 + k], ec[0, 1 + k:1 + k + l], ec[1:1 + k, 1 + k:1 + k + l]


def _bell_functional(ms: MomentStructure, expr: BellExpression):
    """Class vector g and constant with g . y + const = Bell value."""
    alice, bob, joint = _first_order_classes(ms, expr)
    coeffs = expr.coeffs
    g = np.zeros(ms.class_count)
    # Merged classes repeat.  np.add.at adds each class's terms one by one
    # in a loop's (x, y) order (numpy's pairwise sum need not), and updating
    # zeros keeps zero sums at +0.0.
    for classes, scale in ((joint, 4.0), (alice[:, None], -2.0), (bob, -2.0)):
        np.add.at(g, np.broadcast_to(classes, coeffs.shape), scale * coeffs)
    return g, float(sum(coeffs.flat))


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


def _expr_cache_key(expr: BellExpression, level: str):
    # The shape belongs in the key: a 2x3 and a 3x2 table can share bytes.
    return expr.coeffs.shape, level, expr.coeffs.tobytes()


@dataclass(frozen=True, eq=False)
class _ReducedSdp:
    """A moment SDP in reduced form over the classes of ``structure``; see
    :func:`_reduced_sdp`.

    ``problem`` carries the constraints of the classes ``free``, validated
    once, with zero targets b and the identity-class indicator as C.  With
    ``bell`` = (g, g_const) the Bell value is pinned through the eliminated
    class ``beta``, whose indicator is ``f0_step``.  :meth:`at` makes the
    problem of one objective by setting only b, F0 and the constant.
    ``flip`` is the outcome-flip map of the word basis
    (:func:`_flip_map`) and ``reads`` the flat index of one entry of each
    free class; :meth:`mirror` uses both."""

    structure: MomentStructure
    problem: SdpProblem
    identity: int
    free: np.ndarray
    flip: np.ndarray
    reads: np.ndarray
    bell: tuple | None = None
    beta: int = 0
    f0_step: np.ndarray | None = None

    def at(self, objective, bell_value: float | None = None):
        """The problem max h.y + h_const and its constant term; the pinned
        form also needs the Bell value I, which fixes the eliminated class
        at t = (I - Bell value with every free moment at zero) / g_beta."""
        h, h_const = objective
        c, w, const = self.problem.c, h[self.free], h_const + h[self.identity]
        if self.bell is not None:
            g, g_const = self.bell
            t = (bell_value - (g_const + g[self.identity])) / g[self.beta]
            c = c + t * self.f0_step
            w = w - h[self.beta] * g[self.free] / g[self.beta]
            const = const + h[self.beta] * t
        return self.problem.with_objective(c, w), const

    def mirror(self, solution):
        """The image (X, y, S) of ``solution``'s iterate under the outcome
        flip: S -> W S W^T maps a moment matrix to that of the flipped
        outcomes, X -> W^T X W keeps tr(S X) (W is an involution), and y is
        read from the image of S.  A start for the flipped outcome's problem,
        which :func:`~bellbound.sdp.solve` rejects if it does not fit."""
        w = self.flip
        s = w @ solution.s @ w.T
        return w.T @ solution.x @ w, s.ravel()[self.reads], s


def _flip_map(monomials) -> np.ndarray:
    """The integer matrix W with W[i, j] = (-1)^|u_j| for every sub-word u_j
    of word w_i, else 0: with P -> 1 - P and Q -> 1 - Q for every projector,
    word w_i becomes sum_j W[i, j] w_j.  A second flip undoes the first, so
    W W = I.  A ``BellExpression`` has no single-party terms, so the flip
    keeps the Bell value and swaps p(ab|xy) with p(1-a, 1-b|xy)."""
    index = {m: i for i, m in enumerate(monomials)}

    def subwords(word):
        return itertools.chain.from_iterable(
            itertools.combinations(word, r) for r in range(len(word) + 1))

    flip = np.zeros((len(monomials),) * 2, dtype=np.int64)
    for i, m in enumerate(monomials):
        for alice, bob in itertools.product(subwords(m.alice), subwords(m.bob)):
            flip[i, index[Monomial(alice, bob)]] = (-1) ** (len(alice) + len(bob))
    return flip


def _reduced_sdp(ms: MomentStructure, bell=None) -> _ReducedSdp:
    """Reduced formulation of max h.y + h_const over the moments y of ``ms``.

    The free moments z are the variables: the normalization <1> = 1 and, with
    ``bell`` (a class vector and constant like the objective), the Bell
    equality are eliminated by substitution (the latter through the class of
    largest Bell weight), leaving  max w.z  s.t.  F0 + sum_i z_i F_i >= 0.
    It is handed to the solver as the dual of  min tr(F0 X)  s.t.
    tr(-F_i X) = w_i,  so the solver's dual side is a moment vector z and
    the value is read from its primal side, as the solve's ``certificate``.
    Only w, F0 and the constant depend on the objective and the Bell value.
    With the Bell value pinned at the relaxation's maximum the feasible set
    has no interior and that bound is useless; there the caller maximizes
    h + lam g in the Bell-free form (the Lagrangian form), whose value minus
    lam I bounds max h.

    Row i of the operator is vec(A_i), A_i = r_i [entry_class == beta] -
    [entry_class == c_i] for the free class c_i, with r_i = g[c_i] / g[beta]
    pinned and 0 Bell-free, so with every class free M(z) = F0 +
    sum_i z_i F_i is z[entry_class]; row c of ``ind`` is vec([entry_class == c]).
    """
    import scipy.sparse as sp

    ec = ms.entry_class
    identity = int(ec[0, 0])
    free = np.flatnonzero(np.arange(ms.class_count) != identity)
    ratio, beta, pinned = np.zeros(ms.class_count), identity, {}
    if bell is not None:
        # Eliminate one Bell-carrying class: y_beta = (target - sum g_c y_c)/g_beta.
        g = bell[0]
        weights = np.abs(g)
        weights[identity] = 0.0
        beta = int(np.argmax(weights))
        if abs(g[beta]) < 1e-12:
            raise ValueError("Bell functional carries no moment dependence")
        free = free[free != beta]
        ratio = g / g[beta]
        pinned = dict(bell=bell, beta=beta, f0_step=(ec == beta) * 1.0)
    ind = sp.csr_matrix((np.ones(ec.size), (ec.ravel(), np.arange(ec.size))),
                        shape=(ms.class_count, ec.size))
    a = sp.csr_matrix(ratio[free, None]) @ ind[[beta]] - ind[free]
    problem = SdpProblem(n=ms.size, c=(ec == identity) * 1.0, a=a, b=np.zeros(free.size))
    reads = np.unique(ec, return_index=True)[1][free]
    return _ReducedSdp(structure=ms, problem=problem, identity=identity, free=free,
                       flip=_flip_map(ms.monomials), reads=reads, **pinned)


_sdp_cache: dict = {}


def _moment_sdp(expr: BellExpression, level: str, input_pair=None) -> _ReducedSdp:
    """The reduced moment SDP of ``expr`` at ``level``: Bell-free without
    ``input_pair`` (the Tsirelson bound and every endpoint Lagrangian
    solve), else with the Bell value pinned by equality over the classes
    merged for the pair (every other guessing solve).  One is built per
    form and partition, so pairs whose classes merge alike share it."""
    pinned = input_pair is not None
    ms = (_merged_structure(expr, level, input_pair) if pinned
          else _structure_cached(expr.alice_settings, expr.bob_settings, level))
    key = _expr_cache_key(expr, level) + (pinned, ms.entry_class.tobytes())
    sdp = _sdp_cache.get(key)
    if sdp is None:
        sdp = _reduced_sdp(ms, _bell_functional(ms, expr) if pinned else None)
        _sdp_cache[key] = sdp
    return sdp


def _certified_value(problem: SdpProblem, const: float, beat: float = -math.inf,
                     start=None):
    """``const`` plus the ``certificate`` of one solve of ``problem``, and
    the solution it was read from.  Raises SolverError, naming the status,
    reason and iteration count, if that value is not finite.

    The solve stops ``bounded`` once its iterate certifies a value below
    ``beat`` by 1e-6 (1 + |beat - const|), a margin in the problem's own
    units: the Lagrangian endpoint problems sit near 1e3, where a 1e-8
    relative gap is about 1e-5.  Run to the end, an optimal solve would
    certify within its gap of the optimum, which no certificate undercuts,
    so still less than ``beat``: max(beat, value) is unchanged.  ``start``
    (a mirrored iterate) is tried first; the value is the certificate of
    an iterate of ``problem``'s own solve, so it bounds ``problem`` either
    way."""
    t = beat - const
    solution = solve(problem, stop_below=t - 1e-6 * (1.0 + abs(t)), start=start)
    value = float(const + solution.certificate)
    if not math.isfinite(value):
        raise SolverError(
            f"no finite bound: solver ended with status {solution.status} "
            f"({solution.reason}) after {solution.iterations} iterations"
        )
    return value, solution


_tsirelson_cache: dict = {}


def tsirelson_bound(expr: BellExpression, level) -> float:
    """SDP upper bound on the quantum value of ``expr`` at the given level."""
    level = _normalize_level(level)
    key = _expr_cache_key(expr, level)
    if key in _tsirelson_cache:
        return _tsirelson_cache[key]
    sdp = _moment_sdp(expr, level)
    value, _ = _certified_value(*sdp.at(_bell_functional(sdp.structure, expr)))
    _tsirelson_cache[key] = value
    return value


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
    """Certified upper bound on the largest p(ab|xy) over the relaxation at
    Bell value I: the max over outcomes (a, b) of the min over multipliers
    lam of the certified max p(ab|xy) + lam (Bell - I).  Below the
    relaxation's maximum |I| by more than 1e-6 the only lam is 0, on the
    Bell-pinned form over the moment classes merged under the setting
    permutations that fix (x, y) and the table (:func:`_merged_structure`),
    which leaves its optima unchanged.  Nearer, the lams are
    ``_ENDPOINT_LAMBDAS`` signed like I, on the Bell-free form over the
    plain classes.  Every solve after the first outcome's stops once it
    certifies less than the running maximum (:func:`_certified_value`):
    the maximum is kept.

    The outcomes run in the order (0, 0), (1, 1), (0, 1), (1, 0), each
    followed by its mirror under the outcome flip (:func:`_flip_map`).  On
    the pinned form the mirror's solve starts from the image of its
    partner's returned iterate (:meth:`_ReducedSdp.mirror`), which it
    accepts at iterate 0 only if that image meets its own stops; on the
    Lagrangian form lam ~ 1e3 scales the image's residual, so those solves
    start from the default.  Each value is the certificate of its own
    outcome's problem: none relies on the symmetry."""
    level = _normalize_level(level)
    _check_input_pair(expr, input_pair)
    x, y = input_pair

    qmax = tsirelson_bound(expr, level)
    if abs(bell_value) > qmax + 1e-6:
        raise InfeasibleValue(
            f"|I| = {abs(bell_value):.6f} exceeds the level-{level} bound {qmax:.6f}"
        )

    pinned = abs(bell_value) < qmax - 1e-6
    sdp = _moment_sdp(expr, level, (x, y) if pinned else None)
    lams = ([0.0] if pinned
            else [math.copysign(lam, bell_value) for lam in _ENDPOINT_LAMBDAS])
    g, g_const = _bell_functional(sdp.structure, expr)
    best, start = -math.inf, None
    for k, (a, b) in enumerate(((0, 0), (1, 1), (0, 1), (1, 0))):
        h, h_const = _prob_functional(sdp.structure, expr, x, y, a, b)
        bounds = []
        for lam in lams:
            problem, const = sdp.at((h + lam * g, h_const + lam * g_const), bell_value)
            value, solution = _certified_value(problem, const - lam * bell_value, best, start)
            bounds.append(value)
        # An outcome at an even position hands its mirror, next, its image.
        start = sdp.mirror(solution) if pinned and k % 2 == 0 else None
        best = max(best, min(bounds))
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


def round_toward(value: float, up: bool, places: int | None = None) -> str:
    """``value`` at 12 significant digits, or at ``places`` decimals if given,
    as text reading back >= value if ``up``, else <=."""
    spec = ".12g" if places is None else f".{places}f"
    text = format(value, spec)
    if float(text) < value if up else float(text) > value:
        # Rounded the wrong way: step one unit of the last printed digit.
        unit = 10.0 ** (math.floor(math.log10(value)) - 11 if places is None else -places)
        text = format(float(text) + (unit if up else -unit), spec)
    return text


def curve_csv(params, points) -> str:
    """CSV rows param,bell_value,guessing_probability,min_entropy_bits at 12
    significant digits.  The probability is rounded up and the entropy,
    that of the printed probability, down, so no printed figure claims
    more randomness than the certificate gives; the rest round to nearest."""
    lines = [CURVE_CSV_HEADER]
    for param, pt in zip(params, points):
        prob = round_toward(pt.guessing_probability, up=True)
        entropy = round_toward(RandomnessPoint(pt.bell_value, float(prob)).min_entropy, up=False)
        lines.append(f"{float(param):.12g},{pt.bell_value:.12g},{prob},{entropy}")
    return "\n".join(lines) + "\n"
