"""
Bell expressions and everything evaluated on top of them: expectation
values, the tight violation bound 4*||T||_F of the correlation matrix T,
synthesis of measurements that saturate it, saturation diagnostics,
classical (deterministic-strategy) bounds, an alternating see-saw oracle,
and quantum behaviors p(ab|xy) read from the Bloch data (r, s, T).

A Bell expression is a name and a table of correlator coefficients c_kl
weighting <A_k B_l>, nothing else: having no single-party terms, every
expression is unchanged under A -> -A, B -> -B.  The built-ins are the
elegant 3x4 expression (ebi), CHSH and the n-setting chained expression.

The three-setting-by-four-setting expression handled by the tight bound is

    A1(B1+B2-B3-B4) + A2(B1-B2+B3-B4) + A3(B1-B2-B3+B4)

with dichotomic qubit observables A = a.sigma, B = b.sigma for unit Bloch
vectors a, b.  Its classical bound is 6 and its quantum maximum 4*sqrt(3).
For a state with correlation-matrix singular values l1 >= l2 >= l3 the
closed-form benchmark

    4 * sqrt(l1^2 + l2^2 + l3^2) = 4 * ||T||_F

is achieved exactly by Bob's vectors built from the right singular vectors
and Alice's vectors equal to the left singular vectors signed (+, -, +)
(see optimal_measurements); on isotropic correlation matrices
(l1 = l2 = l3) it coincides with the per-state optimum.  Off that family
strictly better strategies can exist, which the see-saw oracle below will
find.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateState,
    DimensionMismatch,
    NoCrossing,
    OutOfRange,
    TooManySettings,
)
from .states import (
    TwoQubitState,
    correlation_data,
    pure_state,
    werner_state,
)

EPS_UNIT = 1e-12     # unit-norm tolerance for Bloch vectors
EPS_TIGHT = 1e-8     # tolerance of the saturation diagnostics
ENUMERATION_CAP = 24  # guard on k + l for the deterministic enumeration

# Sign patterns of the four Bob vectors in the singular basis, one row per
# vector: b_i = V @ (row_i * lambdas) / norm(lambdas).
_BOB_SIGNS = np.array(
    [
        [1.0, -1.0, 1.0],
        [1.0, 1.0, -1.0],
        [-1.0, -1.0, -1.0],
        [-1.0, 1.0, 1.0],
    ]
)


@dataclass(frozen=True, eq=False)
class BellExpression:
    """A bipartite correlator expression sum_kl c_kl <A_k B_l>.

    The whole record is a name and the (k, l) coefficient table, stored as
    a float64 copy; the numbers of settings are the table's shape.
    """

    name: str
    coeffs: np.ndarray  # (k, l)

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=np.float64)
        if coeffs.ndim != 2 or 0 in coeffs.shape:
            raise DimensionMismatch(
                f"coefficient table must be 2-D with no empty axis, "
                f"got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise OutOfRange("coefficient table must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def alice_settings(self) -> int:
        return self.coeffs.shape[0]

    @property
    def bob_settings(self) -> int:
        return self.coeffs.shape[1]


@dataclass(frozen=True, eq=False)
class MeasurementStrategy:
    """Per-party lists of unit Bloch vectors defining dichotomic observables."""

    alice: np.ndarray  # (k, 3)
    bob: np.ndarray    # (l, 3)

    def __post_init__(self):
        for label in ("alice", "bob"):
            vecs = np.asarray(getattr(self, label), dtype=float)
            object.__setattr__(self, label, vecs)
            if vecs.ndim != 2 or vecs.shape[1] != 3 or vecs.shape[0] == 0:
                raise DimensionMismatch(f"{label} vectors must have shape (n, 3), n >= 1")
            norms = np.linalg.norm(vecs, axis=1)
            if not np.max(np.abs(norms - 1.0)) <= EPS_UNIT:  # NaN fails too
                raise OutOfRange(f"{label} vectors must be unit within {EPS_UNIT}")

    def to_json(self) -> str:
        return json.dumps({"alice": self.alice.tolist(), "bob": self.bob.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "MeasurementStrategy":
        """Inverse of :meth:`to_json`; ValueError unless each party's entry
        is an array of JSON numbers."""
        payload = json.loads(text)
        vectors = {}
        for party in ("alice", "bob"):
            if not isinstance(payload, dict) or party not in payload:
                raise ValueError(f"strategy JSON has no {party!r} vectors")
            entries = np.array(payload[party], dtype=object)
            if any(type(v) not in (int, float) for v in entries.flat):
                raise ValueError(f"strategy JSON {party!r} vectors must be numbers")
            vectors[party] = entries.astype(float)
        return cls(**vectors)


@dataclass(frozen=True, eq=False)
class Behavior:
    """Conditional-probability table p[x, y, a, b] for dichotomic outcomes.

    Validated for finiteness, nonnegativity, normalization per input pair,
    and no-signaling between the parties.
    """

    table: np.ndarray  # (k, l, 2, 2)

    def __post_init__(self):
        p = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", p)
        if p.ndim != 4 or p.shape[2:] != (2, 2) or 0 in p.shape:
            raise DimensionMismatch(f"behavior table has shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise OutOfRange("behavior table must be finite")
        if np.min(p) < -1e-12:
            raise ValueError(f"negative probability {np.min(p):.3e}")
        sums = p.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ValueError("outcome distributions are not normalized")
        # Marginal of a must not depend on y, and of b not on x.
        pa = p.sum(axis=3)  # (k, l, 2)
        pb = p.sum(axis=2)  # (k, l, 2)
        if np.max(np.abs(pa - pa[:, :1, :])) > 1e-10:
            raise ValueError("signaling from Bob's input to Alice's marginal")
        if np.max(np.abs(pb - pb[:1, :, :])) > 1e-10:
            raise ValueError("signaling from Alice's input to Bob's marginal")

    def correlators(self) -> np.ndarray:
        """<A_x B_y> table: p00 - p01 - p10 + p11."""
        p = self.table
        return p[:, :, 0, 0] - p[:, :, 0, 1] - p[:, :, 1, 0] + p[:, :, 1, 1]


@dataclass(frozen=True)
class TightnessReport:
    """Diagnostics of the saturation conditions for a candidate strategy."""

    proportionality_ok: bool
    gram_sum: float
    gram_sum_ok: bool
    alice_aligned: bool
    bound_gap: float


# Coefficients of the 3x4 expression and of CHSH; max_violation recognises
# them by these tables.
_CHSH_COEFFS = np.array([[1.0, 1.0], [1.0, -1.0]])
_EBI_COEFFS = np.array(
    [
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)


def ebi() -> BellExpression:
    return BellExpression("ebi", _EBI_COEFFS)


# tightness_check's constants: the expression, and the index pairs k < l
# of Bob's Gram matrix.
_EBI = ebi()
_UPPER_PAIRS = np.triu_indices(4, k=1)


def chsh() -> BellExpression:
    return BellExpression("chsh", _CHSH_COEFFS)


def chained(n: int) -> BellExpression:
    """n-setting chained expression; the closing term A_1 B_n is negative."""
    if n < 2:
        raise OutOfRange(f"chained inequality needs n >= 2, got {n}")
    coeffs = np.zeros((n, n))
    for i in range(n):
        coeffs[i, i] = 1.0
    for i in range(n - 1):
        coeffs[i + 1, i] = 1.0
    coeffs[0, n - 1] = -1.0
    return BellExpression(f"chained{n}", coeffs)


def _check_shapes(expr: BellExpression, strategy: MeasurementStrategy) -> None:
    settings = (strategy.alice.shape[0], strategy.bob.shape[0])
    if settings != expr.coeffs.shape:
        raise DimensionMismatch(
            f"strategy has {settings} (Alice, Bob) settings, "
            f"expression wants {expr.coeffs.shape}"
        )


def expectation(
    state: TwoQubitState, expr: BellExpression, strategy: MeasurementStrategy
) -> float:
    """Signed expectation value via the correlator route a_k^T T b_l."""
    _check_shapes(expr, strategy)
    cd = correlation_data(state)
    return float(np.sum(expr.coeffs * (strategy.alice @ cd.t @ strategy.bob.T)))


def tight_bound(state: TwoQubitState) -> float:
    """4*sqrt(l1^2+l2^2+l3^2) = 4*||T||_F, the Frobenius norm of T."""
    return 4.0 * float(np.linalg.norm(correlation_data(state).t))


def optimal_measurements(state: TwoQubitState) -> MeasurementStrategy:
    """Measurements achieving the tight bound for the 3x4 expression.

    Bob's four vectors carry the component pattern (+-l1, +-l2, +-l3)/N in
    the right-singular basis of the correlation matrix T.  The k-th signed
    Bob combination is then +-4 l_k/N times the k-th right singular vector,
    which T maps onto a positive multiple of +-u_k, so Alice's vectors are
    the left singular vectors signed (+, -, +); where l_k vanishes, u_k is
    still a valid direction and the achieved value is unchanged.  The first
    nonzero component of each right singular vector is made nonnegative
    (and u_k signed alike), so the output is reproducible across platforms.
    """
    u, lam, vt = np.linalg.svd(correlation_data(state).t)
    first = np.argmax(np.abs(vt) > 1e-12, axis=1)
    signs = np.where(vt[np.arange(3), first] < 0.0, -1.0, 1.0)
    norm = float(np.linalg.norm(lam))
    if norm < 1e-12:
        raise DegenerateState("all singular values vanish; no direction defined")

    bob = (_BOB_SIGNS * lam) @ (vt.T * signs).T / norm
    bob /= np.linalg.norm(bob, axis=1, keepdims=True)
    # Row k of _EBI_COEFFS @ _BOB_SIGNS is 4 * (+1, -1, +1)[k] on the diagonal.
    alice = (u * signs * np.diag(_EBI_COEFFS @ _BOB_SIGNS) / 4.0).T
    return MeasurementStrategy(alice=alice, bob=bob)


def tightness_check(
    state: TwoQubitState, strategy: MeasurementStrategy
) -> TightnessReport:
    """Verify the saturation conditions of the tight bound.

    Checks (i) equality of the three ratios l_k / |signed Bob combination|,
    (ii) the sum of pairwise Bob inner products against -2, (iii) alignment
    of each Alice vector with the normalized T-image of its combination,
    and reports the gap between the tight bound and |<S>|.  A vanishing
    combination or image fails (i) or (iii) only where l_k does not vanish
    (l_k > EPS_TIGHT * max(1, l_1)).
    """
    expr = _EBI
    _check_shapes(expr, strategy)
    t = correlation_data(state).t
    lam = np.linalg.svd(t, compute_uv=False)
    required = lam > EPS_TIGHT * max(1.0, float(np.max(lam)))

    combos = expr.coeffs @ strategy.bob  # (3, 3), rows b1+b2-b3-b4 etc.
    lengths = np.linalg.norm(combos, axis=1)
    live = lengths > 1e-12
    ratios = lam[live] / lengths[live]
    proportional = not np.any(required & ~live) and not (
        ratios.size and np.ptp(ratios) > EPS_TIGHT
    )

    gram = strategy.bob @ strategy.bob.T
    gram_sum = float(np.sum(gram[_UPPER_PAIRS]))
    gram_ok = abs(gram_sum + 2.0) <= EPS_TIGHT

    images = combos @ t.T
    image_norms = np.linalg.norm(images, axis=1)
    live = image_norms > 1e-12
    offsets = np.linalg.norm(
        strategy.alice[live] - images[live] / image_norms[live, None], axis=1
    )
    aligned = not np.any(required & ~live) and not np.any(offsets > EPS_TIGHT)

    gap = tight_bound(state) - abs(expectation(state, expr, strategy))
    return TightnessReport(
        proportionality_ok=proportional,
        gram_sum=gram_sum,
        gram_sum_ok=gram_ok,
        alice_aligned=aligned,
        bound_gap=gap,
    )


def classical_bound(expr: BellExpression) -> float:
    """Maximum over deterministic +-1 assignments, by enumeration.

    One party's assignments are enumerated exhaustively; the other party's
    optimal signs follow analytically per assignment, which reproduces the
    full 2^(k+l) search exactly.
    """
    k, l = expr.alice_settings, expr.bob_settings
    if k + l > ENUMERATION_CAP:
        raise TooManySettings(f"k + l = {k + l} exceeds {ENUMERATION_CAP}")
    # Enumerate the smaller side, the table's columns.
    table = expr.coeffs if l <= k else expr.coeffs.T
    n_outer = table.shape[1]
    codes = np.arange(2**n_outer)[:, None]
    signs = 1.0 - 2.0 * ((codes >> np.arange(n_outer)) & 1)  # (2^n, n) of +-1
    return float(np.max(np.sum(np.abs(signs @ table.T), axis=1)))


def behavior_from(state: TwoQubitState, strategy: MeasurementStrategy) -> Behavior:
    """Outcome table of projective measurements (I +- a.sigma)/2 read from
    (r, s, T): p(ab|xy) = (1 + s_a a_x.r + s_b b_y.s + s_a s_b a_x^T T b_y)/4
    with s_0 = +1, s_1 = -1."""
    cd = correlation_data(state)
    sign = np.array([1.0, -1.0])
    alice = (strategy.alice @ cd.r)[:, None, None, None] * sign[:, None]
    bob = (strategy.bob @ cd.s)[None, :, None, None] * sign
    corr = (strategy.alice @ cd.t @ strategy.bob.T)[:, :, None, None] * np.outer(sign, sign)
    table = np.clip((1.0 + alice + bob + corr) / 4.0, 0.0, None)
    table /= table.sum(axis=(2, 3), keepdims=True)
    return Behavior(table=table)


@functools.cache
def _seesaw_tables(k: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the see-saw sweep for k x l settings: the
    block-ones matrices of Alice and Bob, with which (image * image) @ blocks
    puts each vector's squared norm in all three of its columns, and the
    selector of the first column of each of Bob's vectors."""
    alice_blocks = np.kron(np.eye(k), np.ones((3, 3)))
    bob_blocks = np.kron(np.eye(l), np.ones((3, 3)))
    bob_first = np.zeros(3 * l)
    bob_first[::3] = 1.0
    for table in (alice_blocks, bob_blocks, bob_first):
        table.setflags(write=False)
    return alice_blocks, bob_blocks, bob_first


def _unit_starts(
    rng: np.random.Generator, restarts: int, k: int, l: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random unit starting vectors of the see-saw, one row per restart:
    Alice's k vectors side by side, then Bob's l."""

    def unit_rows(shape):
        v = rng.normal(size=shape)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    alice = unit_rows((restarts, k, 3)).reshape(restarts, 3 * k)
    bob = unit_rows((restarts, l, 3)).reshape(restarts, 3 * l)
    return alice, bob


@functools.lru_cache(maxsize=4)
def _seeded_starts(restarts: int, seed: int, k: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """The starts of an integer seed, drawn once and kept read-only.  Four
    draws are kept, so a huge ``restarts`` cannot pin many such arrays: one
    per table shape of ebi, chsh and chained3 at the default 20 restarts,
    and the chained draw of :func:`max_violation` at 8."""
    starts = _unit_starts(np.random.default_rng(seed), restarts, k, l)
    for vectors in starts:
        vectors.setflags(write=False)
    return starts


def seesaw_max_violation(
    state: TwoQubitState,
    expr: BellExpression,
    restarts: int = 20,
    seed: int | None = 0,
) -> tuple[float, MeasurementStrategy]:
    """Alternating closed-form maximization of the correlator expression.

    With Bob fixed, each Alice vector is the normalized image
    T (sum_l c_kl b_l); with Alice fixed, each Bob vector is the normalized
    image T^T (sum_k c_kl a_k).  Restarts run from seeded random unit
    vectors and the best converged value wins (first restart on ties);
    the starts of an integer seed are drawn once and cached, any other
    seed, None included, draws them afresh.  The objective is monotone
    nondecreasing along the updates.

    Each restart is one row of its party's vectors side by side, and T is
    folded into the coefficient table once, so a sweep is one matrix
    product per half-step.  The objective sum_l b_l . image_l is read as
    the sum of the norms of Bob's images.  Every half-step writes into
    buffers allocated once per call; the returned strategy is a copy.

    A vector whose image vanishes (norm <= 1e-300) keeps its previous
    value.  The sweep tests for that on the squared norms, before the
    square root: a norm is <= 1e-300 exactly when its square is 0.0, since
    the square root of the smallest subnormal is 2.2e-162.  The per-vector
    fallback runs only in a half-step where some squared norm is 0.0.
    """
    if restarts < 1:
        raise OutOfRange("restarts must be >= 1")
    t = correlation_data(state).t
    coeffs = expr.coeffs
    k, l = coeffs.shape
    if type(seed) is int:
        # The sweep overwrites its vectors, so it works on copies.
        alice, bob = (v.copy() for v in _seeded_starts(restarts, seed, k, l))
    else:
        alice, bob = _unit_starts(np.random.default_rng(seed), restarts, k, l)
    # kron(C^T, T^T) (3l, 3k): bob row -> T sum_l c_kl b_l, and
    # kron(C, T) (3k, 3l): alice row -> T^T sum_k c_kl a_k.
    to_alice = (coeffs.T[:, None, :, None] * t.T[:, None, :]).reshape(3 * l, 3 * k)
    to_bob = (coeffs[:, None, :, None] * t[:, None, :]).reshape(3 * k, 3 * l)
    alice_blocks, bob_blocks, bob_first = _seesaw_tables(k, l)

    dot, multiply, sqrt, divide = np.dot, np.multiply, np.sqrt, np.divide
    # Per half-step: the product table, the block-ones matrix, the vectors
    # it overwrites, and buffers for their images, squares and norms.
    half_steps = [
        (table, blocks, vectors, *(np.empty_like(vectors) for _ in range(3)))
        for table, blocks, vectors in (
            (to_alice, alice_blocks, alice),
            (to_bob, bob_blocks, bob),
        )
    ]
    values = np.full(restarts, -np.inf)
    for _ in range(500):
        source = bob
        for table, blocks, vectors, image, squares, norms in half_steps:
            dot(source, table, out=image)
            multiply(image, image, out=squares)
            dot(squares, blocks, out=norms)
            # Is the smallest squared norm 0.0?  (np.count_nonzero gives the
            # same answer but left the process 0.1 MB larger.)
            vanishing = norms.item(norms.argmin()) == 0.0
            sqrt(norms, out=norms)
            if vanishing:
                divide(image, norms, out=vectors, where=norms > 1e-300)
            else:
                divide(image, norms, out=vectors)
            source = vectors
        # norms are Bob's: read the value before the next sweep overwrites them.
        values, old = dot(norms, bob_first), values
        if max(map(abs, (values - old).tolist())) < 1e-12:
            break

    best = int(values.argmax())
    strategy = MeasurementStrategy(
        alice=alice[best].reshape(k, 3).copy(), bob=bob[best].reshape(l, 3).copy()
    )
    return float(values[best]), strategy


def family_state(family: str, param: float) -> TwoQubitState:
    """Resolve a one-parameter state family name to a state."""
    if family == "pure-theta":
        return pure_state(param)
    if family == "werner-p":
        return werner_state(param)
    raise OutOfRange(f"unknown family {family!r}")


def family_domain(family: str) -> tuple[float, float]:
    if family == "pure-theta":
        return 0.0, float(np.pi / 4)
    if family == "werner-p":
        return 0.0, 1.0
    raise OutOfRange(f"unknown family {family!r}")


def max_violation(state: TwoQubitState, expr: BellExpression, seed: int = 0) -> float:
    """An achievable Bell value of ``expr`` for ``state``, not always its maximum.

    Closed forms, recognised by the coefficient table whatever the name:
    the tight bound for the 3x4 expression, achieved by optimal_measurements
    (some states admit better strategies), and for CHSH its maximum
    2 sqrt(t1^2 + t2^2) over the two largest singular values of T
    (Horodecki, Phys. Lett. A 200 (1995)); the seeded see-saw otherwise.
    """
    if np.array_equal(expr.coeffs, _EBI_COEFFS):
        return tight_bound(state)
    if np.array_equal(expr.coeffs, _CHSH_COEFFS):
        t1, t2, _ = np.linalg.svd(correlation_data(state).t, compute_uv=False)
        return 2.0 * float(np.hypot(t1, t2))
    value, _ = seesaw_max_violation(state, expr, restarts=8, seed=seed)
    return abs(value)


def violation_threshold(
    family: str, expr: BellExpression, tol: float = 1e-6
) -> float:
    """Smallest family parameter whose max_violation value reaches the
    classical bound, by bisection on the monotone family.  The bisection
    stops at ``tol`` or once the bracket has no float strictly inside."""
    lo, hi = family_domain(family)
    bound = classical_bound(expr)

    def gap(param: float) -> float:
        return max_violation(family_state(family, param), expr) - bound

    if gap(hi) <= 1e-9:  # the bound never strictly exceeds the classical one
        raise NoCrossing(f"{expr.name} is never violated on family {family!r}")
    if gap(lo) >= -1e-9:
        return lo
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid
