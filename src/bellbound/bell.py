"""
Bell expressions and everything evaluated on top of them: expectation
values, the tight violation bound from correlation-matrix singular values,
synthesis of measurements that saturate it, saturation diagnostics,
classical (deterministic-strategy) bounds, an alternating see-saw oracle,
and quantum behaviors p(ab|xy).

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

    4 * sqrt(l1^2 + l2^2 + l3^2)

is achieved exactly by measurements built from the singular vectors (see
optimal_measurements); on isotropic correlation matrices (l1 = l2 = l3)
it coincides with the per-state optimum.  Off that family strictly better
strategies can exist, which the see-saw oracle below will find.
"""

from __future__ import annotations

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
    ID2,
    PAULI,
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
        for label, vecs in (("alice", self.alice), ("bob", self.bob)):
            if vecs.ndim != 2 or vecs.shape[1] != 3 or vecs.shape[0] == 0:
                raise DimensionMismatch(f"{label} vectors must have shape (n, 3), n >= 1")
            norms = np.linalg.norm(vecs, axis=1)
            if not np.max(np.abs(norms - 1.0)) <= EPS_UNIT:  # NaN fails too
                raise OutOfRange(f"{label} vectors must be unit within {EPS_UNIT}")

    def to_json(self) -> str:
        return json.dumps({"alice": self.alice.tolist(), "bob": self.bob.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "MeasurementStrategy":
        payload = json.loads(text)
        return cls(
            alice=np.array(payload["alice"], dtype=float),
            bob=np.array(payload["bob"], dtype=float),
        )


@dataclass(frozen=True, eq=False)
class Behavior:
    """Conditional-probability table p[x, y, a, b] for dichotomic outcomes.

    Validated for finiteness, nonnegativity, normalization per input pair,
    and no-signaling between the parties.
    """

    table: np.ndarray  # (k, l, 2, 2)

    def __post_init__(self):
        p = self.table
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


# Coefficients of the 3x4 expression; max_violation recognises it by them.
_EBI_COEFFS = np.array(
    [
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)


def ebi() -> BellExpression:
    return BellExpression("ebi", _EBI_COEFFS)


def chsh() -> BellExpression:
    return BellExpression("chsh", np.array([[1.0, 1.0], [1.0, -1.0]]))


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


def _obs(v: np.ndarray) -> np.ndarray:
    """Dichotomic qubit observable v.sigma."""
    return v[0] * PAULI[0] + v[1] * PAULI[1] + v[2] * PAULI[2]


def bell_operator(expr: BellExpression, strategy: MeasurementStrategy) -> np.ndarray:
    """4x4 operator sum_kl c_kl (a_k.sigma)(x)(b_l.sigma)."""
    _check_shapes(expr, strategy)
    op = np.zeros((4, 4), dtype=complex)
    for k in range(expr.alice_settings):
        for l in range(expr.bob_settings):
            if expr.coeffs[k, l] != 0.0:
                op += expr.coeffs[k, l] * np.kron(
                    _obs(strategy.alice[k]), _obs(strategy.bob[l])
                )
    return op


def operator_expectation(
    state: TwoQubitState, expr: BellExpression, strategy: MeasurementStrategy
) -> float:
    """Independent route tr(rho S); equals :func:`expectation` to roundoff."""
    return float(np.real(np.trace(state.rho @ bell_operator(expr, strategy))))


def _tight_value(lam: np.ndarray) -> float:
    return 4.0 * float(np.sqrt(np.sum(lam**2)))


def tight_bound(state: TwoQubitState) -> float:
    """4*sqrt(l1^2+l2^2+l3^2) from the correlation-matrix singular values."""
    return _tight_value(np.linalg.svd(correlation_data(state).t)[1])


def optimal_measurements(state: TwoQubitState) -> MeasurementStrategy:
    """Measurements achieving the tight bound for the 3x4 expression.

    Bob's four vectors carry the component pattern (+-l1, +-l2, +-l3)/N in
    the right-singular basis of the correlation matrix T; Alice's vectors
    are the normalized images under T of the three signed Bob combinations.
    Where such an image vanishes (zero singular value), the corresponding
    left singular direction is substituted, which leaves the achieved value
    unchanged.  The first nonzero component of each right singular vector
    is made nonnegative, so the output is reproducible across platforms.
    """
    cd = correlation_data(state)
    u, lam, vt = np.linalg.svd(cd.t)
    first = np.argmax(np.abs(vt) > 1e-12, axis=1)
    signs = np.where(vt[np.arange(3), first] < 0.0, -1.0, 1.0)
    left, right = u * signs, vt.T * signs
    norm = float(np.linalg.norm(lam))
    if norm < 1e-12:
        raise DegenerateState("all singular values vanish; no direction defined")

    bob = (_BOB_SIGNS * lam) @ right.T / norm
    bob /= np.linalg.norm(bob, axis=1, keepdims=True)

    signs = ebi().coeffs  # rows give b1+b2-b3-b4 and friends
    alice = np.zeros((3, 3))
    for k in range(3):
        image = cd.t @ (signs[k] @ bob)
        length = np.linalg.norm(image)
        if length > 1e-12:
            alice[k] = image / length
        else:
            alice[k] = left[:, k]
    return MeasurementStrategy(alice=alice, bob=bob)


def tightness_check(
    state: TwoQubitState, strategy: MeasurementStrategy
) -> TightnessReport:
    """Verify the saturation conditions of the tight bound.

    Checks (i) equality of the three ratios l_k / |signed Bob combination|,
    (ii) the sum of pairwise Bob inner products against -2, (iii) alignment
    of each Alice vector with the normalized T-image of its combination,
    and reports the gap between the tight bound and |<S>|.
    """
    expr = ebi()
    _check_shapes(expr, strategy)
    cd = correlation_data(state)
    lam = np.linalg.svd(cd.t)[1]

    combos = expr.coeffs @ strategy.bob  # (3, 3), rows b1+b2-b3-b4 etc.
    lengths = np.linalg.norm(combos, axis=1)

    ratios = []
    proportional = True
    scale = max(1.0, float(np.max(lam)))
    for k in range(3):
        if lengths[k] > 1e-12:
            ratios.append(lam[k] / lengths[k])
        elif lam[k] > EPS_TIGHT * scale:
            proportional = False  # finite singular value but vanishing combination
    if ratios and (max(ratios) - min(ratios)) > EPS_TIGHT:
        proportional = False

    gram = strategy.bob @ strategy.bob.T
    gram_sum = float(np.sum(gram[np.triu_indices(4, k=1)]))
    gram_ok = abs(gram_sum + 2.0) <= EPS_TIGHT

    aligned = True
    for k in range(3):
        image = cd.t @ combos[k]
        length = np.linalg.norm(image)
        if length > 1e-12:
            if np.linalg.norm(strategy.alice[k] - image / length) > EPS_TIGHT:
                aligned = False
        elif lam[k] > EPS_TIGHT * scale:
            aligned = False  # a direction is required here but the image vanishes

    gap = _tight_value(lam) - abs(expectation(state, expr, strategy))
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
    """Outcome table from projective measurements (I +- a.sigma)/2."""
    rho = state.rho
    k = strategy.alice.shape[0]
    l = strategy.bob.shape[0]

    def projectors(v):
        obs = _obs(v)
        return (ID2 + obs) / 2.0, (ID2 - obs) / 2.0

    table = np.zeros((k, l, 2, 2))
    for x in range(k):
        pa = projectors(strategy.alice[x])
        for y in range(l):
            pb = projectors(strategy.bob[y])
            for a in range(2):
                for b in range(2):
                    table[x, y, a, b] = float(
                        np.real(np.trace(rho @ np.kron(pa[a], pb[b])))
                    )
    table = np.clip(table, 0.0, None)
    table /= table.sum(axis=(2, 3), keepdims=True)
    return Behavior(table=table)


def seesaw_max_violation(
    state: TwoQubitState,
    expr: BellExpression,
    restarts: int = 20,
    seed: int = 0,
) -> tuple[float, MeasurementStrategy]:
    """Alternating closed-form maximization of the correlator expression.

    With Bob fixed, each Alice vector is the normalized image
    T (sum_l c_kl b_l); with Alice fixed, each Bob vector is the normalized
    image T^T (sum_k c_kl a_k).  Restarts run from seeded random unit
    vectors and the best converged value wins (first restart on ties).
    The objective is monotone nondecreasing along the updates.
    """
    if restarts < 1:
        raise OutOfRange("restarts must be >= 1")
    t = correlation_data(state).t
    coeffs = expr.coeffs
    rng = np.random.default_rng(seed)

    def unit_rows(shape):
        v = rng.normal(size=shape)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    alice = unit_rows((restarts, expr.alice_settings, 3))
    bob = unit_rows((restarts, expr.bob_settings, 3))

    def normalize(v, fallback):
        norms = np.sqrt((v * v).sum(-1, keepdims=True))
        return np.divide(v, norms, out=fallback.copy(), where=norms > 1e-300)

    values = np.full(restarts, -np.inf)
    for _ in range(500):
        alice = normalize(coeffs @ bob @ t.T, alice)
        image = coeffs.T @ alice @ t  # (restarts, l, 3): T^T sum_k c_kl a_k
        bob = normalize(image, bob)
        values, old = (image * bob).sum(axis=(1, 2)), values
        if np.max(np.abs(values - old)) < 1e-12:
            break

    best = int(np.argmax(values))
    strategy = MeasurementStrategy(alice=alice[best].copy(), bob=bob[best].copy())
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


def max_violation(state: TwoQubitState, expr: BellExpression, seed: int = 7) -> float:
    """An achievable Bell value of ``expr`` for ``state``, not its maximum.

    The closed form (the tight bound), achieved by optimal_measurements, for
    the 3x4 expression recognised by its coefficients whatever its name (some
    states admit better strategies); the see-saw oracle's value otherwise.
    """
    if np.array_equal(expr.coeffs, _EBI_COEFFS):
        return tight_bound(state)
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
