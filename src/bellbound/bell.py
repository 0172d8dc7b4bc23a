"""
Bell expressions and everything evaluated on top of them: expectation
values, the tight violation bound from correlation-matrix singular values,
synthesis of measurements that saturate it, saturation diagnostics,
classical (deterministic-strategy) bounds, an alternating see-saw oracle,
and quantum behaviors p(ab|xy).

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
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateState,
    DimensionMismatch,
    NoCrossing,
    OutOfRange,
    TooManySettings,
)
from .linalg import kron, svd3
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

    ``marginal`` coefficients are carried for generality; they are zero for
    all three built-ins.  ``classical_bound`` is an optional cached value,
    see :func:`classical_bound`.
    """

    name: str
    alice_settings: int
    bob_settings: int
    coeffs: np.ndarray            # (k, l)
    alice_marginals: np.ndarray   # (k,)
    bob_marginals: np.ndarray     # (l,)
    classical_bound: float | None = None

    def __post_init__(self):
        if self.coeffs.shape != (self.alice_settings, self.bob_settings):
            raise DimensionMismatch(
                f"coefficient table {self.coeffs.shape} does not match "
                f"({self.alice_settings}, {self.bob_settings})"
            )
        if self.alice_marginals.shape != (self.alice_settings,):
            raise DimensionMismatch("alice marginal length mismatch")
        if self.bob_marginals.shape != (self.bob_settings,):
            raise DimensionMismatch("bob marginal length mismatch")

    def with_classical_bound(self) -> "BellExpression":
        return replace(self, classical_bound=classical_bound(self))


@dataclass(frozen=True, eq=False)
class MeasurementStrategy:
    """Per-party lists of unit Bloch vectors defining dichotomic observables."""

    alice: np.ndarray  # (k, 3)
    bob: np.ndarray    # (l, 3)

    def __post_init__(self):
        for label, vecs in (("alice", self.alice), ("bob", self.bob)):
            if vecs.ndim != 2 or vecs.shape[1] != 3:
                raise DimensionMismatch(f"{label} vectors must have shape (n, 3)")
            norms = np.linalg.norm(vecs, axis=1)
            if np.max(np.abs(norms - 1.0)) > EPS_UNIT:
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

    Validated for nonnegativity, normalization per input pair, and
    no-signaling between the parties.
    """

    table: np.ndarray  # (k, l, 2, 2)

    def __post_init__(self):
        p = self.table
        if p.ndim != 4 or p.shape[2:] != (2, 2):
            raise DimensionMismatch(f"behavior table has shape {p.shape}")
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

    def to_csv(self) -> str:
        lines = ["x,y,a,b,p"]
        k, l, _, _ = self.table.shape
        for x in range(k):
            for y in range(l):
                for a in range(2):
                    for b in range(2):
                        lines.append(f"{x},{y},{a},{b},{self.table[x, y, a, b]:.12g}")
        return "\n".join(lines) + "\n"


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
    return BellExpression(
        name="ebi",
        alice_settings=3,
        bob_settings=4,
        coeffs=_EBI_COEFFS.copy(),
        alice_marginals=np.zeros(3),
        bob_marginals=np.zeros(4),
    )


def chsh() -> BellExpression:
    coeffs = np.array([[1.0, 1.0], [1.0, -1.0]])
    return BellExpression(
        name="chsh",
        alice_settings=2,
        bob_settings=2,
        coeffs=coeffs,
        alice_marginals=np.zeros(2),
        bob_marginals=np.zeros(2),
    )


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
    return BellExpression(
        name=f"chained{n}",
        alice_settings=n,
        bob_settings=n,
        coeffs=coeffs,
        alice_marginals=np.zeros(n),
        bob_marginals=np.zeros(n),
    )


def _check_shapes(expr: BellExpression, strategy: MeasurementStrategy) -> None:
    if strategy.alice.shape[0] != expr.alice_settings:
        raise DimensionMismatch(
            f"strategy has {strategy.alice.shape[0]} Alice settings, "
            f"expression wants {expr.alice_settings}"
        )
    if strategy.bob.shape[0] != expr.bob_settings:
        raise DimensionMismatch(
            f"strategy has {strategy.bob.shape[0]} Bob settings, "
            f"expression wants {expr.bob_settings}"
        )


def expectation(
    state: TwoQubitState, expr: BellExpression, strategy: MeasurementStrategy
) -> float:
    """Signed expectation value via the correlator route a_k^T T b_l."""
    _check_shapes(expr, strategy)
    cd = correlation_data(state)
    value = float(np.sum(expr.coeffs * (strategy.alice @ cd.t @ strategy.bob.T)))
    value += float(expr.alice_marginals @ (strategy.alice @ cd.r))
    value += float(expr.bob_marginals @ (strategy.bob @ cd.s))
    return value


def bell_operator(expr: BellExpression, strategy: MeasurementStrategy) -> np.ndarray:
    """4x4 operator sum_kl c_kl (a_k.sigma)(x)(b_l.sigma) plus marginal terms."""
    _check_shapes(expr, strategy)

    def obs(v):
        return v[0] * PAULI[0] + v[1] * PAULI[1] + v[2] * PAULI[2]

    op = np.zeros((4, 4), dtype=complex)
    for k in range(expr.alice_settings):
        for l in range(expr.bob_settings):
            if expr.coeffs[k, l] != 0.0:
                op += expr.coeffs[k, l] * kron(obs(strategy.alice[k]), obs(strategy.bob[l]))
    for k in range(expr.alice_settings):
        if expr.alice_marginals[k] != 0.0:
            op += expr.alice_marginals[k] * kron(obs(strategy.alice[k]), ID2)
    for l in range(expr.bob_settings):
        if expr.bob_marginals[l] != 0.0:
            op += expr.bob_marginals[l] * kron(ID2, obs(strategy.bob[l]))
    return op


def operator_expectation(
    state: TwoQubitState, expr: BellExpression, strategy: MeasurementStrategy
) -> float:
    """Independent route tr(rho S); equals :func:`expectation` to roundoff."""
    return float(np.real(np.trace(state.rho @ bell_operator(expr, strategy))))


def tight_bound(state: TwoQubitState) -> float:
    """4*sqrt(l1^2+l2^2+l3^2) from the correlation-matrix singular values."""
    sv = svd3(correlation_data(state).t).singular_values
    return 4.0 * float(np.sqrt(np.sum(sv**2)))


def optimal_measurements(state: TwoQubitState) -> MeasurementStrategy:
    """Measurements achieving the tight bound for the 3x4 expression.

    Bob's four vectors carry the component pattern (+-l1, +-l2, +-l3)/N in
    the right-singular basis of the correlation matrix T; Alice's vectors
    are the normalized images under T of the three signed Bob combinations.
    Where such an image vanishes (zero singular value), the corresponding
    left singular direction is substituted, which leaves the achieved value
    unchanged.
    """
    cd = correlation_data(state)
    dec = svd3(cd.t)
    lam = dec.singular_values
    norm = float(np.linalg.norm(lam))
    if norm < 1e-12:
        raise DegenerateState("all singular values vanish; no direction defined")

    bob = (_BOB_SIGNS * lam) @ dec.right_vectors.T / norm
    bob /= np.linalg.norm(bob, axis=1, keepdims=True)

    signs = ebi().coeffs  # rows give b1+b2-b3-b4 and friends
    alice = np.zeros((3, 3))
    for k in range(3):
        image = cd.t @ (signs[k] @ bob)
        length = np.linalg.norm(image)
        if length > 1e-12:
            alice[k] = image / length
        else:
            alice[k] = dec.left_vectors[:, k]
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
    lam = svd3(cd.t).singular_values

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
    # Enumerate the smaller side.
    if l <= k:
        table = expr.coeffs
        outer_marg, inner_marg = expr.bob_marginals, expr.alice_marginals
        n_outer = l
    else:
        table = expr.coeffs.T
        outer_marg, inner_marg = expr.alice_marginals, expr.bob_marginals
        n_outer = k
    codes = np.arange(2**n_outer)[:, None]
    signs = 1.0 - 2.0 * ((codes >> np.arange(n_outer)) & 1)  # (2^n, n) of +-1
    inner_sums = signs @ table.T + inner_marg  # (2^n, k_inner)
    values = np.sum(np.abs(inner_sums), axis=1) + signs @ outer_marg
    return float(np.max(values))


def behavior_from(state: TwoQubitState, strategy: MeasurementStrategy) -> Behavior:
    """Outcome table from projective measurements (I +- a.sigma)/2."""
    rho = state.rho
    k = strategy.alice.shape[0]
    l = strategy.bob.shape[0]

    def projectors(v):
        obs = v[0] * PAULI[0] + v[1] * PAULI[1] + v[2] * PAULI[2]
        return (ID2 + obs) / 2.0, (ID2 - obs) / 2.0

    table = np.zeros((k, l, 2, 2))
    for x in range(k):
        pa = projectors(strategy.alice[x])
        for y in range(l):
            pb = projectors(strategy.bob[y])
            for a in range(2):
                for b in range(2):
                    table[x, y, a, b] = float(
                        np.real(np.trace(rho @ kron(pa[a], pb[b])))
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
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
        ok = norms > 1e-300
        return np.where(ok, v / np.where(ok, norms, 1.0), fallback)

    values = np.full(restarts, -np.inf)
    for _ in range(500):
        alice = normalize(np.einsum("kl,rlx,yx->rky", coeffs, bob, t), alice)
        bob = normalize(np.einsum("kl,rkx,xy->rly", coeffs, alice, t), bob)
        new = np.einsum("kl,rkx,xy,rly->r", coeffs, alice, t, bob)
        if np.max(np.abs(new - values)) < 1e-12:
            values = new
            break
        values = new

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
    """Maximal quantum violation of ``expr`` for ``state``.

    Closed form (the tight bound) for the 3x4 expression, recognised by its
    coefficients and zero marginals whatever its name; see-saw oracle
    otherwise.
    """
    if (
        np.array_equal(expr.coeffs, _EBI_COEFFS)
        and not expr.alice_marginals.any()
        and not expr.bob_marginals.any()
    ):
        return tight_bound(state)
    value, _ = seesaw_max_violation(state, expr, restarts=8, seed=seed)
    return abs(value)


def violation_threshold(
    family: str, expr: BellExpression, tol: float = 1e-6
) -> float:
    """Smallest family parameter whose maximal violation reaches the
    classical bound, by bisection on the monotone family."""
    lo, hi = family_domain(family)
    bound = classical_bound(expr)

    def gap(param: float) -> float:
        return max_violation(family_state(family, param), expr) - bound

    if gap(hi) <= 1e-9:  # the bound never strictly exceeds the classical one
        raise NoCrossing(f"{expr.name} is never violated on family {family!r}")
    if gap(lo) >= -1e-9:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
