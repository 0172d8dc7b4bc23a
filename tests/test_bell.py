from dataclasses import fields, replace

import numpy as np
import pytest

from bellbound import (
    MeasurementStrategy,
    TwoQubitState,
    behavior_from,
    bell_operator,
    chained,
    chsh,
    classical_bound,
    ebi,
    expectation,
    operator_expectation,
    optimal_measurements,
    pure_state,
    seesaw_max_violation,
    singlet,
    tight_bound,
    tightness_check,
    violation_threshold,
    werner_state,
)
from bellbound import bell
from bellbound.bell import BellExpression, family_domain, family_state, max_violation
from bellbound.errors import (
    DegenerateState,
    DimensionMismatch,
    NoCrossing,
    OutOfRange,
    TooManySettings,
)
from conftest import random_state, random_strategy

ROOT3 = np.sqrt(3.0)


def brute_force_classical(expr: BellExpression) -> float:
    """Plain 2^(k+l) enumeration, the independent oracle for classical_bound."""
    k, l = expr.alice_settings, expr.bob_settings
    best = -np.inf
    for a_code in range(2**k):
        a = 1.0 - 2.0 * ((a_code >> np.arange(k)) & 1)
        for b_code in range(2**l):
            b = 1.0 - 2.0 * ((b_code >> np.arange(l)) & 1)
            value = a @ expr.coeffs @ b
            best = max(best, value)
    return float(best)


class TestBuilders:
    def test_ebi_coefficients(self):
        expr = ebi()
        assert expr.alice_settings == 3 and expr.bob_settings == 4
        assert np.array_equal(expr.coeffs[0], [1, 1, -1, -1])
        assert np.array_equal(expr.coeffs[1], [1, -1, 1, -1])
        assert np.array_equal(expr.coeffs[2], [1, -1, -1, 1])

    def test_table_is_the_whole_record(self):
        expr = BellExpression("ints", [[1, 0, -1], [0, 1, 1]])
        assert [f.name for f in fields(BellExpression)] == ["name", "coeffs"]
        assert expr.coeffs.dtype == np.float64
        assert (expr.alice_settings, expr.bob_settings) == (2, 3)

    @pytest.mark.parametrize(
        "table", [[[np.nan]], [[1.0, np.inf]], [[-np.inf], [0.0]]]
    )
    def test_rejects_non_finite_table(self, table):
        with pytest.raises(OutOfRange):
            BellExpression("bad", np.array(table))

    @pytest.mark.parametrize(
        "table",
        [np.float64(1.0), np.ones(3), np.ones((2, 2, 2)), np.zeros((0, 2)),
         np.zeros((2, 0))],
        ids=["0d", "1d", "3d", "no-rows", "no-columns"],
    )
    def test_rejects_bad_shape(self, table):
        with pytest.raises(DimensionMismatch):
            BellExpression("bad", table)

    def test_chsh_coefficients(self):
        assert np.array_equal(chsh().coeffs, [[1, 1], [1, -1]])

    def test_chained3_coefficients(self):
        expr = chained(3)
        nz = expr.coeffs[expr.coeffs != 0]
        assert expr.coeffs.shape == (3, 3)
        assert nz.size == 6 and set(np.abs(nz)) == {1.0}
        # Expansion of A1B1 + A2B1 + A2B2 + A3B2 + A3B3 - A1B3.
        expected = np.array([[1, 0, -1], [1, 1, 0], [0, 1, 1]], dtype=float)
        assert np.array_equal(expr.coeffs, expected)

    def test_chained_domain(self):
        with pytest.raises(OutOfRange):
            chained(1)


class TestExpectation:
    def test_maximally_entangled_canonical(self, octahedron_cuboid_strategy):
        value = expectation(pure_state(np.pi / 4), ebi(), octahedron_cuboid_strategy)
        assert abs(value - 4 * ROOT3) < 1e-12

    def test_singlet_canonical(self, octahedron_cuboid_strategy):
        # On the singlet the canonical strategy evaluates to -4/sqrt(3);
        # saturation requires the sign-adapted Alice axes below.
        value = expectation(singlet(), ebi(), octahedron_cuboid_strategy)
        assert abs(value + 4 / ROOT3) < 1e-12

    def test_singlet_sign_adapted_canonical(self, octahedron_cuboid_strategy):
        flipped = MeasurementStrategy(
            alice=np.diag([1.0, -1.0, 1.0]), bob=octahedron_cuboid_strategy.bob
        )
        value = expectation(singlet(), ebi(), flipped)
        assert abs(value + 4 * ROOT3) < 1e-12  # saturates with negative sign

    def test_maximally_mixed_is_zero(self, octahedron_cuboid_strategy):
        value = expectation(werner_state(0.0), ebi(), octahedron_cuboid_strategy)
        assert abs(value) < 1e-14

    def test_routes_agree(self):
        rng = np.random.default_rng(21)
        expressions = [ebi(), chsh(), chained(3)]
        for _ in range(100):
            expr = expressions[rng.integers(len(expressions))]
            state = random_state(rng)
            strat = random_strategy(rng, expr.alice_settings, expr.bob_settings)
            a = expectation(state, expr, strat)
            b = operator_expectation(state, expr, strat)
            assert abs(a - b) <= 1e-12

    def test_dimension_mismatch(self, octahedron_cuboid_strategy):
        with pytest.raises(DimensionMismatch):
            expectation(singlet(), chsh(), octahedron_cuboid_strategy)
        bob_only = MeasurementStrategy(alice=np.eye(3)[:2], bob=np.eye(3))
        with pytest.raises(DimensionMismatch, match=r"\(2, 3\).*\(2, 2\)"):
            expectation(singlet(), chsh(), bob_only)
        # An empty settings axis is a shape error, not numpy's reduction error.
        with pytest.raises(DimensionMismatch):
            MeasurementStrategy(alice=np.zeros((0, 3)), bob=np.eye(3))
        with pytest.raises(DimensionMismatch):
            bell.Behavior(table=np.zeros((0, 1, 2, 2)))


class TestTightBound:
    def test_singlet(self):
        assert abs(tight_bound(singlet()) - 4 * ROOT3) < 1e-12

    def test_pure_family_formula(self):
        for theta in np.linspace(0, np.pi / 4, 50):
            expected = 4 * np.sqrt(1 + 2 * np.sin(2 * theta) ** 2)
            assert abs(tight_bound(pure_state(theta)) - expected) <= 1e-10

    def test_werner_family_formula(self):
        for p in np.linspace(0, 1, 11):
            assert abs(tight_bound(werner_state(p)) - 4 * ROOT3 * p) <= 1e-10


class TestOptimalMeasurements:
    def test_singlet_reproduces_cuboid(self, octahedron_cuboid_strategy):
        strat = optimal_measurements(singlet())
        assert np.max(np.abs(strat.bob - octahedron_cuboid_strategy.bob)) < 1e-12
        assert np.max(np.abs(strat.alice - np.diag([-1.0, 1.0, -1.0]))) < 1e-12
        value = expectation(singlet(), ebi(), strat)
        assert abs(abs(value) - 4 * ROOT3) < 1e-9

    def test_pure_state_reaches_formula(self):
        state = pure_state(np.pi / 6)
        value = expectation(state, ebi(), optimal_measurements(state))
        assert abs(value - 4 * np.sqrt(2.5)) < 1e-9

    def test_matches_literal_cuboid_construction(self):
        # The explicit coefficient-pattern measurements achieve the same value.
        theta = np.pi / 6
        s2 = np.sin(2 * theta)
        norm = np.sqrt(1 + 2 * s2**2)
        bob = np.array(
            [[s2, -s2, 1], [s2, s2, -1], [-s2, -s2, -1], [-s2, s2, 1]]
        ) / norm
        literal = MeasurementStrategy(alice=np.eye(3), bob=bob)
        state = pure_state(theta)
        assert abs(expectation(state, ebi(), literal) - 4 * np.sqrt(2.5)) < 1e-12

    def test_werner(self):
        state = werner_state(0.8)
        value = expectation(state, ebi(), optimal_measurements(state))
        assert abs(value - 3.2 * ROOT3) < 1e-9

    def test_degenerate_rank_one_correlation(self):
        state = pure_state(0.0)  # singular values (1, 0, 0)
        strat = optimal_measurements(state)
        assert abs(expectation(state, ebi(), strat) - 4.0) < 1e-9

    def test_fully_degenerate_raises(self):
        with pytest.raises(DegenerateState):
            optimal_measurements(werner_state(0.0))

    def test_sign_convention_and_determinism(self):
        # Bob's vectors come from right singular vectors whose first nonzero
        # component is made nonnegative; LAPACK's own signs differ for some
        # of these states, so the reference below fails without the rule.
        rng = np.random.default_rng(5)
        flipped = 0
        for _ in range(20):
            state = random_state(rng)
            t = bell.correlation_data(state).t
            lam, vt = np.linalg.svd(t)[1:]
            signs = np.ones(3)
            for j in range(3):
                first = np.flatnonzero(np.abs(vt[j]) > 1e-12)[0]
                if vt[j, first] < 0.0:
                    signs[j] = -1.0
                    flipped += 1
            v = vt.T * signs
            expected = (bell._BOB_SIGNS * lam) @ v.T / float(np.linalg.norm(lam))
            expected /= np.linalg.norm(expected, axis=1, keepdims=True)
            first_run = optimal_measurements(state)
            second_run = optimal_measurements(state)
            assert np.array_equal(first_run.bob, second_run.bob)
            assert np.array_equal(first_run.alice, second_run.alice)
            assert np.array_equal(first_run.bob, expected)
        assert flipped > 0


class TestTightnessCheck:
    def test_optimal_strategies_pass(self):
        for state in (pure_state(np.pi / 4), singlet(), werner_state(0.6)):
            report = tightness_check(state, optimal_measurements(state))
            assert report.proportionality_ok
            assert report.gram_sum_ok and abs(report.gram_sum + 2.0) <= 1e-8
            assert report.alice_aligned
            assert abs(report.bound_gap) < 1e-9

    def test_all_equal_bob_fails(self):
        z = np.array([0.0, 0.0, 1.0])
        strat = MeasurementStrategy(alice=np.eye(3), bob=np.tile(z, (4, 1)))
        report = tightness_check(singlet(), strat)
        assert abs(report.gram_sum - 6.0) < 1e-12
        assert not report.gram_sum_ok
        assert not report.proportionality_ok
        assert not report.alice_aligned
        assert report.bound_gap > 0.0

    def test_saturation_along_pure_family(self):
        for theta in np.linspace(0.01, np.pi / 4, 25):
            state = pure_state(theta)
            strat = optimal_measurements(state)
            assert abs(abs(expectation(state, ebi(), strat)) - tight_bound(state)) <= 1e-9
            report = tightness_check(state, strat)
            assert abs(report.gram_sum + 2.0) <= 1e-8


class TestClassicalBound:
    def test_builtin_values(self):
        assert classical_bound(ebi()) == 6.0
        assert classical_bound(chsh()) == 2.0
        assert classical_bound(chained(3)) == 4.0
        assert classical_bound(chained(2)) == 2.0

    def test_chained_series(self):
        for n in range(2, 8):
            assert classical_bound(chained(n)) == 2 * n - 2

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(1, 4))
            expr = BellExpression("random", rng.normal(size=(k, l)))
            assert abs(classical_bound(expr) - brute_force_classical(expr)) < 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(32)
        base = ebi()
        for _ in range(20):
            perm_a = rng.permutation(3)
            perm_b = rng.permutation(4)
            flips_a = rng.choice([-1.0, 1.0], size=3)
            flips_b = rng.choice([-1.0, 1.0], size=4)
            coeffs = (flips_a[:, None] * base.coeffs[perm_a][:, perm_b]) * flips_b[None, :]
            relabeled = BellExpression("relabelled", coeffs)
            assert classical_bound(relabeled) == 6.0

    def test_enumeration_guard(self):
        with pytest.raises(TooManySettings):
            classical_bound(chained(13))


def einsum_seesaw(state, expr, restarts, seed):
    """The see-saw as first written, one einsum per step: the reference the
    matrix-product sweep of seesaw_max_violation is checked against."""
    t = bell.correlation_data(state).t
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
    return float(np.max(values))


def seesaw_probe_states():
    """Seeded Haar-like mixed, Werner and pure-family states."""
    rng = np.random.default_rng(2024)
    mixed = [random_state(rng) for _ in range(6)]
    werner = [werner_state(p) for p in rng.uniform(0.05, 1.0, size=4)]
    pure = [pure_state(theta) for theta in rng.uniform(0.0, np.pi / 4, size=4)]
    return mixed + werner + pure


class TestSeesaw:
    @pytest.mark.parametrize("restarts", [8, 20])
    @pytest.mark.parametrize("make_expr", [ebi, chsh, lambda: chained(3)])
    def test_matches_einsum_reference(self, make_expr, restarts):
        expr = make_expr()
        for seed, state in enumerate(seesaw_probe_states()):
            value, strat = seesaw_max_violation(state, expr, restarts, seed)
            assert abs(value - einsum_seesaw(state, expr, restarts, seed)) <= 1e-12
            assert abs(expectation(state, expr, strat) - value) <= 1e-12

    def test_singlet_reaches_maximum(self):
        value, strat = seesaw_max_violation(singlet(), ebi(), restarts=20, seed=0)
        assert abs(value - 4 * ROOT3) < 1e-8
        assert abs(expectation(singlet(), ebi(), strat) - value) < 1e-12

    def test_maximally_mixed_is_zero(self):
        value, strat = seesaw_max_violation(werner_state(0.0), ebi(), restarts=5, seed=0)
        assert abs(value) < 1e-12
        # Every image vanishes, so each vector keeps its seeded start and the
        # first restart wins the tie.
        rng = np.random.default_rng(0)
        starts = [rng.normal(size=(5, n, 3)) for n in (3, 4)]
        alice, bob = (v / np.linalg.norm(v, axis=-1, keepdims=True) for v in starts)
        assert np.array_equal(strat.alice, alice[0])
        assert np.array_equal(strat.bob, bob[0])

    def test_werner_family_matches_formula(self):
        for p in (0.3, 0.6, 0.9, 1.0):
            value, _ = seesaw_max_violation(werner_state(p), ebi(), restarts=10, seed=2)
            assert abs(value - 4 * ROOT3 * p) < 1e-7

    def test_commuting_strategy_dominates_below_threshold(self):
        # Below the violation threshold the best strategy aligns every
        # vector with the top singular direction and scores 6 * lambda_1,
        # strictly above the singular-value formula.
        value, _ = seesaw_max_violation(pure_state(0.3), ebi(), restarts=20, seed=0)
        assert abs(value - 6.0) < 1e-8
        assert value > tight_bound(pure_state(0.3)) + 0.8

    def test_formula_is_not_the_per_state_maximum_midrange(self):
        # Frozen counterexample, cross-checked against an independent
        # optimizer: at theta = 0.4712 the optimum exceeds the
        # singular-value formula by ~0.096.
        state = pure_state(0.4712)
        value, strat = seesaw_max_violation(state, ebi(), restarts=30, seed=3)
        assert abs(value - 6.174379787161) < 1e-9
        assert value > tight_bound(state) + 0.09
        assert abs(operator_expectation(state, ebi(), strat) - value) < 1e-10

    def test_seesaw_sandwich_on_mixed_pure_family(self):
        # Provable envelope for the optimum: both the singular-value value
        # and the commuting pattern 6*lambda_1 are achievable, and
        # 4*sqrt(3)*lambda_1 bounds every strategy from above.
        rng = np.random.default_rng(77)
        for _ in range(25):
            theta = rng.uniform(0.0, np.pi / 4)
            q = rng.uniform(0.05, 1.0)
            state = TwoQubitState(q * pure_state(theta).rho + (1 - q) * np.eye(4) / 4)
            value, _ = seesaw_max_violation(state, ebi(), restarts=20, seed=5)
            lam1 = q  # top singular value of q * diag(s, -s, 1)
            assert value >= max(tight_bound(state), 6.0 * lam1) - 1e-7
            assert value <= 4 * ROOT3 * lam1 + 1e-9

    def test_deterministic_under_seed(self):
        a, _ = seesaw_max_violation(pure_state(0.6), ebi(), restarts=8, seed=9)
        b, _ = seesaw_max_violation(pure_state(0.6), ebi(), restarts=8, seed=9)
        assert a == b

    def test_restart_domain(self):
        with pytest.raises(OutOfRange):
            seesaw_max_violation(singlet(), ebi(), restarts=0)


class TestBehavior:
    def test_singlet_anticorrelation(self):
        z = np.array([0.0, 0.0, 1.0])
        strat = MeasurementStrategy(alice=z[None, :], bob=z[None, :])
        table = behavior_from(singlet(), strat).table
        assert abs(table[0, 0, 0, 0]) < 1e-12
        assert abs(table[0, 0, 1, 1]) < 1e-12
        assert abs(table[0, 0, 0, 1] - 0.5) < 1e-12
        assert abs(table[0, 0, 1, 0] - 0.5) < 1e-12

    def test_maximally_mixed_uniform(self, octahedron_cuboid_strategy):
        table = behavior_from(werner_state(0.0), octahedron_cuboid_strategy).table
        assert np.max(np.abs(table - 0.25)) < 1e-12

    def test_bell_value_from_behavior(self, octahedron_cuboid_strategy):
        state = pure_state(np.pi / 4)
        behavior = behavior_from(state, octahedron_cuboid_strategy)
        value = float(np.sum(ebi().coeffs * behavior.correlators()))
        assert abs(value - 4 * ROOT3) <= 1e-10

    def test_rejects_non_finite_table(self):
        with pytest.raises(OutOfRange):
            bell.Behavior(table=np.full((1, 1, 2, 2), np.nan))

    def test_no_signaling_random(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            state = random_state(rng)
            strat = random_strategy(rng, 3, 4)
            behavior = behavior_from(state, strat)  # constructor validates
            p = behavior.table
            pa = p.sum(axis=3)
            pb = p.sum(axis=2)
            assert np.max(np.abs(pa - pa[:, :1, :])) <= 1e-10
            assert np.max(np.abs(pb - pb[:1, :, :])) <= 1e-10


class TestViolationThreshold:
    def test_pure_family(self):
        theta_star = violation_threshold("pure-theta", ebi())
        assert abs(theta_star - 0.4559) <= 1e-3
        closed_form = np.arcsin(np.sqrt(5.0 / 8.0)) / 2.0
        assert abs(theta_star - closed_form) <= 2e-6

    def test_werner_family(self):
        p_star = violation_threshold("werner-p", ebi())
        assert abs(p_star - ROOT3 / 2) <= 2e-6

    def test_tolerance_below_float_spacing_terminates(self):
        # The bisection ends once no float lies strictly inside the bracket.
        for tol in (0.0, 1e-17):
            p_star = violation_threshold("werner-p", ebi(), tol=tol)
            assert abs(p_star - ROOT3 / 2) <= 1e-15

    def test_chsh_violated_everywhere(self):
        assert violation_threshold("pure-theta", chsh()) == 0.0

    def test_no_crossing(self):
        flat = BellExpression("flat", np.ones((2, 2)))
        with pytest.raises(NoCrossing):
            violation_threshold("werner-p", flat)

    def test_family_helpers(self):
        assert family_domain("pure-theta") == (0.0, np.pi / 4)
        assert family_domain("werner-p") == (0.0, 1.0)
        state = family_state("werner-p", 0.5)
        assert abs(max_violation(state, ebi()) - 2 * ROOT3) < 1e-12
        with pytest.raises(OutOfRange):
            family_state("bogus", 0.1)


class TestMaxViolation:
    def test_closed_form_chosen_by_coefficients(self):
        state = pure_state(0.3)
        renamed = replace(ebi(), name="gisin")
        assert max_violation(state, renamed) == tight_bound(state)

    def test_name_alone_does_not_pick_closed_form(self):
        state = pure_state(0.3)
        impostor = replace(chsh(), name="ebi")
        value, _ = seesaw_max_violation(state, impostor, restarts=8, seed=7)
        assert max_violation(state, impostor) == abs(value)
        assert abs(value) < tight_bound(state) - 1.0


class TestStrategySerialization:
    def test_json_round_trip(self, octahedron_cuboid_strategy):
        text = octahedron_cuboid_strategy.to_json()
        again = MeasurementStrategy.from_json(text)
        assert np.array_equal(again.alice, octahedron_cuboid_strategy.alice)
        assert np.array_equal(again.bob, octahedron_cuboid_strategy.bob)

    def test_rejects_non_unit(self):
        with pytest.raises(OutOfRange):
            MeasurementStrategy(alice=np.eye(3) * 2.0, bob=np.eye(3))

    def test_rejects_nan_vector(self):
        alice = np.eye(3)
        alice[1, 0] = np.nan
        with pytest.raises(OutOfRange):
            MeasurementStrategy(alice=alice, bob=np.eye(3))

    def test_operator_is_hermitian(self, octahedron_cuboid_strategy):
        op = bell_operator(ebi(), octahedron_cuboid_strategy)
        assert np.max(np.abs(op - op.conj().T)) < 1e-12
