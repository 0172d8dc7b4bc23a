import math

import numpy as np
import pytest

from bellbound import (
    RandomnessPoint,
    build_moment_structure,
    chained,
    chsh,
    classical_bound,
    ebi,
    entropy_crossover,
    max_guessing_probability,
    min_entropy_curve,
    solve,
    tsirelson_bound,
)
from bellbound import npa
from bellbound.errors import InfeasibleValue, OutOfRange, UnsupportedLevel
from bellbound.bell import BellExpression
from bellbound.npa import curve_csv

ROOT2 = np.sqrt(2.0)
ROOT3 = np.sqrt(3.0)


def scenario(k: int, l: int) -> BellExpression:
    """An all-zero expression: only its numbers of settings matter."""
    return BellExpression("zero", np.zeros((k, l)))


def ge_guessing_probability(expr, value, level="2"):
    """max_guessing_probability with the Bell value as a lower bound ('ge'
    form, reached only through the problem cache)."""
    best = 0.0
    for a in range(2):
        for b in range(2):
            problem, const = npa._cached_guess_problem(
                expr, level, 0, 0, a, b, "ge"
            ).at(value)
            best = max(best, const + solve(problem).dual_obj)
    return min(1.0, max(0.25, best))


class TestMomentStructure:
    def test_monomial_counts(self):
        assert build_moment_structure(2, 2, 1).size == 5
        assert build_moment_structure(3, 4, "1+AB").size == 20
        assert build_moment_structure(3, 4, 2).size == 38

    def test_identity_class_is_pinned(self):
        ms = build_moment_structure(3, 4, 2)
        assert ms.monomials[0].alice == () and ms.monomials[0].bob == ()
        assert ms.entry_class[0, 0] == 0
        assert np.count_nonzero(ms.entry_class == 0) == 1
        assert ms.class_indicator[:, 0].nonzero()[0].tolist() == [0]

    def test_entry_classes_are_symmetric(self):
        ms = build_moment_structure(3, 4, 2)
        assert np.array_equal(ms.entry_class, ms.entry_class.T)

    def test_idempotence_and_commutation(self):
        ms = build_moment_structure(2, 2, 2)
        # <P_x (P_x)> collapses to <P_x>: diagonal of a single-projector
        # word equals its first moment.
        idx_a0 = next(
            i for i, m in enumerate(ms.monomials) if m.alice == (0,) and m.bob == ()
        )
        assert ms.entry_class[idx_a0, idx_a0] == ms.entry_class[0, idx_a0]
        # <A0 B0> equals <B0 A0> by commutation: the (B0, A0) entry joins
        # the same class as (A0, B0).
        idx_b0 = next(
            i for i, m in enumerate(ms.monomials) if m.bob == (0,) and m.alice == ()
        )
        assert ms.entry_class[idx_a0, idx_b0] == ms.entry_class[idx_b0, idx_a0]

    def test_reconstructed_matrix_symmetry(self):
        ms = build_moment_structure(3, 4, 2)
        rng = np.random.default_rng(12)
        for _ in range(50):
            values = rng.normal(size=ms.class_count)
            values[0] = 1.0
            matrix = values[ms.entry_class]
            assert np.array_equal(matrix, matrix.T)
            assert matrix[0, 0] == 1.0

    def test_constraint_budget(self):
        ms = build_moment_structure(3, 4, 2)
        bell = npa._bell_functional(ms, ebi())
        prob = npa._prob_functional(ms, ebi(), 0, 0, 0, 0)
        budget = ms.size * (ms.size + 1) // 2
        tsirelson = npa._reduced_sdp(ms, bell).problem
        eq = npa._reduced_sdp(ms, prob, bell, "eq").problem
        ge = npa._reduced_sdp(ms, prob, bell, "ge").problem
        assert len(tsirelson.constraints) == ms.class_count - 1 == 301
        assert len(eq.constraints) == ms.class_count - 2
        assert len(ge.constraints) == ms.class_count - 1
        for problem in (tsirelson, eq, ge):
            assert len(problem.constraints) <= budget

    @pytest.mark.parametrize("level", ["1", "1+AB", "2"])
    @pytest.mark.parametrize("expr", [ebi(), chsh(), chained(3)],
                             ids=["ebi", "chsh", "chained3"])
    def test_tsirelson_operator_spans_the_moment_matrix(self, expr, level):
        # F0 + sum_i z_i F_i = z[entry_class] with F0 = C and F_i = -A_i,
        # the free classes being every class but the identity, in order.
        ms = build_moment_structure(expr.alice_settings, expr.bob_settings, level)
        problem = npa._reduced_sdp(ms, npa._bell_functional(ms, expr)).problem
        identity = ms.entry_class[0, 0]
        free = [c for c in range(ms.class_count) if c != identity]
        rng = np.random.default_rng(21)
        for _ in range(5):
            z = rng.normal(size=ms.class_count)
            z[identity] = 1.0
            matrix = problem.c.copy()
            for (a, _), cid in zip(problem.constraints, free, strict=True):
                matrix -= z[cid] * a.toarray()
            assert np.max(np.abs(matrix - z[ms.entry_class])) <= 1e-14

    def test_unsupported_level(self):
        with pytest.raises(UnsupportedLevel):
            build_moment_structure(2, 2, 3)

    def test_scenario_validation(self):
        with pytest.raises(OutOfRange):
            build_moment_structure(0, 2, 2)
        with pytest.raises(OutOfRange):
            build_moment_structure(2, 0, 1)

    @pytest.mark.parametrize("level", npa.LEVELS)
    @pytest.mark.parametrize("k,l", [(1, 1), (2, 2), (3, 3), (3, 4), (4, 2)])
    def test_first_order_classes_match_moment_keys(self, k, l, level):
        # Oracle: the class of each canonical moment key, collected over
        # every entry of the moment matrix; each key owns exactly one class.
        ms = build_moment_structure(k, l, level)
        key_to_class = {}
        for i, wi in enumerate(ms.monomials):
            for j, wj in enumerate(ms.monomials):
                key = npa._moment_key(
                    npa._collapse(wi.alice[::-1] + wj.alice),
                    npa._collapse(wi.bob[::-1] + wj.bob),
                )
                assert key_to_class.setdefault(key, ms.entry_class[i, j]) == (
                    ms.entry_class[i, j]
                )
        assert len(key_to_class) == ms.class_count
        alice, bob, joint = npa._first_order_classes(ms, scenario(k, l))
        assert alice.tolist() == [key_to_class[((x,), ())] for x in range(k)]
        assert bob.tolist() == [key_to_class[((), (y,))] for y in range(l)]
        assert joint.tolist() == [
            [key_to_class[((x,), (y,))] for y in range(l)] for x in range(k)
        ]


class TestTsirelsonBound:
    def test_level_one_values(self):
        assert abs(tsirelson_bound(ebi(), 1) - 4 * ROOT3) <= 1e-5
        assert abs(tsirelson_bound(chsh(), 1) - 2 * ROOT2) <= 1e-5
        assert abs(tsirelson_bound(chained(3), 1) - 3 * ROOT3) <= 1e-4

    @pytest.mark.parametrize("level", ["1", "1+AB", "2"])
    @pytest.mark.parametrize(
        "expr,qmax",
        [(ebi(), 4 * ROOT3), (chsh(), 2 * ROOT2), (chained(3), 3 * ROOT3)],
        ids=["ebi", "chsh", "chained3"],
    )
    def test_values_bound_the_quantum_maximum(self, expr, qmax, level):
        value = tsirelson_bound(expr, level)
        assert abs(value - qmax) <= 1e-7
        assert value >= qmax - 1e-9

    def test_levels_are_non_increasing(self):
        for expr in (ebi(), chsh(), chained(3)):
            level1 = tsirelson_bound(expr, 1)
            level_ab = tsirelson_bound(expr, "1+AB")
            level2 = tsirelson_bound(expr, 2)
            assert level2 <= level1 + 1e-7
            # Between adjacent levels the ordering is asserted up to the
            # combined solver tolerance of the two values.
            assert level2 <= level_ab + 5e-7
            assert level_ab <= level1 + 5e-7

    def test_transposed_shapes_with_equal_bytes_are_cached_apart(self, monkeypatch):
        # CHSH on (B1, B2) plus A1 B3, against A1(B1+B2) + A2(B1+B2) - A3 B1:
        # the same bytes in a 2x3 and a 3x2 table, with quantum values
        # 1 + 2 sqrt(2) and 5.
        wide = BellExpression("wide", np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]))
        tall = BellExpression("tall", wide.coeffs.reshape(3, 2))
        assert wide.coeffs.tobytes() == tall.coeffs.tobytes()
        assert npa._expr_cache_key(wide, "1+AB") != npa._expr_cache_key(tall, "1+AB")
        monkeypatch.setattr(npa, "_tsirelson_cache", {})
        assert abs(tsirelson_bound(wide, "1+AB") - (1 + 2 * ROOT2)) <= 1e-7
        assert abs(tsirelson_bound(tall, "1+AB") - 5.0) <= 1e-7


class TestGuessingProbability:
    def test_classical_point_is_uncertifiable(self):
        for expr, cb in ((ebi(), 6.0), (chsh(), 2.0), (chained(3), 4.0)):
            g = max_guessing_probability(expr, cb, (0, 0), 2)
            assert abs(g - 1.0) <= 1e-4
            assert -math.log2(g) <= 1e-3  # certified entropy vanishes here

    def test_chsh_maximum(self):
        g = max_guessing_probability(chsh(), 2 * ROOT2, (0, 0), 2)
        assert abs(g - (1 + 1 / ROOT2) / 4) <= 1e-4
        assert abs(-math.log2(g) - 1.2284) <= 5e-3

    def test_ebi_maximum(self):
        g = max_guessing_probability(ebi(), 4 * ROOT3, (0, 0), 2)
        assert abs(g - (1 + 1 / ROOT3) / 4) <= 1e-4
        assert abs(-math.log2(g) - 1.3425) <= 5e-3

    def test_chained_maximum(self):
        g = max_guessing_probability(chained(3), 3 * ROOT3, (0, 0), 2)
        assert abs(g - (1 + ROOT3 / 2) / 4) <= 1e-4
        assert abs(-math.log2(g) - 1.1000) <= 5e-3

    def test_monotone_in_bell_value(self):
        for expr, cb, qmax, tol in (
            (chsh(), 2.0, 2 * ROOT2, 1e-5),
            (chained(3), 4.0, 3 * ROOT3, 1e-5),
        ):
            grid = np.linspace(cb, qmax, 11)
            values = [max_guessing_probability(expr, float(i), (0, 0), 2) for i in grid]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + tol

    def test_monotone_in_bell_value_ebi(self):
        grid = np.linspace(6.0, 4 * ROOT3, 11)
        values = [max_guessing_probability(ebi(), float(i), (0, 0), 2) for i in grid]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-5

    def test_ge_variant_agrees(self):
        eq = max_guessing_probability(chsh(), 2.5, (0, 0), 2)
        ge = ge_guessing_probability(chsh(), 2.5)
        assert abs(eq - ge) <= 1e-6

    def test_infeasible_value(self):
        with pytest.raises(InfeasibleValue):
            max_guessing_probability(chsh(), 3.5, (0, 0), 2)

    def test_input_pair_validation(self):
        with pytest.raises(OutOfRange):
            max_guessing_probability(chsh(), 2.2, (0, 5), 2)
        with pytest.raises(OutOfRange):
            max_guessing_probability(chsh(), 2.2, (-1, 0), 2)

    def test_all_input_pairs_agree_at_maximum(self):
        # The maximal-violation behavior is setting-symmetric.
        values = [
            max_guessing_probability(chsh(), 2 * ROOT2, (x, y), 2)
            for x in range(2)
            for y in range(2)
        ]
        assert max(values) - min(values) <= 1e-4


class TestGuessProblemReuse:
    @pytest.mark.parametrize("mode", ["eq", "ge"])
    @pytest.mark.parametrize("level", ["1+AB", "2"])
    @pytest.mark.parametrize("expr", [ebi(), chsh()], ids=["ebi", "chsh"])
    def test_reused_problem_matches_fresh_build(self, expr, level, mode):
        ms = build_moment_structure(expr.alice_settings, expr.bob_settings, level)
        bell = npa._bell_functional(ms, expr)
        cb, qmax = classical_bound(expr), tsirelson_bound(expr, level)
        values = [cb + f * (qmax - cb) for f in (0.3, 0.6, 0.9)]
        for value in values + values[-2::-1]:  # up, then back down
            best = 0.0
            for a in range(2):
                for b in range(2):
                    reused = npa._cached_guess_problem(expr, level, 0, 0, a, b, mode)
                    problem, const = reused.at(value)
                    fresh, fresh_const = npa._reduced_sdp(
                        ms, npa._prob_functional(ms, expr, 0, 0, a, b), bell, mode
                    ).at(value)
                    assert problem._amat is reused.problem._amat
                    assert np.array_equal(problem.c, fresh.c)
                    assert const == fresh_const
                    best = max(best, fresh_const + solve(fresh).dual_obj)
            if mode == "eq":
                reused_value = max_guessing_probability(expr, value, (0, 0), level)
            else:
                reused_value = ge_guessing_probability(expr, value, level)
            assert abs(reused_value - min(1.0, max(0.25, best))) <= 1e-12


class TestRandomnessPoint:
    def test_entropy_identity_enforced(self):
        # The entropy is derived from the probability, never stored.
        pt = RandomnessPoint(bell_value=2.5, guessing_probability=0.5)
        assert pt.min_entropy == 1.0
        certain = RandomnessPoint(bell_value=2.5, guessing_probability=1.0)
        assert math.copysign(1.0, certain.min_entropy) == 1.0
        with pytest.raises(TypeError):
            RandomnessPoint(bell_value=2.5, guessing_probability=0.5, min_entropy=0.9)
        for bad in (0.0, 1.5):
            with pytest.raises(ValueError):
                RandomnessPoint(bell_value=2.5, guessing_probability=bad)


class TestMinEntropyCurve:
    def test_no_violation_means_zero_entropy(self):
        points = min_entropy_curve("werner-p", np.linspace(0, 0.5, 6), ebi(), 2)
        assert all(pt.min_entropy == 0.0 for pt in points)
        assert all(pt.guessing_probability == 1.0 for pt in points)

    def test_zero_at_exact_threshold(self):
        points = min_entropy_curve("werner-p", [ROOT3 / 2], ebi(), 2)
        assert points[0].min_entropy == 0.0

    def test_endpoint_values(self):
        pt = min_entropy_curve("pure-theta", [np.pi / 4], ebi(), 2)[0]
        assert abs(pt.bell_value - 4 * ROOT3) < 1e-10
        assert abs(pt.min_entropy - 1.34) <= 0.05
        pt = min_entropy_curve("werner-p", [1.0], chained(3), 2)[0]
        assert abs(pt.min_entropy - 1.1) <= 0.05

    def test_input_pair_checked_without_violation(self):
        # No grid point violates, so no guessing SDP would see the pair.
        for pair in ((7, -3), (9, 9), (0, 2)):
            with pytest.raises(OutOfRange):
                min_entropy_curve("werner-p", [0.0, 0.5], chsh(), 2, input_pair=pair)

    def test_entropy_identity_along_curve(self):
        points = min_entropy_curve(
            "werner-p", np.linspace(0.9, 1.0, 5), chsh(), 2
        )
        for pt in points:
            assert abs(pt.min_entropy + math.log2(pt.guessing_probability)) <= 1e-12

    def test_csv_format(self):
        params = [0.9, 1.0]
        points = min_entropy_curve("werner-p", params, chsh(), 2)
        text = curve_csv(params, points)
        lines = text.strip().split("\n")
        assert lines[0] == "param,bell_value,guessing_probability,min_entropy_bits"
        assert len(lines) == 3
        fields = lines[2].split(",")
        assert abs(float(fields[1]) - 2 * ROOT2) < 1e-9


class TestEntropyCrossover:
    def test_simple_crossing(self):
        params = [0.0, 1.0, 2.0, 3.0]

        def pts(entropies):
            return [
                RandomnessPoint(bell_value=1.0, guessing_probability=2.0**-h)
                for h in entropies
            ]

        a = pts([0.0, 0.0, 0.5, 1.0])
        b = pts([0.2, 0.2, 0.25, 0.25])
        crossing = entropy_crossover(params, a, b)
        assert crossing is not None and 1.0 < crossing < 2.0

    def test_no_crossing(self):
        params = [0.0, 1.0]

        def pt(h):
            return RandomnessPoint(bell_value=1.0, guessing_probability=2.0**-h)

        assert entropy_crossover(params, [pt(0.1), pt(0.2)], [pt(0.5), pt(0.9)]) is None
