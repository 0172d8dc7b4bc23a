import itertools
import math
import time
from decimal import Context, Decimal
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

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
from bellbound.errors import InfeasibleValue, OutOfRange, SolverError, UnsupportedLevel
from bellbound.bell import BellExpression, family_state, max_violation
from bellbound.npa import curve_csv
from bellbound.sdp import gram_problem

ROOT2 = np.sqrt(2.0)
ROOT3 = np.sqrt(3.0)


def scenario(k: int, l: int) -> BellExpression:
    """An all-zero expression: only its numbers of settings matter."""
    return BellExpression("zero", np.zeros((k, l)))


EXPRESSIONS = {"ebi": ebi(), "chsh": chsh(), "chained3": chained(3), "chained4": chained(4)}


def same_bits(ours, theirs) -> bool:
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return (ours.dtype == theirs.dtype and ours.shape == theirs.shape
            and ours.tobytes() == theirs.tobytes())


def loop_bell_functional(ms, expr):
    """Reference: the per-coefficient loop that filled g before it was
    filled by class."""
    alice, bob, joint = npa._first_order_classes(ms, expr)
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


def indicator_reduced_sdp(ms, bell=None):
    """Reference: the constraints, C and f0_step of the reduced SDP built
    from an n^2 x classes class-indicator operator, column by column."""
    n = ms.size
    cols = sp.csc_matrix(
        (np.ones(n * n), (np.arange(n * n), ms.entry_class.ravel())),
        shape=(n * n, ms.class_count),
    )
    identity = int(ms.entry_class[0, 0])
    free = np.flatnonzero(np.arange(ms.class_count) != identity)
    f0_step = None
    if bell is None:
        f = cols[:, free]
    else:
        g = bell[0]
        weights = np.abs(g)
        weights[identity] = 0.0
        beta = int(np.argmax(weights))
        free = free[free != beta]
        f = cols[:, free] - cols[:, [beta]] @ sp.csr_matrix(g[free] / g[beta])
        f0_step = cols[:, beta].toarray().reshape(n, n)
    f = f.tocsc()
    constraints = []
    for i in range(f.shape[1]):
        lo, hi = f.indptr[i], f.indptr[i + 1]
        flat = f.indices[lo:hi]
        constraints.append(
            sp.csr_matrix((-f.data[lo:hi], (flat // n, flat % n)), shape=(n, n))
        )
    return constraints, cols[:, identity].toarray().reshape(n, n), f0_step


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
        assert np.flatnonzero(ms.entry_class == 0).tolist() == [0]

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
        budget = ms.size * (ms.size + 1) // 2
        tsirelson = npa._reduced_sdp(ms).problem
        guess = npa._reduced_sdp(ms, bell).problem
        assert len(tsirelson.constraints) == ms.class_count - 1 == 301
        assert len(guess.constraints) == ms.class_count - 2
        for problem in (tsirelson, guess):
            assert len(problem.constraints) <= budget

    def test_rejects_bell_functional_without_moments(self):
        ms = build_moment_structure(2, 2, 1)
        bell = npa._bell_functional(ms, scenario(2, 2))
        assert not np.any(bell[0])
        with pytest.raises(ValueError, match="no moment dependence"):
            npa._reduced_sdp(ms, bell)

    @pytest.mark.parametrize("level", npa.LEVELS)
    @pytest.mark.parametrize("name", list(EXPRESSIONS))
    def test_every_problem_counts_m_once(self, name, level):
        # The benchmark's tracer reads m as len(problem.constraints), the
        # read-only view of the operator's rows.  The Bell-free form makes
        # the Tsirelson and Lagrangian problems, the pinned form the
        # equality ones.
        expr = EXPRESSIONS[name]
        free, pinned = (npa._moment_sdp(expr, level, pair) for pair in (None, (0, 0)))
        prob = npa._prob_functional(pinned.structure, expr, 0, 0, 0, 0)
        for problem in (free.problem, free.at(npa._bell_functional(free.structure, expr))[0],
                        pinned.problem, pinned.at(prob, classical_bound(expr))[0]):
            assert problem.a.shape[0] == problem.b.size == len(problem.constraints)

    @pytest.mark.parametrize("level", ["1", "1+AB", "2"])
    @pytest.mark.parametrize("expr", [ebi(), chsh(), chained(3)],
                             ids=["ebi", "chsh", "chained3"])
    def test_tsirelson_operator_spans_the_moment_matrix(self, expr, level):
        # F0 + sum_i z_i F_i = z[entry_class] with F0 = C and F_i = -A_i,
        # the free classes being every class but the identity, in order.
        ms = build_moment_structure(expr.alice_settings, expr.bob_settings, level)
        problem, _ = npa._reduced_sdp(ms).at(npa._bell_functional(ms, expr))
        identity = ms.entry_class[0, 0]
        free = [c for c in range(ms.class_count) if c != identity]
        rng = np.random.default_rng(21)
        for _ in range(5):
            z = rng.normal(size=ms.class_count)
            z[identity] = 1.0
            matrix = problem.c.copy()
            for a, cid in zip(problem.constraints, free, strict=True):
                matrix -= z[cid] * a.toarray()
            assert np.max(np.abs(matrix - z[ms.entry_class])) <= 1e-14

    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    @pytest.mark.parametrize("level", npa.LEVELS)
    @pytest.mark.parametrize("name", list(EXPRESSIONS))
    def test_matches_class_indicator_build(self, name, level, pinned):
        expr = EXPRESSIONS[name]
        ms = build_moment_structure(expr.alice_settings, expr.bob_settings, level)
        bell = npa._bell_functional(ms, expr) if pinned else None
        sdp = npa._reduced_sdp(ms, bell)
        constraints, c, f0_step = indicator_reduced_sdp(ms, bell)
        # The reference matrices, one row each, stack to the same operator.
        n = ms.size
        stacked = sp.vstack([a.reshape(1, n * n) for a in constraints], format="csr")
        assert all(same_bits(getattr(sdp.problem.a, f), getattr(stacked, f))
                   for f in ("indptr", "indices", "data"))
        assert same_bits(sdp.problem.c, c)
        assert (sdp.f0_step is None) == (f0_step is None)
        assert f0_step is None or same_bits(sdp.f0_step, f0_step)

    @pytest.mark.parametrize("level", npa.LEVELS)
    def test_bell_functional_matches_loop(self, level):
        # numpy's pairwise sum reorders a row of 8 or more terms.  Every
        # merged structure of every input pair is checked too; the last
        # table keeps the ebi symmetry, so its merged classes sum terms of
        # mixed magnitudes.
        rng = np.random.default_rng(40)
        tables = [
            BellExpression("float", rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, shape))
            for shape in ((3, 4), (3, 11), (3, 4))
        ]
        symmetric = tables[-1].coeffs
        symmetric[0, 3] = symmetric[0, 2]
        symmetric[2] = symmetric[1, [0, 1, 3, 2]]
        assert len(npa._stabilizer(symmetric, 0, 0)) == 2
        for expr in [*EXPRESSIONS.values(), *tables]:
            k, l = expr.coeffs.shape
            merged = [npa._merged_structure(expr, level, (x, y))
                      for x in range(k) for y in range(l)]
            for ms in [build_moment_structure(k, l, level), *merged]:
                g, const = npa._bell_functional(ms, expr)
                g_ref, const_ref = loop_bell_functional(ms, expr)
                assert same_bits(g, g_ref)
                assert type(const) is float and same_bits(const, const_ref)

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


class TestSettingSymmetry:
    IDENTITY = ((0, 1, 2), (0, 1, 2, 3))
    EBI_SWAP = ((0, 2, 1), (0, 1, 3, 2))  # Alice 1<->2 with Bob 2<->3

    @staticmethod
    def brute_force(coeffs, x, y):
        k, l = coeffs.shape
        return {
            (pa, pb)
            for pa in itertools.permutations(range(k)) if pa[x] == x
            for pb in itertools.permutations(range(l)) if pb[y] == y
            if np.array_equal(coeffs[list(pa)][:, list(pb)], coeffs)
        }

    @pytest.mark.parametrize("pair", [(0, 0), (0, 1)])
    def test_ebi_stabilizer(self, pair):
        assert npa._stabilizer(ebi().coeffs, *pair) == [self.IDENTITY, self.EBI_SWAP]

    @pytest.mark.parametrize("name", list(EXPRESSIONS))
    def test_matches_brute_force(self, name):
        # Every table here has distinct columns, so the search finds the
        # whole stabilizer.
        coeffs = EXPRESSIONS[name].coeffs
        for x in range(coeffs.shape[0]):
            for y in range(coeffs.shape[1]):
                found = npa._stabilizer(coeffs, x, y)
                assert len(set(found)) == len(found)
                assert set(found) == self.brute_force(coeffs, x, y)

    def test_large_scenario_is_fast(self):
        started = time.perf_counter()
        found = npa._stabilizer(chained(8).coeffs, 0, 0)
        assert time.perf_counter() - started <= 1.0
        assert found == [(tuple(range(8)), tuple(range(8)))]

    @pytest.mark.parametrize("level,plain,merged", [("1", 29, 19), ("1+AB", 95, 55),
                                                    ("2", 302, 167)])
    def test_ebi_class_counts(self, level, plain, merged):
        base = build_moment_structure(3, 4, level)
        assert base.class_count == plain
        for pair in ((0, 0), (0, 1)):
            ms = npa._merged_structure(ebi(), level, pair)
            assert ms.class_count == merged
            # Each merged class is a union of plain classes, and every class
            # shares its label with its image under the swap.
            labels = np.zeros(plain, dtype=np.int64)
            labels[base.entry_class] = ms.entry_class
            assert np.array_equal(labels[base.entry_class], ms.entry_class)
            assert sorted(set(labels.tolist())) == list(range(merged))
            index = {m: i for i, m in enumerate(base.monomials)}
            pa, pb = self.EBI_SWAP
            p = [index[npa.Monomial(tuple(pa[s] for s in m.alice), tuple(pb[s] for s in m.bob))]
                 for m in base.monomials]
            assert np.array_equal(ms.entry_class, ms.entry_class[np.ix_(p, p)])

    @pytest.mark.parametrize("level", npa.LEVELS)
    @pytest.mark.parametrize("expr", [chsh(), chained(3)], ids=["chsh", "chained3"])
    def test_trivial_stabilizer_keeps_the_plain_structure(self, expr, level):
        k, l = expr.coeffs.shape
        ms = build_moment_structure(k, l, level)
        for x in range(k):
            for y in range(l):
                assert npa._stabilizer(expr.coeffs, x, y) == [(tuple(range(k)), tuple(range(l)))]
                assert npa._merged_structure(expr, level, (x, y)) is ms
        assert npa._moment_sdp(expr, level, (0, 0)).structure is ms

    @pytest.mark.slow
    @pytest.mark.parametrize("level", npa.LEVELS)
    def test_merged_certificates_match_unmerged(self, level):
        # Both forms certify the same optimum.  Each solve stops at a
        # relative gap and residuals of 1e-8 and its certificate adds the
        # residual's 1-norm, so the two may differ by a few 1e-8; the
        # solver's own primal-dual gap does not bound this (its dual
        # iterate is feasible only to about 1e-9).
        expr = ebi()
        cb, qmax = classical_bound(expr), tsirelson_bound(expr, level)
        plain = build_moment_structure(3, 4, level)
        unmerged = npa._reduced_sdp(plain, npa._bell_functional(plain, expr))
        for fraction in (0.3, 0.7, 0.95):
            value = cb + fraction * (qmax - cb)
            for pair in ((0, 0), (0, 1)):
                merged = npa._moment_sdp(expr, level, pair)
                assert merged.structure.class_count < plain.class_count
                for a in range(2):
                    for b in range(2):
                        bounds = []
                        for sdp in (merged, unmerged):
                            prob = npa._prob_functional(sdp.structure, expr, *pair, a, b)
                            problem, const = sdp.at(prob, value)
                            bounds.append(const + solve(problem).certificate)
                        assert abs(bounds[0] - bounds[1]) <= 1e-7


class TestOutcomeFlip:
    """The flip P -> 1 - P, Q -> 1 - Q of every projector, as the map W of
    each reduced SDP's word basis."""

    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    @pytest.mark.parametrize("level", npa.LEVELS)
    @pytest.mark.parametrize("name", ["ebi", "chsh", "chained3"])
    def test_flip_map(self, name, level, pinned):
        # The free form's structure is the plain one; the pinned form's is
        # merged for pair (0, 0), where ebi merges and chsh and chained3
        # merge nothing.
        expr = EXPRESSIONS[name]
        sdp = npa._moment_sdp(expr, level, (0, 0) if pinned else None)
        ms, w = sdp.structure, sdp.flip
        assert w.dtype.kind == "i" and np.array_equal(w @ w, np.eye(ms.size))
        first = np.unique(ms.entry_class, return_index=True)[1]
        g, g_const = npa._bell_functional(ms, expr)
        k, l = expr.coeffs.shape
        rng = np.random.default_rng(28)
        for _ in range(3):
            z = rng.normal(size=ms.class_count)
            z[sdp.identity] = 1.0
            image = w @ z[ms.entry_class] @ w.T
            flipped = image.ravel()[first]
            assert np.max(np.abs(image - flipped[ms.entry_class])) <= 1e-12
            assert abs(g @ flipped - g @ z) <= 1e-12
            for x, y, a, b in itertools.product(range(k), range(l), range(2), range(2)):
                h, h_const = npa._prob_functional(ms, expr, x, y, a, b)
                hm, hm_const = npa._prob_functional(ms, expr, x, y, 1 - a, 1 - b)
                assert abs(h @ flipped + h_const - (hm @ z + hm_const)) <= 1e-12

    @pytest.mark.parametrize("level", npa.LEVELS)
    @pytest.mark.parametrize("name", ["ebi", "chsh", "chained3"])
    def test_mirror_maps_iterates_across_outcomes(self, name, level):
        # A dual point S = C - sum_i y_i A_i of outcome (0, 0)'s problem maps
        # to one of (1, 1)'s with the same objective, tr(S X) is kept, and
        # mirroring twice gives the iterate back.
        expr = EXPRESSIONS[name]
        sdp = npa._moment_sdp(expr, level, (0, 0))
        value = classical_bound(expr)
        ms, problem = sdp.structure, sdp.problem
        (own, const), (other, other_const) = (
            sdp.at(npa._prob_functional(ms, expr, 0, 0, a, a), value) for a in (0, 1))
        n, amat = problem.n, problem.a
        rng = np.random.default_rng(29)
        y = rng.normal(size=amat.shape[0])
        root = rng.normal(size=(n, n))
        it = SimpleNamespace(x=root @ root.T, s=own.c - (amat.T @ y).reshape(n, n))
        x, ym, s = sdp.mirror(it)
        assert np.max(np.abs(other.c - s - (amat.T @ ym).reshape(n, n))) <= 1e-12
        assert abs(own.b @ y + const - (other.b @ ym + other_const)) <= 1e-12
        assert abs(np.sum(x * s) - np.sum(it.x * it.s)) <= 1e-12 * np.sum(np.abs(it.x))
        back = sdp.mirror(SimpleNamespace(x=x, s=s))
        assert np.allclose(back[0], it.x, rtol=0, atol=1e-12 * np.max(np.abs(it.x)))
        assert np.allclose(back[1], y, rtol=0, atol=1e-12)


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
        assert value >= qmax

    def test_returns_a_python_float(self):
        for expr in (ebi(), chsh()):
            assert type(tsirelson_bound(expr, 1)) is float
            assert type(max_guessing_probability(expr, classical_bound(expr), (0, 0), 1)) is float

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
        assert g >= (1 + 1 / ROOT2) / 4
        assert abs(-math.log2(g) - 1.2284) <= 5e-3

    def test_ebi_maximum(self):
        g = max_guessing_probability(ebi(), 4 * ROOT3, (0, 0), 2)
        assert abs(g - (1 + 1 / ROOT3) / 4) <= 1e-4
        assert g >= (1 + 1 / ROOT3) / 4
        assert abs(-math.log2(g) - 1.3425) <= 5e-3

    def test_chained_maximum(self):
        g = max_guessing_probability(chained(3), 3 * ROOT3, (0, 0), 2)
        assert abs(g - (1 + ROOT3 / 2) / 4) <= 1e-4
        assert g >= (1 + ROOT3 / 2) / 4
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

    @pytest.mark.slow
    def test_monotone_in_bell_value_ebi(self):
        grid = np.linspace(6.0, 4 * ROOT3, 11)
        values = [max_guessing_probability(ebi(), float(i), (0, 0), 2) for i in grid]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-5

    @pytest.mark.parametrize("expr,level", [(chsh(), "2"), (ebi(), "1+AB")],
                             ids=["chsh-2", "ebi-1+AB"])
    def test_concave_in_bell_value(self, expr, level):
        # The max over outcomes of per-outcome bounds bounds the min-entropy
        # only where it is concave in the Bell value.
        cb, qmax = classical_bound(expr), tsirelson_bound(expr, level)
        grid = np.linspace(cb, qmax - 1e-5, 25)
        values = np.array(
            [max_guessing_probability(expr, float(i), (0, 0), level) for i in grid]
        )
        assert np.max(np.diff(values, 2)) <= 0.0

    def test_infeasible_value(self):
        with pytest.raises(InfeasibleValue):
            max_guessing_probability(chsh(), 3.5, (0, 0), 2)

    def test_input_pair_validation(self):
        with pytest.raises(OutOfRange):
            max_guessing_probability(chsh(), 2.2, (0, 5), 2)
        with pytest.raises(OutOfRange):
            max_guessing_probability(chsh(), 2.2, (-1, 0), 2)

    def test_bounded_stops_leave_every_value_unchanged(self, monkeypatch):
        # Each solve after the first outcome's may stop once it certifies
        # less than the running maximum; the maximum is that of one full
        # solve per outcome, bit for bit, mid-curve and at q_max alike.
        cases = []
        for expr, other in ((chsh(), (1, 0)), (ebi(), (1, 2)), (chained(3), (2, 1))):
            for level in ("1", "1+AB"):
                cb, qmax = classical_bound(expr), tsirelson_bound(expr, level)
                for value in (0.5 * (cb + qmax), qmax):
                    cases += [(expr, value, pair, level) for pair in ((0, 0), other)]
        reasons = []

        def logged(problem, **kwargs):
            sol = solve(problem, **kwargs)
            reasons.append(sol.reason)
            return sol

        monkeypatch.setattr(npa, "solve", logged)
        values = [max_guessing_probability(*case) for case in cases]
        assert reasons.count("bounded") >= len(cases)
        # Only the threshold is dropped: the mirrored starts stay.
        monkeypatch.setattr(npa, "solve",
                            lambda problem, stop_below, **kwargs: solve(problem, **kwargs))
        assert values == [max_guessing_probability(*case) for case in cases]

    @pytest.mark.parametrize("p,mirrored", [(0.95, [1, 3]), (0.98, [3])])
    def test_mirror_solves_start_from_their_partners(self, monkeypatch, p, mirrored):
        # The outcomes run (0, 0), (1, 1), (0, 1), (1, 0), and the second and
        # fourth start from the image of the one before.  At p = 0.98 the
        # image of (0, 0)'s iterate keeps its gap but misses (1, 1)'s
        # relative-gap tolerance (1.03e-8), since that problem's objective,
        # p - 1, is smaller in magnitude; that solve runs from the default.
        expr = ebi()
        value = max_violation(family_state("werner-p", p), expr)
        tsirelson_bound(expr, "2")
        solves = []

        def logged(problem, **kwargs):
            sol = solve(problem, **kwargs)
            solves.append((kwargs["start"] is not None, sol.iterations))
            return sol

        monkeypatch.setattr(npa, "solve", logged)
        max_guessing_probability(expr, value, (0, 0), "2")
        assert [started for started, _ in solves] == [False, True, False, True]
        assert all(solves[k][1] == 0 for k in mirrored)

    def test_endpoint_reads_the_smallest_certificate(self):
        # At chained3's level-1 endpoint the optimal Lagrangian solves
        # certify less on an earlier iterate than on their last: read from
        # the last iterates the guess would be 0.9495406, from the smallest
        # certificates it is 0.9495001.
        qmax = tsirelson_bound(chained(3), "1")
        assert max_guessing_probability(chained(3), qmax, (0, 0), "1") <= 0.94951

    def test_non_finite_certificate_raises(self, monkeypatch):
        # The error names the status, the reason and the iteration count.
        stalled = SimpleNamespace(certificate=math.inf, status="max_iterations",
                                  reason="stalled", iterations=91)
        monkeypatch.setattr(npa, "solve", lambda problem, **kwargs: stalled)
        with pytest.raises(SolverError, match=r"max_iterations \(stalled\) after 91 iter"):
            npa._certified_value(gram_problem(), 0.0)

    def test_all_input_pairs_agree_at_maximum(self):
        # The maximal-violation behavior is setting-symmetric.
        values = [
            max_guessing_probability(chsh(), 2 * ROOT2, (x, y), 2)
            for x in range(2)
            for y in range(2)
        ]
        assert max(values) - min(values) <= 1e-4


@pytest.mark.slow
class TestGuessProblemReuse:
    @pytest.mark.parametrize("level", ["1+AB", "2"])
    @pytest.mark.parametrize("expr", [ebi(), chsh()], ids=["ebi", "chsh"])
    def test_reused_problem_matches_fresh_build(self, expr, level, monkeypatch):
        # The fresh problem is built on the merged structure that
        # max_guessing_probability solves over.
        ms = npa._merged_structure(expr, level, (0, 0))
        bell = npa._bell_functional(ms, expr)
        cb, qmax = classical_bound(expr), tsirelson_bound(expr, level)
        values = [cb + f * (qmax - cb) for f in (0.3, 0.6, 0.9)]
        reused = npa._moment_sdp(expr, level, (0, 0))
        assert reused.structure is ms
        for value in values + values[-2::-1]:  # up, then back down
            for a in range(2):
                for b in range(2):
                    prob = npa._prob_functional(ms, expr, 0, 0, a, b)
                    problem, const = reused.at(prob, value)
                    fresh, fresh_const = npa._reduced_sdp(ms, bell).at(prob, value)
                    assert problem.a is reused.problem.a
                    assert np.array_equal(problem.c, fresh.c)
                    assert np.array_equal(problem.b, fresh.b)
                    assert const == fresh_const
            reused_value = max_guessing_probability(expr, value, (0, 0), level)
            with monkeypatch.context() as patch:
                patch.setattr(npa, "_sdp_cache", {})
                fresh_value = max_guessing_probability(expr, value, (0, 0), level)
                assert npa._moment_sdp(expr, level, (0, 0)) is not reused
            assert reused_value == fresh_value

    def test_one_operator_per_form(self, monkeypatch):
        # Input pairs, outcomes, Bell values and multipliers set only b, F0
        # and the constant: the equality-form solves share one operator, the
        # Tsirelson and Lagrangian solves the other.
        expr, level = chsh(), "1+AB"
        operators = []

        def recording(problem, **kwargs):
            operators.append(problem.a)
            return solve(problem, **kwargs)

        monkeypatch.setattr(npa, "_tsirelson_cache", {})
        monkeypatch.setattr(npa, "solve", recording)
        qmax = tsirelson_bound(expr, level)
        for pair in ((0, 0), (1, 1)):
            max_guessing_probability(expr, 0.5 * (classical_bound(expr) + qmax), pair, level)
        max_guessing_probability(expr, qmax, (0, 0), level)
        tsirelson, equality, lagrangian = operators[0], operators[1:9], operators[9:]
        assert len(operators) == 17
        assert all(op is equality[0] for op in equality)
        assert all(op is tsirelson for op in lagrangian)
        assert equality[0] is not tsirelson

    def test_pairs_with_one_stabilizer_share_an_operator(self, monkeypatch):
        # ebi's pairs (0, 0) and (0, 1) merge their classes alike, so their
        # equality-form solves share one operator; pair (0, 2) merges
        # nothing and has its own, as does the Bell-free form.
        expr, level = ebi(), "1"
        operators = []

        def recording(problem, **kwargs):
            operators.append(problem.a)
            return solve(problem, **kwargs)

        monkeypatch.setattr(npa, "_tsirelson_cache", {})
        monkeypatch.setattr(npa, "solve", recording)
        value = 0.5 * (classical_bound(expr) + tsirelson_bound(expr, level))
        for pair in ((0, 0), (0, 1), (0, 2)):
            max_guessing_probability(expr, value, pair, level)
        tsirelson, shared, plain = operators[0], operators[1:9], operators[9:]
        assert len(operators) == 13
        assert all(op is shared[0] for op in shared)
        assert all(op is plain[0] for op in plain)
        assert shared[0].shape[0] == 19 - 2 and plain[0].shape[0] == 29 - 2
        assert len({id(op) for op in (tsirelson, shared[0], plain[0])}) == 3


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

    def test_seesaw_seed_default_is_shared(self):
        # See-saw seeds 0 and 7 give Bell values 6.2e-15 apart at this state.
        state = family_state("pure-theta", 0.7)
        pt = min_entropy_curve("pure-theta", [0.7], chained(3), "1")[0]
        assert pt.bell_value == max_violation(state, chained(3))

    def test_csv_format(self):
        # Werner p = 0.5 does not violate CHSH, so its row has p = 1.
        params = [0.5, 0.9, 1.0]
        points = min_entropy_curve("werner-p", params, chsh(), 2)
        text = curve_csv(params, points)
        lines = text.strip().split("\n")
        assert lines[0] == "param,bell_value,guessing_probability,min_entropy_bits"
        assert len(lines) == 4
        fields = lines[3].split(",")
        assert abs(float(fields[1]) - 2 * ROOT2) < 1e-9
        assert lines[1].split(",")[2:] == ["1", "0"]
        for row in lines[1:]:
            _, _, prob, bits = row.split(",")
            # The entropy of the printed p rounded down, with no "-0".
            assert_rounded_down(bits, -math.log2(float(prob)))
            assert not bits.startswith("-")


def assert_rounded_down(text: str, value: float):
    """``text`` reads back at or below ``value``, within one unit of the
    12th significant digit."""
    assert float(text) <= value
    assert Decimal(value) - Decimal(text) < Decimal(1).scaleb(Decimal(value).adjusted() - 11)


class TestRoundToward:
    @staticmethod
    def values():
        rng = np.random.default_rng(27)
        values = [float(v) for v in rng.uniform(0.0, 8.0, size=2000)]
        values += [float(v) for v in 10.0 ** rng.uniform(-6.0, 1.0, size=500)]
        # Printed digits on both sides of each value, and decade edges.
        for edge in (0.25, 0.5, 1.0, 0.999999999999, 9.99999999999, 1.234567,
                     4 * ROOT3, 2 * ROOT2, 3 * ROOT3):
            values += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, 10.0)]
        return values

    @pytest.mark.parametrize("places", [None, 6], ids=["12g", "6f"])
    def test_text_is_on_the_safe_side_and_no_closer_text_is(self, places):
        # One unit of the last printed digit toward the value crosses it.
        context = Context(prec=12)
        for value in self.values():
            for up in (True, False):
                text = npa.round_toward(value, up, places)
                printed = Decimal(text)
                if places is None:
                    assert len(printed.normalize().as_tuple().digits) <= 12
                    closer = (printed.next_minus(context) if up
                              else printed.next_plus(context))
                else:
                    assert text == f"{float(text):.{places}f}"
                    closer = printed - Decimal(1).scaleb(-places) * (1 if up else -1)
                if up:
                    assert float(text) >= value and float(closer) < value
                else:
                    assert float(text) <= value and float(closer) > value


class TestCurveCsv:
    def test_probability_rounds_up_at_12_digits(self):
        rng = np.random.default_rng(20)
        probabilities = [float(p) for p in rng.uniform(0.25, 1.0, size=200)]
        # The edges, p one ulp above a 12-digit boundary, and p whose
        # entropy rounds up to nearest (1.7369655941662 -> 1.73696559417).
        probabilities += [1.0, 0.25, math.nextafter(0.5, 1.0),
                          math.nextafter(0.853553390593, 1.0), 0.3, 0.4, 0.7]
        points = [RandomnessPoint(2.5, p) for p in probabilities]
        rows = curve_csv(range(len(points)), points).strip().split("\n")[1:]
        for p, row in zip(probabilities, rows):
            _, _, prob, bits = row.split(",")
            exact = Decimal(prob)
            assert float(prob) >= p
            assert len(exact.normalize().as_tuple().digits) <= 12
            # Within one unit of the 12th significant digit of p.
            assert exact - Decimal(p) < Decimal(1).scaleb(Decimal(p).adjusted() - 11)
            assert_rounded_down(bits, -math.log2(float(prob)))


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
