import collections

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from bellbound import (
    SdpProblem,
    SdpSolution,
    bell,
    dual_certificate_check,
    gram_problem,
    npa,
    sdp,
    solve,
)
from bellbound.errors import SolverError
from bellbound.sdp import (
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    OPTIMAL,
    _max_step,
    _schur_complement,
    certified_upper_bound,
)


def engineered_problem(rng: np.random.Generator):
    """Random SDP with a known optimum, built from a strictly complementary
    primal-dual pair (X*, y*, S*) with X* S* = 0.  A trace constraint keeps
    the feasible set compact so the optimal face is bounded."""
    n = int(rng.integers(2, 9))
    m = int(rng.integers(2, max(3, n)))
    rank = int(rng.integers(1, n))
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    x_eigs = np.concatenate([rng.uniform(0.5, 2.0, rank), np.zeros(n - rank)])
    s_eigs = np.concatenate([np.zeros(rank), rng.uniform(0.5, 2.0, n - rank)])
    x_star = basis @ np.diag(x_eigs) @ basis.T
    s_star = basis @ np.diag(s_eigs) @ basis.T
    y_star = rng.normal(size=m + 1)
    mats = [np.eye(n)]
    for _ in range(m):
        a = rng.normal(size=(n, n))
        mats.append((a + a.T) / 2)
    c = sum(y * a for y, a in zip(y_star, mats)) + s_star
    b = [float(np.sum(a * x_star)) for a in mats]
    problem = SdpProblem(n=n, c=c, constraints=mats, b=b)
    return problem, float(np.sum(c * x_star))


class TestValidation:
    def test_rejects_asymmetric_objective(self):
        c = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            SdpProblem(n=2, c=c, constraints=[np.eye(2)], b=[1.0])

    def test_rejects_asymmetric_constraint(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            SdpProblem(n=2, c=np.eye(2), constraints=[a], b=[1.0])

    def test_rejects_too_many_constraints(self):
        with pytest.raises(ValueError):
            SdpProblem(n=2, c=np.eye(2), constraints=[np.eye(2)] * 4, b=np.ones(4))

    def test_rejects_non_finite_objective(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                SdpProblem(n=1, c=np.array([[bad]]), constraints=[np.eye(1)], b=[1.0])

    def test_rejects_non_finite_constraint(self):
        # NaN entries would pass the symmetry test: every comparison with
        # NaN is false.
        for bad in (np.nan, np.inf):
            dense = np.full((2, 2), bad)
            for a in (dense, sp.csr_matrix(dense)):
                with pytest.raises(ValueError, match="finite"):
                    SdpProblem(n=2, c=np.eye(2), constraints=[a], b=[1.0])

    def test_rejects_bad_targets(self):
        for bad in ([1.0, 2.0], [np.nan], [[1.0]]):
            with pytest.raises(ValueError, match="finite constraint targets"):
                SdpProblem(n=2, c=np.eye(2), constraints=[np.eye(2)], b=bad)

    def test_with_objective_shares_constraints(self):
        problem = gram_problem()
        other = problem.with_objective(np.eye(4), problem.b)
        assert other._amat is problem._amat and other._groups is problem._groups
        assert other.constraints is problem.constraints
        assert np.array_equal(other.c, np.eye(4))
        assert abs(solve(other).primal_obj - 4.0) < 1e-7
        with pytest.raises(ValueError):
            problem.with_objective(np.triu(np.ones((4, 4))), problem.b)
        # Diagonal 2 scales the optimal Gram matrix by 2: optimum -4.
        doubled = problem.with_objective(problem.c, np.full(4, 2.0))
        assert np.array_equal(doubled.b, np.full(4, 2.0))
        assert np.array_equal(problem.b, np.ones(4))
        assert abs(solve(doubled).primal_obj + 4.0) < 1e-7
        for bad in (np.full(3, 2.0), [1.0, 1.0, np.nan, 1.0]):
            with pytest.raises(ValueError):
                problem.with_objective(problem.c, bad)


class TestBasicSolves:
    def test_scalar_equality(self):
        prob = SdpProblem(n=1, c=np.array([[1.0]]), constraints=[np.array([[1.0]])], b=[3.0])
        sol = solve(prob)
        assert sol.status == OPTIMAL
        assert abs(sol.primal_obj - 3.0) < 1e-7

    def test_engineered_optima(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            problem, optimum = engineered_problem(rng)
            sol = solve(problem)
            assert sol.status == OPTIMAL
            assert abs(sol.gap) <= 1e-7 * (1 + abs(sol.primal_obj))
            assert abs(sol.primal_obj - optimum) <= 1e-6


class TestGramProblem:
    def test_primal_and_dual_value(self):
        sol = solve(gram_problem())
        assert sol.status == sol.reason == OPTIMAL
        assert abs(sol.primal_obj + 2.0) <= 1e-6
        assert abs(sol.dual_obj + 2.0) <= 1e-6

    def test_dual_vector(self):
        sol = solve(gram_problem())
        assert np.max(np.abs(sol.y + 0.5)) <= 1e-6

    def test_primal_matrix_shape(self):
        sol = solve(gram_problem())
        diag = np.diag(sol.x)
        assert np.max(np.abs(diag - 1.0)) <= 1e-7
        off_row_sums = sol.x.sum(axis=1) - diag
        assert np.max(np.abs(off_row_sums + 1.0)) <= 1e-5

    def test_certificate(self):
        sol = solve(gram_problem())
        min_eig, feasible = dual_certificate_check(sol.y)
        assert feasible and min_eig >= -1e-9

    def test_certificate_examples(self):
        min_eig, feasible = dual_certificate_check(-0.5 * np.ones(4))
        assert feasible and abs(min_eig) < 1e-12
        min_eig, feasible = dual_certificate_check(np.zeros(4))
        assert not feasible and abs(min_eig + 0.5) < 1e-12
        min_eig, feasible = dual_certificate_check(-np.ones(4))
        assert feasible and abs(min_eig - 0.5) < 1e-12


class TestCertifiedUpperBound:
    """The Gram problem's optimum -2 is attained at y = -1/2, inside the
    box |y_i| <= 1, so every certificate must stay at or above -2."""

    @staticmethod
    def handed(x, y):
        """A solution record holding x and y, with the objectives they give."""
        problem = gram_problem()
        return SdpSolution(
            x=x, y=y, s=np.zeros((4, 4)), primal_obj=float(np.sum(problem.c * x)),
            dual_obj=float(problem.b @ y), gap=0.0, status=MAX_ITERATIONS,
            iterations=0, primal_residual=0.0, dual_residual=0.0,
        )

    def test_bound_at_the_solution(self):
        problem = gram_problem()
        bound = certified_upper_bound(problem, solve(problem))
        assert -2.0 <= bound <= -2.0 + 1e-7

    def test_perturbed_iterates_stay_above_the_optimum(self):
        problem = gram_problem()
        x_opt = solve(problem).x
        rng = np.random.default_rng(17)
        below = outside = 0
        for scale in (1e-6, 1e-3, 0.1, 1.0):
            for _ in range(25):
                noise = rng.normal(size=(4, 4)) * scale
                # Lowering the off-diagonal pushes tr(C X) below -2 and
                # takes X out of the cone; the noise breaks the constraints.
                shift = rng.uniform(0.0, scale)
                x = x_opt - shift * (np.ones((4, 4)) - np.eye(4)) + (noise + noise.T) / 2
                y = -0.5 - rng.uniform(0.0, scale, size=4)
                sol = self.handed(x, y)
                assert certified_upper_bound(problem, sol) >= -2.0
                below += sol.primal_obj < -2.0 and sol.dual_obj < -2.0
                outside += np.linalg.eigvalsh(x)[0] < 0.0
        # Either objective read as the value would have failed above.
        assert below >= 50 and outside >= 50

    def test_non_finite_iterate_raises(self):
        x = np.full((4, 4), np.nan)
        with pytest.raises(SolverError, match="max_iterations"):
            certified_upper_bound(gram_problem(), self.handed(x, np.zeros(4)))


class TestSolverInvariants:
    def test_weak_duality_on_feasible_iterates(self):
        # Weak duality is a statement about feasible pairs; with an
        # infeasible start it is asserted once both residuals are small.
        rng = np.random.default_rng(55)
        problems = [gram_problem()] + [engineered_problem(rng)[0] for _ in range(20)]
        checked = 0
        for problem in problems:
            sol = solve(problem)
            for entry in sol.history:
                if max(entry["primal_residual"], entry["dual_residual"]) <= 1e-8:
                    assert entry["dual_obj"] <= entry["primal_obj"] + 1e-9 * (
                        1 + abs(entry["primal_obj"])
                    )
                    checked += 1
        assert checked > 0

    def test_mu_decreases_overall(self):
        sol = solve(gram_problem())
        mus = [entry["mu"] for entry in sol.history]
        assert mus[-1] < 1e-7 * mus[0]

    def test_optimal_status_invariants(self):
        rng = np.random.default_rng(66)
        for _ in range(10):
            problem, _ = engineered_problem(rng)
            sol = solve(problem)
            assert sol.status == OPTIMAL
            assert np.linalg.eigvalsh(sol.x)[0] >= -1e-8
            assert np.linalg.eigvalsh(sol.s)[0] >= -1e-8
            assert abs(sol.gap) <= 1e-7 * (1 + abs(sol.primal_obj))
            assert sol.primal_residual <= 1e-8
            assert sol.dual_residual <= 1e-8

    def test_statuses_are_reported(self):
        sol = solve(gram_problem())
        assert sol.status in (OPTIMAL, MAX_ITERATIONS)
        assert sol.iterations < 200


def failing_problems() -> dict:
    """Problems without an optimum."""
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    return {
        "infeasible_trace": SdpProblem(n=2, c=np.eye(2), constraints=[np.eye(2)], b=[-1.0]),
        "unbounded": SdpProblem(n=2, c=-np.eye(2), constraints=[np.diag([1.0, 0.0])], b=[1.0]),
        # Infeasible: 2 X12 <= tr X = 1 for PSD X.
        "off_diagonal": SdpProblem(n=2, c=np.eye(2), constraints=[np.eye(2), off],
                                   b=[1.0, 5.0]),
        # Infeasible: x11 = 1 and 2 x11 = 3.
        "mu_floor": SdpProblem(n=2, c=np.eye(2), b=[1.0, 3.0],
                               constraints=[np.diag([1.0, 0.0]), np.diag([2.0, 0.0])]),
    }


def worst_measure(record: dict) -> float:
    """max(rel_gap, pres, dres) of one history record, as the solver ranks
    its iterates."""
    pobj, dobj = record["primal_obj"], record["dual_obj"]
    rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return max(rel_gap, record["primal_residual"], record["dual_residual"])


class TestFailurePaths:
    """Problems without an optimum, and a solve cut short by the iteration
    cap.  Every stop but ``optimal`` returns the most balanced iterate
    seen, recording it once more after the record of the stop."""

    @staticmethod
    def check_fallback(sol, iterations):
        assert sol.status == NUMERICAL_FAILURE and sol.reason == "diverged"
        assert sol.iterations == iterations
        assert np.all(np.isfinite(sol.x))
        assert len(sol.history) == sol.iterations + 2

    def test_infeasible_trace(self):
        with pytest.warns(RuntimeWarning):
            sol = solve(failing_problems()["infeasible_trace"])
        self.check_fallback(sol, 17)

    def test_unbounded_objective(self):
        with pytest.warns(RuntimeWarning):
            sol = solve(failing_problems()["unbounded"])
        self.check_fallback(sol, 16)

    def test_off_diagonal_beyond_trace(self):
        # This one breaks down on mu < 0, with no overflow along the way.
        sol = solve(failing_problems()["off_diagonal"])
        self.check_fallback(sol, 11)
        assert sol.history[-2]["mu"] < 0

    def test_mu_floor_is_named(self):
        # It stops on mu < 1e-14 with a tiny dual residual, under the same
        # status as the cap, and returns an early, more balanced iterate.
        sol = solve(failing_problems()["mu_floor"])
        assert sol.status == MAX_ITERATIONS and sol.reason == "mu_floor"
        assert sol.iterations == 10 and sol.history[-2]["mu"] < 1e-14
        assert len(sol.history) == sol.iterations + 2
        assert sol.history[-1]["mu"] > 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", [*failing_problems(), "iteration_cap"])
    def test_one_exit_returns_the_most_balanced_iterate(self, monkeypatch, name):
        if name == "iteration_cap":
            # At this seed the worst measure rises at iterate 4 (9.4e-2 to
            # 9.5e-2), so a cap of 4 stops on an iterate worse than the one
            # before it.
            problem, _ = engineered_problem(np.random.default_rng(182))
            monkeypatch.setattr(sdp, "_MAX_ITER", 4)
        else:
            problem = failing_problems()[name]
        sol = solve(problem)
        if name == "iteration_cap":
            assert sol.reason == name and sol.iterations == 4
        *earlier, final = sol.history
        assert len(earlier) == sol.iterations + 1
        # The solver ranks only iterates inside the cone.
        ranked = [r for r in earlier if r["mu"] >= 0 and np.isfinite(worst_measure(r))]
        assert final == min(ranked, key=worst_measure)
        c_sym = 0.5 * (problem.c + problem.c.T)
        assert float(np.sum(c_sym * sol.x)) == final["primal_obj"] == sol.primal_obj
        assert float(problem.b @ sol.y) == final["dual_obj"] == sol.dual_obj
        assert sol.status in (MAX_ITERATIONS, NUMERICAL_FAILURE) and sol.reason != "stall"


class TestFactorizations:
    @pytest.mark.parametrize("name", ["gram", "eq"])
    def test_no_matrix_factored_twice(self, monkeypatch, name):
        if name == "gram":
            problem = gram_problem()
        else:
            problem = ebi_guess_problem(0.9 * npa.tsirelson_bound(bell.ebi(), "2"))
        seen = collections.Counter()
        cholesky = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            seen[np.ascontiguousarray(a).tobytes()] += 1
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        sol = solve(problem)
        assert sol.status == OPTIMAL
        assert seen and max(seen.values()) == 1


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n))
    return g @ g.T + n * np.eye(n)


def loop_schur(problem: SdpProblem, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
    """Reference: the per-constraint loop the batched assembly replaced."""
    n = problem.n
    kmat = np.empty((len(problem.constraints), n * n))
    for j, a in enumerate(problem.constraints):
        if sp.issparse(a):
            coo = a.tocoo()
            rr, cc, vv = coo.row, coo.col, coo.data
        else:
            rr, cc = np.nonzero(a)
            vv = a[rr, cc]
        kmat[j] = ((x[:, rr] * vv) @ s_inv[cc, :]).ravel()
    schur = problem._amat @ kmat.T
    return 0.5 * (schur + schur.T)


def operator_arrays(problem: SdpProblem) -> list:
    """Every array of the flattened constraint operator, groups included."""
    amat = problem._amat
    groups = [arr for group in problem._groups for arr in group]
    return [amat.indptr, amat.indices, amat.data, problem.b, *groups]


def ebi_guess_problem(bell_value: float) -> SdpProblem:
    """The equality-form guessing SDP of p(00|00) for ebi at level 2."""
    expr = bell.ebi()
    ms = npa._structure_cached(expr.alice_settings, expr.bob_settings, "2")
    prob = npa._prob_functional(ms, expr, 0, 0, 0, 0)
    return npa._moment_sdp(expr, "2", pinned=True).at(prob, bell_value)[0]


def ebi_problems() -> dict:
    expr = bell.ebi()
    ms = npa._structure_cached(expr.alice_settings, expr.bob_settings, "2")
    tsirelson = npa._moment_sdp(expr, "2", pinned=False)
    return {
        "tsirelson": tsirelson.at(npa._bell_functional(ms, expr))[0],
        "eq": ebi_guess_problem(0.9 * npa.tsirelson_bound(expr, "2")),
    }


def corner_problem() -> SdpProblem:
    """max p(00|00) over the CHSH level-1 moments with CHSH >= 2.7 held by
    a 1x1 slack block: block-diagonal, with constraints that reach outside
    the moment block into the corner and constraints that do not."""
    expr = bell.chsh()
    ms = npa._structure_cached(expr.alice_settings, expr.bob_settings, "1")
    g, g_const = npa._bell_functional(ms, expr)
    h, _ = npa._prob_functional(ms, expr, 0, 0, 0, 0)
    n = ms.size + 1
    c = np.zeros((n, n))
    c[0, 0] = 1.0  # the identity class
    c[-1, -1] = g_const + g[0] - 2.7
    constraints = []
    for cid in range(1, ms.class_count):
        a = np.zeros((n, n))
        a[:-1, :-1] = np.where(ms.entry_class == cid, -1.0, 0.0)
        a[-1, -1] = -g[cid]
        constraints.append(sp.csr_matrix(a))
    return SdpProblem(n=n, c=c, constraints=constraints, b=h[1:])


class TestSchurAssembly:
    @pytest.fixture(scope="class")
    def problems(self):
        rng = np.random.default_rng(8)
        return {"gram": gram_problem(), "engineered": engineered_problem(rng)[0],
                "corner": corner_problem(), **ebi_problems()}

    @pytest.mark.parametrize("name", ["gram", "engineered", "corner", "tsirelson", "eq"])
    def test_matches_dense_trace_oracle(self, problems, name):
        problem = problems[name]
        n, m = problem.n, len(problem.constraints)
        rng = np.random.default_rng(21)
        x, s = random_spd(rng, n), random_spd(rng, n)
        s_inv = np.linalg.inv(s)
        s_inv = 0.5 * (s_inv + s_inv.T)
        dense = [a.toarray() if sp.issparse(a) else np.asarray(a) for a in problem.constraints]
        # B_ij = tr(A_i X A_j S^-1) = sum(A_i * (X A_j S^-1)^T)
        prods = np.array([(x @ a @ s_inv).T.ravel() for a in dense])
        oracle = np.array([a.ravel() for a in dense]) @ prods.T
        schur = _schur_complement(problem, x, s_inv)
        assert schur.shape == (m, m)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(schur - oracle)) <= 1e-13 * scale
        assert np.array_equal(schur, loop_schur(problem, x, s_inv))

        # Dense and sparse constraints are read alike, down to the iterates.
        forms = [
            SdpProblem(n=n, c=problem.c, constraints=mats, b=problem.b)
            for mats in (dense, [sp.csr_matrix(a) for a in dense])
        ]
        expected = operator_arrays(problem)
        for form in forms:
            arrays = operator_arrays(form)
            assert len(arrays) == len(expected)
            for ours, theirs in zip(arrays, expected):
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
        sols = [solve(form) for form in forms]
        assert sols[0].status == sols[1].status
        assert sols[0].history == sols[1].history

    def test_groups_partition_the_constraints(self, problems):
        for problem in problems.values():
            js = np.concatenate([group[0] for group in problem._groups])
            assert np.array_equal(np.sort(js), np.arange(len(problem.constraints)))
            for _, rr, cc, vv in problem._groups:
                assert rr.shape == cc.shape == vv.shape
        sizes = [group[1].shape[1] for group in problems["eq"]._groups]
        assert sizes == [2, 3, 4, 6, 10, 12, 14]
        assert [group[1].shape[1] for group in problems["gram"]._groups] == [1]


class TestMaxStep:
    def test_matches_generalized_eigenvalues(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 5, 38):
            m = random_spd(rng, n)
            dm = rng.normal(size=(n, n))
            dm = dm + dm.T - 2 * n * np.eye(n)  # some direction leaves the cone
            lam_min = scipy.linalg.eigh(dm, m, eigvals_only=True)[0]
            assert lam_min < 0
            step = _max_step(np.linalg.cholesky(m), dm)
            assert abs(step - (-1.0 / lam_min)) <= 1e-10 * step

    def test_psd_direction_has_no_limit(self):
        rng = np.random.default_rng(10)
        for n in (1, 3, 38):
            m = random_spd(rng, n)
            assert _max_step(np.linalg.cholesky(m), random_spd(rng, n)) == np.inf
            assert _max_step(np.linalg.cholesky(m), np.zeros((n, n))) == np.inf
