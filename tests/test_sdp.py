import collections

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from bellbound import SdpProblem, bell, dual_certificate_check, gram_problem, npa, solve
from bellbound.sdp import (
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    OPTIMAL,
    _max_step,
    _schur_complement,
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
    constraints = [(a, float(np.sum(a * x_star))) for a in mats]
    problem = SdpProblem(n=n, c=c, constraints=constraints)
    return problem, float(np.sum(c * x_star))


class TestValidation:
    def test_rejects_asymmetric_objective(self):
        c = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            SdpProblem(n=2, c=c, constraints=[(np.eye(2), 1.0)])

    def test_rejects_asymmetric_constraint(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            SdpProblem(n=2, c=np.eye(2), constraints=[(a, 1.0)])

    def test_rejects_too_many_constraints(self):
        cons = [(np.eye(2), 1.0)] * 4
        with pytest.raises(ValueError):
            SdpProblem(n=2, c=np.eye(2), constraints=cons)

    def test_rejects_non_finite_objective(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                SdpProblem(n=1, c=np.array([[bad]]), constraints=[(np.eye(1), 1.0)])

    def test_rejects_non_finite_constraint(self):
        # NaN entries would pass the symmetry test: every comparison with
        # NaN is false.
        for bad in (np.nan, np.inf):
            dense = np.full((2, 2), bad)
            for a in (dense, sp.csr_matrix(dense)):
                with pytest.raises(ValueError, match="finite"):
                    SdpProblem(n=2, c=np.eye(2), constraints=[(a, 1.0)])

    def test_with_objective_shares_constraints(self):
        problem = gram_problem()
        other = problem.with_objective(np.eye(4))
        assert other._amat is problem._amat and other.constraints is problem.constraints
        assert np.array_equal(other.c, np.eye(4))
        assert abs(solve(other).primal_obj - 4.0) < 1e-7
        with pytest.raises(ValueError):
            problem.with_objective(np.triu(np.ones((4, 4))))


class TestBasicSolves:
    def test_scalar_equality(self):
        prob = SdpProblem(
            n=1, c=np.array([[1.0]]), constraints=[(np.array([[1.0]]), 3.0)]
        )
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
        assert sol.status == OPTIMAL
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


class TestFailurePaths:
    """Problems without an optimum: the iterate diverges or leaves the cone,
    and the solver falls back to the most balanced iterate seen, recording
    it once more."""

    @staticmethod
    def check_fallback(sol, iterations):
        assert sol.status == NUMERICAL_FAILURE
        assert sol.iterations == iterations
        assert np.all(np.isfinite(sol.x))
        assert len(sol.history) == sol.iterations + 2

    def test_infeasible_trace(self):
        problem = SdpProblem(n=2, c=np.eye(2), constraints=[(np.eye(2), -1.0)])
        with pytest.warns(RuntimeWarning):
            sol = solve(problem)
        self.check_fallback(sol, 17)

    def test_unbounded_objective(self):
        problem = SdpProblem(
            n=2, c=-np.eye(2), constraints=[(np.diag([1.0, 0.0]), 1.0)]
        )
        with pytest.warns(RuntimeWarning):
            sol = solve(problem)
        self.check_fallback(sol, 16)

    def test_off_diagonal_beyond_trace(self):
        # Infeasible: 2 X12 <= tr X = 1 for PSD X.  This one breaks down on
        # mu < 0, with no overflow along the way.
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        problem = SdpProblem(
            n=2, c=np.eye(2), constraints=[(np.eye(2), 1.0), (off, 5.0)]
        )
        sol = solve(problem)
        self.check_fallback(sol, 11)
        assert sol.history[-2]["mu"] < 0


class TestFactorizations:
    @pytest.mark.parametrize("name", ["gram", "eq"])
    def test_no_matrix_factored_twice(self, monkeypatch, name):
        if name == "gram":
            problem = gram_problem()
        else:
            expr = bell.ebi()
            guess = npa._cached_guess_problem(expr, "2", 0, 0, 0, 0, "eq")
            problem, _ = guess.at(0.9 * npa.tsirelson_bound(expr, "2"))
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
    for j, (a, _) in enumerate(problem.constraints):
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
    return [amat.indptr, amat.indices, amat.data, problem._b, *groups]


def ebi_problems() -> dict:
    expr = bell.ebi()
    ms = npa._structure_cached(expr.alice_settings, expr.bob_settings, "2")
    problems = {"tsirelson": npa._reduced_sdp(ms, npa._bell_functional(ms, expr)).problem}
    for mode in ("eq", "ge"):
        problems[mode] = npa._cached_guess_problem(expr, "2", 0, 0, 0, 0, mode).problem
    return problems


class TestSchurAssembly:
    @pytest.fixture(scope="class")
    def problems(self):
        rng = np.random.default_rng(8)
        return {"gram": gram_problem(), "engineered": engineered_problem(rng)[0],
                **ebi_problems()}

    @pytest.mark.parametrize("name", ["gram", "engineered", "tsirelson", "eq", "ge"])
    def test_matches_dense_trace_oracle(self, problems, name):
        problem = problems[name]
        n, m = problem.n, len(problem.constraints)
        rng = np.random.default_rng(21)
        x, s = random_spd(rng, n), random_spd(rng, n)
        s_inv = np.linalg.inv(s)
        s_inv = 0.5 * (s_inv + s_inv.T)
        dense = [a.toarray() if sp.issparse(a) else np.asarray(a) for a, _ in problem.constraints]
        # B_ij = tr(A_i X A_j S^-1) = sum(A_i * (X A_j S^-1)^T)
        prods = np.array([(x @ a @ s_inv).T.ravel() for a in dense])
        oracle = np.array([a.ravel() for a in dense]) @ prods.T
        schur = _schur_complement(problem, x, s_inv)
        assert schur.shape == (m, m)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(schur - oracle)) <= 1e-13 * scale
        assert np.array_equal(schur, loop_schur(problem, x, s_inv))

        # Dense and sparse constraints are read alike, down to the iterates.
        targets = [bi for _, bi in problem.constraints]
        forms = [
            SdpProblem(n=n, c=problem.c, constraints=list(zip(mats, targets)))
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
