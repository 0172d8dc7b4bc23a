import collections
import warnings

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
    BOUNDED,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    OPTIMAL,
    _max_step,
    _schur_complement,
    certified_upper_bound,
)


def operator(mats) -> np.ndarray:
    """The m x n^2 constraint operator whose row i is vec(mats[i])."""
    return np.array([np.ravel(a) for a in mats])


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
    problem = SdpProblem(n=n, c=c, a=operator(mats), b=b)
    return problem, float(np.sum(c * x_star))


class TestValidation:
    def test_rejects_asymmetric_objective(self):
        c = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            SdpProblem(n=2, c=c, a=operator([np.eye(2)]), b=[1.0])

    def test_rejects_asymmetric_constraint(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            SdpProblem(n=2, c=np.eye(2), a=operator([a]), b=[1.0])

    def test_rejects_too_many_constraints(self):
        with pytest.raises(ValueError):
            SdpProblem(n=2, c=np.eye(2), a=operator([np.eye(2)] * 4), b=np.ones(4))

    def test_rejects_operator_of_wrong_width(self):
        for a in (np.eye(3).reshape(1, 9), np.ones((1, 3)), sp.csr_matrix(np.ones((1, 5)))):
            with pytest.raises(ValueError, match="width"):
                SdpProblem(n=2, c=np.eye(2), a=a, b=[1.0])

    def test_rejects_empty_operator(self):
        for a in (np.zeros((0, 4)), sp.csr_matrix((0, 4))):
            with pytest.raises(ValueError, match="constraints, got 0"):
                SdpProblem(n=2, c=np.eye(2), a=a, b=np.zeros(0))

    def test_canonicalises_unsorted_csr_input(self):
        # Row 0 is vec(I) with its columns listed backwards; row 1 holds the
        # off-diagonal pair with one entry split into two duplicates.
        data, indices = np.array([1.0, 1.0, 1.0, 0.5, 0.5]), np.array([3, 0, 2, 1, 1])
        indptr = np.array([0, 2, 5])
        a = sp.csr_matrix((data, indices, indptr), shape=(2, 4))
        saved = [arr.copy() for arr in (data, indices, indptr)]
        problem = SdpProblem(n=2, c=np.eye(2), a=a, b=[1.0, 1.0])
        assert problem.a.indices.tolist() == [0, 3, 1, 2]
        assert problem.a.data.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert problem.a.has_canonical_format
        for ours, theirs in zip((a.data, a.indices, a.indptr), saved):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(problem.a.toarray(), [[1, 0, 0, 1], [0, 1, 1, 0]])

    def test_constraints_view_round_trips_the_operator(self):
        rng = np.random.default_rng(3)
        problem, _ = engineered_problem(rng)
        n, m = problem.n, problem.a.shape[0]
        constraints = problem.constraints
        assert len(constraints) == m and type(constraints) is tuple
        y = rng.normal(size=m)
        total = sum(yi * a.toarray() for yi, a in zip(y, constraints))
        assert np.allclose(total, (problem.a.T @ y).reshape(n, n), rtol=0, atol=1e-13)
        for i, a in enumerate(constraints):
            assert a.shape == (n, n)
            assert np.array_equal(a.toarray().ravel(), problem.a[i].toarray().ravel())
        with pytest.raises(AttributeError):
            problem.constraints = ()

    def test_rejects_non_finite_objective(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                SdpProblem(n=1, c=np.array([[bad]]), a=[[1.0]], b=[1.0])

    def test_rejects_non_finite_constraint(self):
        # NaN entries would pass the symmetry test: every comparison with
        # NaN is false.
        for bad in (np.nan, np.inf):
            dense = np.full((1, 4), bad)
            for a in (dense, sp.csr_matrix(dense)):
                with pytest.raises(ValueError, match="finite"):
                    SdpProblem(n=2, c=np.eye(2), a=a, b=[1.0])

    def test_rejects_bad_targets(self):
        for bad in ([1.0, 2.0], [np.nan], [[1.0]]):
            with pytest.raises(ValueError, match="finite constraint targets"):
                SdpProblem(n=2, c=np.eye(2), a=operator([np.eye(2)]), b=bad)

    def test_with_objective_shares_constraints(self):
        problem = gram_problem()
        other = problem.with_objective(np.eye(4), problem.b)
        assert other.a is problem.a and other._groups is problem._groups
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
        prob = SdpProblem(n=1, c=np.array([[1.0]]), a=[[1.0]], b=[3.0])
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
        sol = self.handed(np.full((4, 4), np.nan), np.zeros(4))
        sol.reason = "stalled"
        with pytest.raises(SolverError, match=r"max_iterations \(stalled\) after 0 iter"):
            certified_upper_bound(gram_problem(), sol)


class TestBoundedStop:
    """``stop_below`` ends a solve at the first iterate whose own
    certificate is below it, and changes nothing about a solve it does
    not stop."""

    @pytest.fixture(scope="class", params=["gram", "ebi_eq"])
    def problem(self, request):
        if request.param == "gram":
            return gram_problem()
        return ebi_guess_problem(0.9 * npa.tsirelson_bound(bell.ebi(), "2"))

    def test_threshold_above_the_optimum_stops_bounded(self, problem):
        full = solve(problem)
        optimum = certified_upper_bound(problem, full)
        threshold = optimum + 0.01 * (1.0 + abs(optimum))
        sol = solve(problem, stop_below=threshold)
        assert sol.status == sol.reason == BOUNDED
        assert sol.iterations < full.iterations
        # The last iterate is returned, and it is not recorded twice.
        assert len(sol.history) == sol.iterations + 1
        c_sym = 0.5 * (problem.c + problem.c.T)
        assert float(np.sum(c_sym * sol.x)) == sol.history[-1]["primal_obj"]
        in_loop = sol.history[-1]["certificate"]
        bound = certified_upper_bound(problem, sol)
        assert bound < threshold and in_loop < threshold
        assert abs(bound - in_loop) <= 1e-12 * (1.0 + abs(in_loop))
        assert bound >= optimum - 1e-7 * (1.0 + abs(optimum))

    def test_threshold_below_the_optimum_changes_nothing(self, problem):
        full = solve(problem)
        optimum = certified_upper_bound(problem, full)
        sol = solve(problem, stop_below=optimum - 1e-6 * (1.0 + abs(optimum)))
        assert (sol.status, sol.reason, sol.iterations) == (
            full.status, full.reason, full.iterations)
        assert sol.history == full.history
        for got, want in ((sol.x, full.x), (sol.y, full.y), (sol.s, full.s)):
            assert np.array_equal(got, want)


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
        "infeasible_trace": SdpProblem(n=2, c=np.eye(2), a=operator([np.eye(2)]), b=[-1.0]),
        "unbounded": SdpProblem(n=2, c=-np.eye(2), a=operator([np.diag([1.0, 0.0])]), b=[1.0]),
        # Infeasible: 2 X12 <= tr X = 1 for PSD X.
        "off_diagonal": SdpProblem(n=2, c=np.eye(2), a=operator([np.eye(2), off]),
                                   b=[1.0, 5.0]),
        # Infeasible: x11 = 1 and 2 x11 = 3.
        "stalled": SdpProblem(n=2, c=np.eye(2), b=[1.0, 3.0],
                              a=operator([np.diag([1.0, 0.0]), np.diag([2.0, 0.0])])),
        # The off-diagonal problem padded to n = 3 and 4.  At n = 3 a
        # direction stops being finite, and eigvalsh raises LinAlgError in
        # the step-length search.
        **{f"off_diagonal_n{n}": SdpProblem(n=n, c=np.eye(n), b=[1.0, 5.0],
                                           a=operator([np.eye(n), np.pad(off, (0, n - 2))]))
           for n in (3, 4)},
    }


class TestFailurePaths:
    """Problems without an optimum, and a solve cut short by the iteration
    cap.  Every stop but ``optimal`` returns the iterate with the smallest
    certificate seen, recording it once more after the record of the stop
    when it is not the last."""

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
        with pytest.warns(RuntimeWarning):
            sol = solve(failing_problems()["off_diagonal"])
        self.check_fallback(sol, 59)

    def test_stall_is_named(self):
        # Its smallest certificate is at iterate 11, so it stops 80 iterates
        # later, under the same status as the cap, without overflowing.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve(failing_problems()["stalled"])
        assert sol.status == MAX_ITERATIONS and sol.reason == "stalled"
        assert sol.iterations == 91 == 11 + sdp._STALL
        assert len(sol.history) == sol.iterations + 2
        assert sol.history[-1] == sol.history[11]

    def test_stall_ends_a_real_grind(self, monkeypatch):
        # Criterion 8's second pure-state grid point for CHSH at level 2:
        # one outcome solve stops stalled at iterate 94, and the certified
        # value is that of running it to the 200-iterate cap, bit for bit:
        # both return iterate 14, the smallest certificate.  Two dominated
        # outcomes stop bounded at iterate 8 either way.
        npa.tsirelson_bound(bell.chsh(), "2")  # cached, so only guessing solves follow
        solutions = []

        def logged(problem, **kwargs):
            solutions.append(solve(problem, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(npa, "solve", logged)
        value = npa.max_guessing_probability(bell.chsh(), 2.0010270399220813, (0, 0), "2")
        assert value == 0.9997427610799103
        assert len(solutions) == 4
        assert [(s.reason, s.iterations) for s in solutions if s.reason != OPTIMAL] == [
            ("stalled", 94), ("bounded", 8), ("bounded", 8)
        ]
        monkeypatch.setattr(sdp, "_STALL", sdp._MAX_ITER + 1)
        solutions.clear()
        assert npa.max_guessing_probability(bell.chsh(), 2.0010270399220813, (0, 0), "2") == value
        assert [s.reason for s in solutions if s.reason != OPTIMAL] == [
            "iteration_cap", "bounded", "bounded"
        ]

    @staticmethod
    def breaking_schur(monkeypatch):
        """A problem (m = 3, n = 7) whose fifth Schur factorization, at
        iterate 4, fails, and the list the Schur matrices are logged to."""
        problem, _ = engineered_problem(np.random.default_rng(182))
        m = problem.a.shape[0]
        assert m != problem.n
        cholesky, schur_calls = np.linalg.cholesky, []

        def failing(a, *args, **kwargs):
            if a.shape == (m, m):
                schur_calls.append(a)
                if len(schur_calls) == 5:
                    raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        return problem, schur_calls

    def test_stall_spares_a_slow_optimal_solve(self):
        # Just inside the endpoint window (chained3, level 2, pair (0,0),
        # I = q - 1.01e-6), outcome (1,0)'s solve goes up to 71 iterates
        # without a smaller certificate, fewer than the stall's 80, and
        # reaches optimal at iterate 174.  A stall counted on the most
        # balanced iterate cut it at 117, 2.06e-6 looser (0.033702969524).
        expr = bell.chained(3)
        moment_sdp = npa._moment_sdp(expr, "2", (0, 0))
        problem, const = moment_sdp.at(
            npa._prob_functional(moment_sdp.structure, expr, 0, 0, 1, 0),
            npa.tsirelson_bound(expr, "2") - 1.01e-6)
        sol = solve(problem)
        assert (sol.status, sol.reason, sol.iterations) == (OPTIMAL, OPTIMAL, 174)
        assert const + certified_upper_bound(problem, sol) == pytest.approx(
            0.033700912445, abs=1e-12)

    def test_schur_breakdown_is_named(self, monkeypatch):
        # Iterate 4 is also the smallest certificate: it is returned as it is.
        problem, schur_calls = self.breaking_schur(monkeypatch)
        sol = solve(problem)
        assert sol.status == NUMERICAL_FAILURE and sol.reason == "schur_breakdown"
        assert sol.iterations == 4 and len(schur_calls) == 5
        final = sol.history[-1]
        assert len(sol.history) == 5 and final == min(sol.history, key=lambda r: r["certificate"])
        assert float(problem.b @ sol.y) == final["dual_obj"] == sol.dual_obj

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", [*failing_problems(), "iteration_cap"])
    def test_one_exit_returns_the_smallest_certificate(self, monkeypatch, name):
        if name == "iteration_cap":
            # At this seed the certificate rises from -71.5 at iterate 0 to
            # -8.3 at iterate 4, so a cap of 4 stops on an iterate worse
            # than the start, which is returned.
            problem, _ = engineered_problem(np.random.default_rng(190))
            monkeypatch.setattr(sdp, "_MAX_ITER", 4)
        else:
            problem = failing_problems()[name]
        sol = solve(problem)
        if name == "iteration_cap":
            assert sol.reason == name and sol.iterations == 4
        *earlier, final = sol.history
        assert len(earlier) == sol.iterations + 1
        # The solver ranks only finite certificates, and no diverged iterate.
        ranked = earlier[:-1] if sol.reason == "diverged" else earlier
        ranked = [r for r in ranked if np.isfinite(r["certificate"])]
        assert final == min(ranked, key=lambda r: r["certificate"])
        if name == "iteration_cap":
            assert final == earlier[0] != earlier[-1]
        c_sym = 0.5 * (problem.c + problem.c.T)
        assert float(np.sum(c_sym * sol.x)) == final["primal_obj"] == sol.primal_obj
        assert float(problem.b @ sol.y) == final["dual_obj"] == sol.dual_obj
        assert sol.reason in {"iteration_cap", "stalled", "schur_breakdown", "diverged"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", ["gram", "bounded", *failing_problems(),
                                      "iteration_cap", "schur_breakdown"])
    def test_status_follows_from_reason(self, monkeypatch, name):
        stop_below, expected = -np.inf, {
            "gram": OPTIMAL, "bounded": BOUNDED, "stalled": "stalled",
            "iteration_cap": "iteration_cap", "schur_breakdown": "schur_breakdown",
        }.get(name, "diverged")
        if name in ("gram", "bounded"):
            problem = gram_problem()
            if name == "bounded":
                stop_below = -1.5  # above the optimum -2
        elif name == "iteration_cap":
            problem, _ = engineered_problem(np.random.default_rng(190))
            monkeypatch.setattr(sdp, "_MAX_ITER", 4)
        elif name == "schur_breakdown":
            problem, _ = self.breaking_schur(monkeypatch)
        else:
            problem = failing_problems()[name]
        sol = solve(problem, stop_below=stop_below)
        assert sol.reason == expected
        assert sol.status == {
            OPTIMAL: OPTIMAL, BOUNDED: BOUNDED,
            "iteration_cap": MAX_ITERATIONS, "stalled": MAX_ITERATIONS,
            "schur_breakdown": NUMERICAL_FAILURE, "diverged": NUMERICAL_FAILURE,
        }[sol.reason]

    def test_step_backtracks_to_1e_12(self, monkeypatch):
        # With a Cholesky that always fails, alpha halves from its start
        # until it falls below 1e-12, and the iterate is kept.
        tried = []

        def failing(a):
            tried.append(a[0, 0])
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        m, ell = np.zeros((2, 2)), np.eye(2)
        for start, count in ((1.0, 40), (1e-11, 4)):
            tried.clear()
            alpha, m_next, ell_next = sdp._step(m, ell, np.eye(2), start)
            assert tried == [start * 0.5**k for k in range(count)]
            assert alpha == 0 and m_next is m and ell_next is ell


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
    schur = problem.a @ kmat.T
    return 0.5 * (schur + schur.T)


def operator_arrays(problem: SdpProblem) -> list:
    """Every array of the constraint operator, groups included."""
    amat = problem.a
    groups = [arr for group in problem._groups for arr in group]
    return [amat.indptr, amat.indices, amat.data, problem.b, *groups]


def ebi_guess_problem(bell_value: float) -> SdpProblem:
    """The equality-form guessing SDP of p(00|00) for ebi at level 2."""
    expr = bell.ebi()
    sdp = npa._moment_sdp(expr, "2", (0, 0))
    prob = npa._prob_functional(sdp.structure, expr, 0, 0, 0, 0)
    return sdp.at(prob, bell_value)[0]


def ebi_problems() -> dict:
    expr = bell.ebi()
    tsirelson = npa._moment_sdp(expr, "2")
    return {
        "tsirelson": tsirelson.at(npa._bell_functional(tsirelson.structure, expr))[0],
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
    a = np.zeros((ms.class_count - 1, n, n))
    for i, cid in enumerate(range(1, ms.class_count)):
        a[i, :-1, :-1] = np.where(ms.entry_class == cid, -1.0, 0.0)
        a[i, -1, -1] = -g[cid]
    return SdpProblem(n=n, c=c, a=sp.csr_matrix(a.reshape(-1, n * n)), b=h[1:])


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

        # Dense and sparse operators are read alike, down to the iterates.
        forms = [
            SdpProblem(n=n, c=problem.c, a=a, b=problem.b)
            for a in (problem.a.toarray(), sp.csr_matrix(operator(dense)))
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
            assert np.array_equal(np.sort(js), np.arange(problem.a.shape[0]))
            for _, rr, cc, vv in problem._groups:
                assert rr.shape == cc.shape == vv.shape
        # Merged classes (see npa._merged_structure) give wider rows.
        sizes = [group[1].shape[1] for group in problems["eq"]._groups]
        assert sizes == [2, 3, 4, 6, 8, 10, 12, 14, 20, 21, 24, 27, 28, 36]
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
