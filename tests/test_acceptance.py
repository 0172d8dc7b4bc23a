"""End-to-end acceptance gates.

One test per criterion, each printing a PASS line (run with -s to see
them).  Criterion 3 is implemented exactly as stated and is an expected
failure: the singular-value bound it compares against is *achieved* by
the synthesized measurements but is provably not the per-state optimum
for generic pure states (see test_bell.py::TestSeesaw for the pinned,
independently verified counterexample), so a faithful oracle must exceed
it on part of the sampled family.
"""

import math
import time

import numpy as np
import pytest

from bellbound import (
    TwoQubitState,
    chained,
    chsh,
    classical_bound,
    dual_certificate_check,
    ebi,
    entropy_crossover,
    expectation,
    gram_problem,
    max_guessing_probability,
    min_entropy_curve,
    optimal_measurements,
    pure_state,
    seesaw_max_violation,
    singlet,
    solve,
    tight_bound,
    tightness_check,
    tsirelson_bound,
    violation_threshold,
    werner_state,
)
from bellbound import behavior_from, correlation_data, state_from_correlation
from bellbound import cli
from conftest import random_state, random_strategy

ROOT2 = np.sqrt(2.0)
ROOT3 = np.sqrt(3.0)

THETAS_50 = np.linspace(0.0, np.pi / 4, 50)
PS_11 = np.linspace(0.0, 1.0, 11)


def report(number: int, text: str, started: float, budget: float):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number}: {text} PASS ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_tight_bound_formula():
    started = time.time()
    assert abs(tight_bound(singlet()) - 4 * ROOT3) <= 1e-10
    for theta in THETAS_50:
        expected = 4 * math.sqrt(1 + 2 * math.sin(2 * theta) ** 2)
        assert abs(tight_bound(pure_state(theta)) - expected) <= 1e-10
    for p in PS_11:
        assert abs(tight_bound(werner_state(p)) - 4 * ROOT3 * p) <= 1e-10
    report(1, "tight-bound formula on singlet + 50 theta + 11 p points", started, 1.0)


def test_criterion_2_saturation():
    started = time.time()
    states = [pure_state(theta) for theta in THETAS_50]
    states += [werner_state(p) for p in PS_11 if p > 0]
    for state in states:
        strategy = optimal_measurements(state)
        achieved = abs(expectation(state, ebi(), strategy))
        assert abs(achieved - tight_bound(state)) <= 1e-9
        rep = tightness_check(state, strategy)
        assert abs(rep.gram_sum + 2.0) <= 1e-8
    report(2, "synthesized measurements saturate the bound, gram sum -2", started, 1.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Spec defect: the singular-value expression is not an upper bound on "
        "the per-state optimum of the 3x4 correlator away from isotropic "
        "correlation matrices.  Independently verified counterexample: for "
        "the pure state at theta=0.4712 the optimum is 6.17438 (see-saw, "
        "confirmed by an unrelated optimizer and by both expectation routes) "
        "while the formula gives 6.07799.  A faithful see-saw oracle must "
        "therefore exceed 'tight_bound' on part of this sampled family; see "
        "the decisions ledger."
    ),
)
def test_criterion_3_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(2718)
    worst = 0.0
    worst_params = (0.0, 0.0)
    eye4 = np.eye(4) / 4.0
    for _ in range(200):
        theta = rng.uniform(0.0, np.pi / 4)
        q = rng.uniform(0.0, 1.0)
        state = TwoQubitState(q * pure_state(theta).rho + (1 - q) * eye4)
        value, _ = seesaw_max_violation(state, ebi(), restarts=20, seed=42)
        diff = abs(value - tight_bound(state))
        if diff > worst:
            worst, worst_params = diff, (theta, q)
    assert time.time() - started < 30.0
    assert worst <= 1e-6, (
        f"see-saw deviates from the singular-value formula by up to {worst:.6f} "
        f"(at theta={worst_params[0]:.4f}, q={worst_params[1]:.4f}); the formula "
        "is achievable but not optimal off the isotropic families"
    )
    report(3, "oracle equivalence on 200 mixed pure states", started, 30.0)


def test_criterion_4_classical_bounds():
    started = time.time()
    assert classical_bound(ebi()) == 6.0
    assert classical_bound(chsh()) == 2.0
    assert classical_bound(chained(3)) == 4.0
    report(4, "classical bounds 6 / 2 / 4 by enumeration", started, 1.0)


def test_criterion_5_gram_sdp():
    started = time.time()
    solution = solve(gram_problem())
    assert abs(solution.primal_obj + 2.0) <= 1e-6
    assert abs(solution.dual_obj + 2.0) <= 1e-6
    assert np.max(np.abs(solution.y + 0.5)) <= 1e-6
    min_eig, feasible = dual_certificate_check(solution.y)
    assert feasible and min_eig >= -1e-9
    report(5, "Gram SDP primal = dual = -2 with certificate", started, 1.0)


def test_criterion_6_tsirelson_bounds():
    started = time.time()
    values_1 = {
        "ebi": tsirelson_bound(ebi(), 1),
        "chsh": tsirelson_bound(chsh(), 1),
        "chained3": tsirelson_bound(chained(3), 1),
    }
    assert abs(values_1["ebi"] - 4 * ROOT3) <= 1e-5
    assert abs(values_1["chsh"] - 2 * ROOT2) <= 1e-5
    assert abs(values_1["chained3"] - 3 * ROOT3) <= 1e-4
    for name, expr in (("ebi", ebi()), ("chsh", chsh()), ("chained3", chained(3))):
        assert tsirelson_bound(expr, 2) <= values_1[name] + 1e-7
    report(6, "relaxation bounds at level 1 and monotone level 2", started, 10.0)


def test_criterion_7_randomness_endpoints():
    started = time.time()
    h_ebi = -math.log2(max_guessing_probability(ebi(), 4 * ROOT3, (0, 0), 2))
    h_chsh = -math.log2(max_guessing_probability(chsh(), 2 * ROOT2, (0, 0), 2))
    h_ch3 = -math.log2(
        max_guessing_probability(chained(3), 3 * ROOT3, (0, 0), 2)
    )
    assert abs(h_ebi - 1.34) <= 0.05
    assert abs(h_chsh - 1.23) <= 0.05
    assert abs(h_ch3 - 1.1) <= 0.05
    report(
        7,
        f"endpoint randomness {h_ebi:.3f} / {h_chsh:.3f} / {h_ch3:.3f} bits",
        started,
        300.0,
    )


@pytest.mark.slow
def test_criterion_8_crossovers_and_thresholds():
    started = time.time()
    thetas = np.linspace(0.0, np.pi / 4, 50)
    ebi_theta = min_entropy_curve("pure-theta", thetas, ebi(), 2)
    chsh_theta = min_entropy_curve("pure-theta", thetas, chsh(), 2)
    theta_cross = entropy_crossover(thetas, ebi_theta, chsh_theta)
    assert theta_cross is not None and abs(theta_cross - 0.67) <= 0.02

    ps = np.linspace(0.86, 1.0, 50)
    ebi_w = min_entropy_curve("werner-p", ps, ebi(), 2)
    chsh_w = min_entropy_curve("werner-p", ps, chsh(), 2)
    ch3_w = min_entropy_curve("werner-p", ps, chained(3), 2)
    p_cross_chsh = entropy_crossover(ps, ebi_w, chsh_w)
    p_cross_ch3 = entropy_crossover(ps, ebi_w, ch3_w)
    assert p_cross_chsh is not None and abs(p_cross_chsh - 0.965) <= 0.01
    assert p_cross_ch3 is not None and abs(p_cross_ch3 - 0.94) <= 0.01

    theta_star = violation_threshold("pure-theta", ebi())
    assert abs(theta_star - 0.456) <= 1e-3
    p_star = violation_threshold("werner-p", ebi(), tol=1e-9)
    assert abs(p_star - ROOT3 / 2) <= 1e-9
    report(
        8,
        f"crossovers theta={theta_cross:.3f}, p={p_cross_chsh:.3f}/"
        f"{p_cross_ch3:.3f}; thresholds {theta_star:.4f}, {p_star:.9f}",
        started,
        900.0,
    )


def test_criterion_9_property_suites(tmp_path, capsys):
    started = time.time()
    rng = np.random.default_rng(99)

    # State validity and correlation round-trips.
    for _ in range(20):
        state = random_state(rng)
        rebuilt = state_from_correlation(correlation_data(state))
        assert np.max(np.abs(rebuilt.rho - state.rho)) <= 1e-12

    # No-signaling of generated behaviors (constructor validates too).
    for _ in range(20):
        state = random_state(rng)
        table = behavior_from(state, random_strategy(rng, 3, 4)).table
        pa = table.sum(axis=3)
        pb = table.sum(axis=2)
        assert np.max(np.abs(pa - pa[:, :1, :])) <= 1e-10
        assert np.max(np.abs(pb - pb[:1, :, :])) <= 1e-10

    # Weak duality on feasible solver iterates.
    solution = solve(gram_problem())
    feasible_iterates = [
        entry
        for entry in solution.history
        if max(entry["primal_residual"], entry["dual_residual"]) <= 1e-8
    ]
    assert feasible_iterates
    for entry in feasible_iterates:
        assert entry["dual_obj"] <= entry["primal_obj"] + 1e-9 * (
            1 + abs(entry["primal_obj"])
        )

    # CLI determinism under a fixed seed.
    args = [
        "randomness", "--family", "werner", "--expr", "chsh",
        "--grid", "0.9:1:3", "--seed", "1",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    report(9, "validity, no-signaling, weak duality, CLI determinism", started, 60.0)
