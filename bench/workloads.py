"""Workload inputs, operations and output checks.

``generate`` runs in the benchmark's parent process and uses only the
standard library: it turns a seed into plain JSON inputs.  Everything
else runs in the worker process, after ``import bellbound``.

An *operation* is one call that can fail; an *item* is the unit that
``items_per_s`` counts (a CSV row for werner-sweep, a state for
state-scan).  Latencies are recorded per operation that carries
``timed=True``: one ``randomness`` invocation, one state.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from collections.abc import Callable
from dataclasses import dataclass

WORKLOADS = ("werner-sweep", "state-scan")

# Operations of a traced run.  The traced run does a fixed amount of work,
# so its per-layer totals describe the same work on every commit; these
# counts take about half of a 50-s run on a 2-core machine.
TRACE_OPS = {"werner-sweep": 3, "state-scan": 750}

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)

# Level-1 relaxation values (criterion 6) of the three expressions.
LEVEL1 = {"ebi": 4 * ROOT3, "chsh": 2 * ROOT2, "chained3": 3 * ROOT3}
# Accuracy the solver reaches mid-curve.
MID_TOL = 1e-8
# Werner ebi-vs-chsh crossover (criterion 8) and its tolerance.
WERNER_CROSSOVER = 0.965
CROSSOVER_TOL = 0.01
SATURATION_TOL = 1e-9
GRAM_TOL = 1e-8
# The see-saw stops after 500 sweeps; on near-degenerate correlation
# matrices it is then up to about 6e-6 short of the optimum.
SEESAW_TOL = 5e-5

# Thresholds of violation_threshold (default bisection tolerance 1e-6).
THRESHOLDS = (
    ("werner-p", "ebi", ROOT3 / 2, 2e-6),
    ("pure-theta", "ebi", 0.456, 1e-3),
    ("werner-p", "chsh", 1 / ROOT2, 2e-6),
    ("pure-theta", "chsh", 0.0, 2e-6),
)
STATES_PER_THRESHOLD = 25


# --------------------------------------------------------------------------
# Input generation (parent process, standard library only)


def _werner_inputs(rng: random.Random) -> dict:
    # Two grid points that bracket the crossover near 0.965 and stop
    # short of p = 1, the level-2 maximum of the family.  The windows are
    # narrow because solver iterations, and so the cost of a point, vary
    # with p; wide windows would turn seed choice into run-to-run spread.
    grids = [
        [round(rng.uniform(0.945, 0.955), 6), round(rng.uniform(0.975, 0.985), 6)]
        for _ in range(200)
    ]
    return {"grids": grids}


def _random_rho(rng: random.Random) -> list:
    """Haar-like pure state mixed with white noise, as [re, im] rows."""
    vec = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
    norm = math.sqrt(sum(abs(v) ** 2 for v in vec))
    vec = [v / norm for v in vec]
    q = rng.uniform(0.05, 1.0)
    rho = [
        [q * vec[i] * vec[j].conjugate() + (1 - q) * (0.25 if i == j else 0.0)
         for j in range(4)]
        for i in range(4)
    ]
    return [[[z.real, z.imag] for z in row] for row in rho]


def _state_inputs(rng: random.Random) -> dict:
    states = []
    for k in range(1500):
        kind = k % 4
        if kind == 1:
            states.append({"family": "werner-p", "param": round(rng.uniform(0.05, 1.0), 9)})
        elif kind == 3:
            states.append(
                {"family": "pure-theta", "param": round(rng.uniform(0.05, math.pi / 4), 9)}
            )
        else:
            states.append({"rho": _random_rho(rng)})
    return {"states": states, "seesaw_seed": rng.randrange(2**31)}


def generate(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "werner-sweep":
        return _werner_inputs(rng)
    if workload == "state-scan":
        return _state_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# Operations (worker process)


class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    """One operation: ``run()`` returns the items it completed."""

    run: Callable[[], int]
    timed: bool = True


def _expressions():
    from bellbound import bell

    return {"ebi": bell.ebi(), "chsh": bell.chsh(), "chained3": bell.chained(3)}


class WernerSweep:
    """``bellbound randomness`` invocations through ``cli.main``."""

    def __init__(self, inputs: dict, out_dir: str, counters: dict):
        self.grids = inputs["grids"]
        self.csv_path = os.path.join(out_dir, "werner-sweep.csv")
        self.counters = counters
        self.first_rows: list[list[float]] | None = None

    def ops(self):
        for grid in self.grids:
            yield Op(lambda grid=grid: self._invoke(grid))

    def _invoke(self, grid) -> int:
        from bellbound import cli

        start, stop = grid
        argv = [
            "randomness", "--family", "werner", "--expr", "ebi", "--level", "2",
            "--compare", "chsh", "--grid", f"{start}:{stop}:2", "--out", self.csv_path,
        ]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        _expect(code == 0, f"exit code {code} for {argv}")
        with open(self.csv_path) as fh:
            text = fh.read()
        self.counters["cli.csv.bytes"] = self.counters.get("cli.csv.bytes", 0) + len(text)
        rows = self._check_csv(text, [start, stop])
        self._check_crossover(printed.getvalue())
        if self.first_rows is None:
            self.first_rows = rows
        return len(rows)

    @staticmethod
    def _check_csv(text: str, params) -> list[list[float]]:
        lines = text.strip().splitlines()
        _expect(lines[0] == "param,bell_value,guessing_probability,min_entropy_bits",
                f"CSV header {lines[0]!r}")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        _expect(len(rows) == len(params), f"{len(rows)} CSV rows, expected {len(params)}")
        for (param, bell_value, guess, bits), expected in zip(rows, params):
            _expect(abs(param - expected) <= 1e-12, f"row param {param} != {expected}")
            _expect(abs(bell_value - 4 * ROOT3 * param) <= SATURATION_TOL,
                    f"Werner ebi value {bell_value} at p={param}")
            _expect(0.25 <= guess < 1.0, f"guessing probability {guess}")
            _expect(abs(bits + math.log2(guess)) <= 1e-9, f"entropy {bits} vs {guess}")
        return rows

    @staticmethod
    def _check_crossover(printed: str) -> None:
        for line in printed.splitlines():
            if line.startswith("crossover vs chsh: param "):
                value = float(line.rsplit(" ", 1)[1])
                _expect(abs(value - WERNER_CROSSOVER) <= CROSSOVER_TOL,
                        f"Werner crossover {value}")
                return
        raise CheckFailed(f"no crossover line in {printed!r}")

    def final_check(self) -> None:
        """CSV rows against the library's own point (outside the timed loop)."""
        from bellbound import bell, npa

        if self.first_rows is None:
            return
        param, bell_value, guess, _ = self.first_rows[0]
        point = npa.min_entropy_curve("werner-p", [param], bell.ebi(), "2")[0]
        _expect(abs(point.bell_value - bell_value) <= SATURATION_TOL,
                f"library Bell value {point.bell_value} vs CSV {bell_value}")
        _expect(abs(point.guessing_probability - guess) <= MID_TOL,
                f"library guessing probability {point.guessing_probability} vs CSV {guess}")


def _pauli():
    import numpy as np

    return np.array(
        [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
    )


class StateScan:
    """Per-state bounds, measurements, saturation checks and see-saws."""

    def __init__(self, inputs: dict, out_dir: str, counters: dict):
        import numpy as np
        from bellbound import bell, states

        self.exprs = _expressions()
        self.seesaw_seed = inputs["seesaw_seed"]
        self.states = []
        for entry in inputs["states"]:
            if "rho" in entry:
                rho = np.array([[complex(re, im) for re, im in row] for row in entry["rho"]])
                self.states.append(states.TwoQubitState(rho))
            else:
                self.states.append(bell.family_state(entry["family"], entry["param"]))
        # sigma_i (x) sigma_j, for an independent route to the correlation matrix.
        pauli = _pauli()
        self.pauli_pairs = np.einsum("iab,jcd->ijacbd", pauli, pauli).reshape(3, 3, 4, 4)

    def ops(self):
        """Cycles through the states, with a threshold call every few states."""
        k = 0
        while True:
            if k and k % STATES_PER_THRESHOLD == 0:
                spec = THRESHOLDS[(k // STATES_PER_THRESHOLD - 1) % len(THRESHOLDS)]
                yield Op(lambda spec=spec: self._threshold(*spec), timed=False)
            state = self.states[k % len(self.states)]
            yield Op(lambda state=state: self._state(state))
            k += 1

    def _state(self, state) -> int:
        import numpy as np
        from bellbound import bell

        t = np.real(np.einsum("ijab,ba->ij", self.pauli_pairs, state.rho))
        singular = np.linalg.svd(t, compute_uv=False)

        tight = bell.tight_bound(state)
        _expect(abs(tight - 4 * np.linalg.norm(t)) <= SATURATION_TOL,
                f"tight bound {tight} vs 4|T| {4 * np.linalg.norm(t)}")
        strategy = bell.optimal_measurements(state)
        achieved = abs(bell.expectation(state, self.exprs["ebi"], strategy))
        _expect(abs(achieved - tight) <= SATURATION_TOL,
                f"synthesized measurements reach {achieved}, bound {tight}")
        report = bell.tightness_check(state, strategy)
        _expect(abs(report.gram_sum + 2.0) <= GRAM_TOL, f"Gram sum {report.gram_sum}")
        _expect(report.proportionality_ok and report.alice_aligned,
                "saturation diagnostics flag the synthesized strategy")
        _expect(report.bound_gap <= SATURATION_TOL, f"bound gap {report.bound_gap}")

        values = {}
        for name, expr in self.exprs.items():
            value, found = bell.seesaw_max_violation(state, expr, seed=self.seesaw_seed)
            _expect(abs(value - bell.expectation(state, expr, found)) <= SATURATION_TOL,
                    f"see-saw value of {name} differs from its strategy's expectation")
            _expect(abs(value) <= LEVEL1[name] + SATURATION_TOL,
                    f"see-saw value of {name} {value} above the quantum maximum")
            values[name] = abs(value)
        # Horodecki: the CHSH optimum is 2 sqrt(s1^2 + s2^2).  The tight
        # bound is achievable, so the see-saw optimum of ebi reaches it.
        horodecki = 2 * math.hypot(singular[0], singular[1])
        _expect(abs(values["chsh"] - horodecki) <= SEESAW_TOL,
                f"see-saw CHSH {values['chsh']} vs {horodecki}")
        _expect(values["ebi"] >= tight - SEESAW_TOL,
                f"see-saw ebi {values['ebi']} below the tight bound {tight}")
        return 1

    def _threshold(self, family: str, name: str, expected: float, tol: float) -> int:
        from bellbound import bell

        value = bell.violation_threshold(family, self.exprs[name])
        _expect(abs(value - expected) <= tol,
                f"violation threshold of {name} on {family}: {value}")
        return 0

    def final_check(self) -> None:
        pass


WORKLOAD_CLASSES = {
    "werner-sweep": WernerSweep,
    "state-scan": StateScan,
}
