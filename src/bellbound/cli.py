"""
Command-line front end.

Subcommands: bound (tight violation bound of a state), measure (optimal
measurement synthesis + saturation report), classical (deterministic
bound by enumeration), tsirelson (relaxation bound at a level),
randomness (min-entropy curve over a state family, CSV output), and
gram-demo (the 4x4 Gram-matrix SDP with its dual certificate).

Numbers print with 6 decimals in human mode and 12 significant digits in
CSV/JSON.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.  Grid sweeps run one point at a time by default; --threads N or
BELLBOUND_THREADS=N runs N points at once on a thread pool, which gives
the same rows, always written in grid order.  Importing the package pins
OpenBLAS to one thread unless OPENBLAS_NUM_THREADS is set (see
bellbound.linalg).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bell, npa, sdp, states
from .errors import (
    BellboundError,
    InfeasibleValue,
    NoConvergence,
    NonHermitianInput,
    NotPositiveDefinite,
    SolverError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    SolverError,
    NotPositiveDefinite,
    NoConvergence,
    NonHermitianInput,
    InfeasibleValue,
)


@dataclass
class RunConfig:
    command: str
    state: str | None = None
    state_file: str | None = None
    theta: float | None = None
    p: float | None = None
    family: str | None = None
    expr: str | None = None
    n: int = 3
    level: str = "2"
    pair: tuple[int, int] = (0, 0)
    grid: tuple[float, float, int] | None = None
    out: str | None = None
    compare: str | None = None
    seed: int = 0
    threads: int | None = None
    json_output: bool = False


def _g12(value: float) -> str:
    return f"{float(value):.12g}"


def _jnum(value: float) -> float:
    return float(_g12(value))


_CLAMP_SLACK = 1e-3  # absorbs decimal roundings like 0.7854 for pi/4


def _clamp(value: float, lo: float, hi: float) -> float:
    """Snap a parameter onto its family domain if it only just misses it."""
    if lo - _CLAMP_SLACK <= value < lo:
        return lo
    if hi < value <= hi + _CLAMP_SLACK:
        return hi
    return value


def _resolve_state(cfg: RunConfig) -> states.TwoQubitState:
    if cfg.state_file:
        with open(cfg.state_file) as fh:
            return states.TwoQubitState.from_json(fh.read())
    if cfg.state == "pure":
        if cfg.theta is None:
            raise BellboundError("--state pure requires --theta")
        return states.pure_state(_clamp(cfg.theta, 0.0, np.pi / 4))
    if cfg.state == "werner":
        if cfg.p is None:
            raise BellboundError("--state werner requires --p")
        return states.werner_state(_clamp(cfg.p, 0.0, 1.0))
    if cfg.state == "singlet":
        return states.singlet()
    raise BellboundError(f"unknown state {cfg.state!r}")


def _resolve_expr(name: str | None, n: int) -> bell.BellExpression:
    if name == "ebi":
        return bell.ebi()
    if name == "chsh":
        return bell.chsh()
    if name == "chained":
        return bell.chained(n)
    raise BellboundError(f"unknown expression {name!r}")


def _family_name(family: str | None) -> str:
    if family == "pure":
        return "pure-theta"
    if family == "werner":
        return "werner-p"
    raise BellboundError(f"unknown family {family!r}")


def _thread_count(cfg: RunConfig) -> int:
    if cfg.threads is not None:
        return max(1, cfg.threads)
    env = os.environ.get("BELLBOUND_THREADS")
    if env:
        return max(1, int(env))
    return 1


def cmd_bound(cfg: RunConfig) -> int:
    state = _resolve_state(cfg)
    data = states.correlation_data(state)
    from .linalg import svd3

    sv = svd3(data.t).singular_values
    tight = bell.tight_bound(state)
    cb = bell.classical_bound(bell.ebi())
    violated = tight > cb + 1e-12
    if cfg.json_output:
        print(
            json.dumps(
                {
                    "tight_bound": _jnum(tight),
                    "singular_values": [_jnum(v) for v in sv],
                    "classical_bound": _jnum(cb),
                    "violated": bool(violated),
                }
            )
        )
    else:
        print(f"tight bound      {tight:.6f}")
        print(f"singular values  {sv[0]:.6f} {sv[1]:.6f} {sv[2]:.6f}")
        print(f"classical bound  {cb:.6f}")
        print(f"violation        {'yes' if violated else 'no'}")
    return EXIT_OK


def cmd_measure(cfg: RunConfig) -> int:
    state = _resolve_state(cfg)
    strategy = bell.optimal_measurements(state)
    report = bell.tightness_check(state, strategy)
    value = bell.expectation(state, bell.ebi(), strategy)
    payload = {
        "strategy": json.loads(strategy.to_json()),
        "expectation": _jnum(value),
        "tight_bound": _jnum(bell.tight_bound(state)),
        "tightness": {
            "proportionality_ok": report.proportionality_ok,
            "gram_sum": _jnum(report.gram_sum),
            "gram_sum_ok": report.gram_sum_ok,
            "alice_aligned": report.alice_aligned,
            "bound_gap": _jnum(report.bound_gap),
        },
    }
    if cfg.json_output:
        print(json.dumps(payload))
    else:
        print(strategy.to_json())
        print(f"expectation      {value:.6f}")
        print(f"tight bound      {payload['tight_bound']:.6f}")
        print(f"proportionality  {report.proportionality_ok}")
        print(f"gram sum         {report.gram_sum:.6f} (ok={report.gram_sum_ok})")
        print(f"alice aligned    {report.alice_aligned}")
        print(f"bound gap        {report.bound_gap:.6e}")
    return EXIT_OK


def cmd_classical(cfg: RunConfig) -> int:
    value = bell.classical_bound(_resolve_expr(cfg.expr, cfg.n))
    print(json.dumps({"classical_bound": _jnum(value)}) if cfg.json_output
          else f"classical bound  {value:.6f}")
    return EXIT_OK


def cmd_tsirelson(cfg: RunConfig) -> int:
    value = npa.tsirelson_bound(_resolve_expr(cfg.expr, cfg.n), cfg.level)
    print(json.dumps({"tsirelson_bound": _jnum(value), "level": cfg.level})
          if cfg.json_output else f"tsirelson bound  {value:.6f} (level {cfg.level})")
    return EXIT_OK


def cmd_gram_demo(cfg: RunConfig) -> int:
    solution = sdp.solve(sdp.gram_problem())
    if solution.status != sdp.OPTIMAL:
        print(f"solver status: {solution.status}", file=sys.stderr)
        return EXIT_NUMERICAL
    min_eig, feasible = sdp.dual_certificate_check(solution.y)
    ok = (
        abs(solution.primal_obj + 2.0) <= 1e-6
        and abs(solution.dual_obj + 2.0) <= 1e-6
        and feasible
    )
    if cfg.json_output:
        print(
            json.dumps(
                {
                    "primal": _jnum(solution.primal_obj),
                    "dual": _jnum(solution.dual_obj),
                    "dual_vector": [_jnum(v) for v in solution.y],
                    "certificate_min_eigenvalue": _jnum(min_eig),
                    "ok": bool(ok),
                }
            )
        )
    else:
        print(f"primal optimum   {solution.primal_obj:.6f}")
        print(f"dual optimum     {solution.dual_obj:.6f}")
        print("dual vector      " + " ".join(f"{v:.6f}" for v in solution.y))
        print(f"certificate eig  {min_eig:.6e} (feasible={feasible})")
    if not ok:
        print("gram demo failed its -2 check", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_randomness(cfg: RunConfig) -> int:
    if cfg.grid is None:
        raise BellboundError("randomness requires --grid start:stop:steps")
    family = _family_name(cfg.family)
    expr = _resolve_expr(cfg.expr, cfg.n)
    start, stop, steps = cfg.grid
    lo, hi = bell.family_domain(family)
    start, stop = _clamp(start, lo, hi), _clamp(stop, lo, hi)
    if start < lo or stop > hi:
        raise BellboundError(
            f"grid [{start}, {stop}] outside family domain [{lo:.6g}, {hi:.6g}]"
        )
    params = np.linspace(start, stop, steps)

    # Warm shared caches before dispatching workers.
    npa.tsirelson_bound(expr, cfg.level)

    def one(param: float) -> npa.RandomnessPoint:
        return npa.min_entropy_curve(
            family, [param], expr, cfg.level, cfg.pair, cfg.seed
        )[0]

    rows: list[str] = [npa.CURVE_CSV_HEADER]
    points: list[npa.RandomnessPoint] = []
    failure: Exception | None = None
    workers = _thread_count(cfg)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(one, float(p)) for p in params]
        for param, fut in zip(params, futures):
            try:
                pt = fut.result()
            except _NUMERICAL_ERRORS as exc:
                failure = exc
                break
            points.append(pt)
            rows.append(npa.curve_csv_row(float(param), pt))
    if failure is not None:
        rows.append("# truncated")
    text = "\n".join(rows) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if failure is not None:
        print(f"solver failure: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL

    best = max(points, key=lambda pt: pt.min_entropy)
    best_param = params[max(range(len(points)), key=lambda i: points[i].min_entropy)]
    print(f"max entropy      {best.min_entropy:.6f} bits at param {best_param:.6f}")
    if cfg.compare:
        other_expr = _resolve_expr(cfg.compare, cfg.n)
        npa.tsirelson_bound(other_expr, cfg.level)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            other = list(
                pool.map(
                    lambda p: npa.min_entropy_curve(
                        family, [float(p)], other_expr, cfg.level, cfg.pair, cfg.seed
                    )[0],
                    params,
                )
            )
        crossing = npa.entropy_crossover(params, points, other)
        if crossing is None:
            print(f"crossover vs {cfg.compare}: none")
        else:
            print(f"crossover vs {cfg.compare}: param {crossing:.6f}")
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:steps")
    start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 steps")
    return start, stop, steps


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("pair must be x,y (0-based)")
    return int(parts[0]), int(parts[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbound",
        description="Bell-violation bounds and device-independent randomness",
    )
    parser.add_argument("--config", help="JSON file with default options")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", dest="json_output")
        p.add_argument("--seed", type=int, default=None)

    p_bound = sub.add_parser("bound", help="tight violation bound of a state")
    p_bound.add_argument("--state", choices=["pure", "werner", "singlet"])
    p_bound.add_argument("--state-file", dest="state_file",
                         help="JSON file with a 4x4 [re, im] density matrix")
    p_bound.add_argument("--theta", type=float)
    p_bound.add_argument("--p", type=float)
    common(p_bound)

    p_measure = sub.add_parser("measure", help="optimal measurements + tightness")
    p_measure.add_argument("--state", choices=["pure", "werner", "singlet"])
    p_measure.add_argument("--state-file", dest="state_file",
                           help="JSON file with a 4x4 [re, im] density matrix")
    p_measure.add_argument("--theta", type=float)
    p_measure.add_argument("--p", type=float)
    common(p_measure)

    p_classical = sub.add_parser("classical", help="deterministic bound")
    p_classical.add_argument("--expr", choices=["ebi", "chsh", "chained"])
    p_classical.add_argument("--n", type=int, default=None)
    common(p_classical)

    p_tsirelson = sub.add_parser("tsirelson", help="relaxation bound")
    p_tsirelson.add_argument("--expr", choices=["ebi", "chsh", "chained"])
    p_tsirelson.add_argument("--n", type=int, default=None)
    p_tsirelson.add_argument("--level", choices=["1", "1+AB", "2"], default=None)
    common(p_tsirelson)

    p_rand = sub.add_parser("randomness", help="min-entropy curve over a family")
    p_rand.add_argument("--family", choices=["pure", "werner"])
    p_rand.add_argument("--expr", choices=["ebi", "chsh", "chained"])
    p_rand.add_argument("--n", type=int, default=None)
    p_rand.add_argument("--level", choices=["1", "1+AB", "2"], default=None)
    p_rand.add_argument("--pair", type=_parse_pair, default=None,
                        help="input pair x,y (0-based), default 0,0")
    p_rand.add_argument("--grid", type=_parse_grid, help="start:stop:steps")
    p_rand.add_argument("--out", help="CSV output path (default stdout)")
    p_rand.add_argument("--compare", choices=["ebi", "chsh", "chained"])
    p_rand.add_argument("--threads", type=int, default=None)
    common(p_rand)

    p_gram = sub.add_parser("gram-demo", help="Gram-matrix SDP demonstration")
    common(p_gram)

    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)

    def pick(name, default):
        value = getattr(args, name, None)
        if value is not None:
            return value
        if name in file_values:
            return file_values[name]
        return default

    grid = pick("grid", None)
    if isinstance(grid, str):
        grid = _parse_grid(grid)
    elif isinstance(grid, list):
        grid = (float(grid[0]), float(grid[1]), int(grid[2]))
    pair = pick("pair", (0, 0))
    if isinstance(pair, str):
        pair = _parse_pair(pair)
    elif isinstance(pair, list):
        pair = (int(pair[0]), int(pair[1]))

    return RunConfig(
        command=args.command,
        state=pick("state", None),
        state_file=pick("state_file", None),
        theta=pick("theta", None),
        p=pick("p", None),
        family=pick("family", None),
        expr=pick("expr", None),
        n=int(pick("n", 3)),
        level=str(pick("level", "2")),
        pair=pair,
        grid=grid,
        out=pick("out", None),
        compare=pick("compare", None),
        seed=int(pick("seed", 0)),
        threads=pick("threads", None),
        json_output=bool(getattr(args, "json_output", False) or file_values.get("json", False)),
    )


_COMMANDS = {
    "bound": cmd_bound,
    "measure": cmd_measure,
    "classical": cmd_classical,
    "tsirelson": cmd_tsirelson,
    "randomness": cmd_randomness,
    "gram-demo": cmd_gram_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[cfg.command](cfg)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (BellboundError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
