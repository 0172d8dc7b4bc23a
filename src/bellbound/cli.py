"""
Command-line front end.

Subcommands: bound (tight violation bound of a state), measure (optimal
measurement synthesis + saturation report), classical (deterministic
bound by enumeration), tsirelson (relaxation bound at a level),
randomness (min-entropy curve over a state family, CSV output, with a
summary printed as lines or, with --json, one object), and
gram-demo (the 4x4 Gram-matrix SDP with its dual certificate).  Each
subparser holds its handler as its ``run`` default, so argparse is the one
place that maps a subcommand to behaviour.

Numbers print with 6 decimals in human mode and 12 significant digits in
CSV/JSON, all through ``npa.round_toward``: the tight and Tsirelson bounds
round up and the min-entropy down, so no printed figure claims more than
its certificate gives.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure.  Grid
sweeps compute one point at a time, in grid order, and stop at the first
point that fails.  ``--config FILE`` supplies defaults from a JSON
object keyed by option name (``state_file``, ``grid``, ``json``, ...);
flags win, and a key that no subcommand declares exits 2.  Importing the package pins
numpy's OpenBLAS to one thread, and the first SDP solve pins scipy's,
unless OPENBLAS_NUM_THREADS is set (see bellbound.linalg).  scipy is
loaded only by the commands that build an SDP (tsirelson, randomness,
gram-demo); importing this module and bound, measure and classical do not
load it.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import bell, npa, sdp, states
from .errors import BellboundError, InfeasibleValue, SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (SolverError, InfeasibleValue)

_EXPRESSIONS = {
    "ebi": lambda n: bell.ebi(),
    "chsh": lambda n: bell.chsh(),
    "chained": bell.chained,
}
# CLI family -> (library family, its parameter flag).
_FAMILIES = {"pure": ("pure-theta", "theta"), "werner": ("werner-p", "p")}
_STATES = {"singlet": states.singlet}


def _jnum(value: float) -> float:
    """``value`` rounded to the 12 significant digits JSON output carries."""
    return float(f"{float(value):.12g}")


_CLAMP_SLACK = 1e-3  # absorbs decimal roundings like 0.7854 for pi/4


def _clamp(value: float, lo: float, hi: float) -> float:
    """Snap a parameter onto its family domain if it only just misses it."""
    if lo - _CLAMP_SLACK <= value < lo:
        return lo
    if hi < value <= hi + _CLAMP_SLACK:
        return hi
    return value


def _lookup(table: dict, kind: str, name, flag: str):
    if name is None:
        raise BellboundError(f"no {kind} given: pass {flag}")
    try:
        return table[name]
    except KeyError:
        raise BellboundError(f"unknown {kind} {name!r}") from None


def _resolve_state(args: argparse.Namespace) -> states.TwoQubitState:
    if args.state_file:
        with open(args.state_file) as fh:
            return states.TwoQubitState.from_json(fh.read())
    if args.state is None:
        raise BellboundError(f"{args.command} requires --state or --state-file")
    if args.state in _FAMILIES:
        family, flag = _FAMILIES[args.state]
        value = getattr(args, flag)
        if value is None:
            raise BellboundError(f"--state {args.state} requires --{flag}")
        return bell.family_state(family, _clamp(value, *bell.family_domain(family)))
    return _lookup(_STATES, "state", args.state, "--state")()


def _resolve_expr(name: str | None, n: int) -> bell.BellExpression:
    return _lookup(_EXPRESSIONS, "expression", name, "--expr")(n)


def cmd_bound(args: argparse.Namespace) -> int:
    state = _resolve_state(args)
    sv = np.linalg.svd(states.correlation_data(state).t)[1]
    tight = bell.tight_bound(state)
    cb = bell.classical_bound(bell.ebi())
    violated = tight > cb + 1e-12
    if args.json:
        print(
            json.dumps(
                {
                    "tight_bound": float(npa.round_toward(tight, up=True)),
                    "singular_values": [_jnum(v) for v in sv],
                    "classical_bound": _jnum(cb),
                    "violated": bool(violated),
                }
            )
        )
    else:
        print(f"tight bound      {npa.round_toward(tight, up=True, places=6)}")
        print(f"singular values  {sv[0]:.6f} {sv[1]:.6f} {sv[2]:.6f}")
        print(f"classical bound  {cb:.6f}")
        print(f"violation        {'yes' if violated else 'no'}")
    return EXIT_OK


def cmd_measure(args: argparse.Namespace) -> int:
    state = _resolve_state(args)
    strategy = bell.optimal_measurements(state)
    report = bell.tightness_check(state, strategy)
    value = bell.expectation(state, bell.ebi(), strategy)
    tight = bell.tight_bound(state)
    payload = {
        "strategy": json.loads(strategy.to_json()),
        "expectation": _jnum(value),
        "tight_bound": float(npa.round_toward(tight, up=True)),
        "tightness": {
            "proportionality_ok": report.proportionality_ok,
            "gram_sum": _jnum(report.gram_sum),
            "gram_sum_ok": report.gram_sum_ok,
            "alice_aligned": report.alice_aligned,
            "bound_gap": _jnum(report.bound_gap),
        },
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(strategy.to_json())
        print(f"expectation      {value:.6f}")
        print(f"tight bound      {npa.round_toward(tight, up=True, places=6)}")
        print(f"proportionality  {report.proportionality_ok}")
        print(f"gram sum         {report.gram_sum:.6f} (ok={report.gram_sum_ok})")
        print(f"alice aligned    {report.alice_aligned}")
        print(f"bound gap        {report.bound_gap:.6e}")
    return EXIT_OK


def cmd_classical(args: argparse.Namespace) -> int:
    value = bell.classical_bound(_resolve_expr(args.expr, args.n))
    print(json.dumps({"classical_bound": _jnum(value)}) if args.json
          else f"classical bound  {value:.6f}")
    return EXIT_OK


def cmd_tsirelson(args: argparse.Namespace) -> int:
    value = npa.tsirelson_bound(_resolve_expr(args.expr, args.n), args.level)
    bound = {"tsirelson_bound": float(npa.round_toward(value, up=True)), "level": args.level}
    human = f"tsirelson bound  {npa.round_toward(value, up=True, places=6)} (level {args.level})"
    print(json.dumps(bound) if args.json else human)
    return EXIT_OK


def cmd_gram_demo(args: argparse.Namespace) -> int:
    solution = sdp.solve(sdp.gram_problem())
    if solution.status != sdp.OPTIMAL:
        print(f"solver status: {solution.status} ({solution.reason}) "
              f"after {solution.iterations} iterations", file=sys.stderr)
        return EXIT_NUMERICAL
    min_eig, feasible = sdp.dual_certificate_check(solution.y)
    ok = (
        abs(solution.primal_obj + 2.0) <= 1e-6
        and abs(solution.dual_obj + 2.0) <= 1e-6
        and feasible
    )
    if args.json:
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


def _curve(args: argparse.Namespace, family: str, expr: bell.BellExpression, params):
    """Min-entropy points of ``expr`` over ``params``, in grid order.

    Returns the points before the first numerical failure and that failure
    (None if every point succeeded); no point after a failure is computed.
    """
    # A bad pair is a configuration error before any solve.  Every point
    # shares the Tsirelson bound; failing to compute it is not a truncated
    # curve.
    npa._check_input_pair(expr, args.pair)
    npa.tsirelson_bound(expr, args.level)
    points: list[npa.RandomnessPoint] = []
    # Points run one at a time.  The one-worker executor stays only because
    # the benchmark's tracer hooks it; dropping it waits for a benchmark change.
    with ThreadPoolExecutor(max_workers=1) as pool:
        for param in params:
            task = pool.submit(
                npa.min_entropy_curve,
                family, [float(param)], expr, args.level, args.pair, args.seed,
            )
            try:
                points.append(task.result()[0])
            except _NUMERICAL_ERRORS as exc:
                return points, exc
    return points, None


def cmd_randomness(args: argparse.Namespace) -> int:
    if args.grid is None:
        raise BellboundError("randomness requires --grid start:stop:steps")
    family, _ = _lookup(_FAMILIES, "family", args.family, "--family")
    expr = _resolve_expr(args.expr, args.n)
    start, stop, steps = args.grid
    lo, hi = bell.family_domain(family)
    start, stop = _clamp(start, lo, hi), _clamp(stop, lo, hi)
    if not (lo <= start <= hi and lo <= stop <= hi):
        raise BellboundError(
            f"grid [{start}, {stop}] outside family domain [{lo:.6g}, {hi:.6g}]"
        )
    params = np.linspace(start, stop, steps)

    points, failure = _curve(args, family, expr, params)
    text = npa.curve_csv(params, points)
    if failure is not None:
        text += "# truncated\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if failure is not None:
        print(f"solver failure: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL

    best = max(range(len(points)), key=lambda i: points[i].min_entropy)
    summary = {
        "max_entropy_bits": float(npa.round_toward(points[best].min_entropy, up=False)),
        "argmax_param": _jnum(params[best]),
        "crossover": None,
    }
    if not args.json:
        entropy = npa.round_toward(points[best].min_entropy, up=False, places=6)
        print(f"max entropy      {entropy} bits at param {params[best]:.6f}")
    if args.compare:
        other, failure = _curve(args, family, _resolve_expr(args.compare, args.n), params)
        if failure is not None:
            raise failure
        crossing = npa.entropy_crossover(params, points, other)
        if crossing is not None:
            summary["crossover"] = _jnum(crossing)
        if not args.json:
            where = "none" if crossing is None else f"param {crossing:.6f}"
            print(f"crossover vs {args.compare}: {where}")
    if args.json:
        print(json.dumps(summary))
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


def _read_config(path: str) -> dict:
    """Option defaults from a JSON object keyed by option name.

    Each value is turned back into the text of its flag (``grid`` and
    ``pair`` lists joined by the flag's separator), so argparse runs it
    through the same ``type=`` parser as the flag.  Booleans such as
    ``json`` and nulls pass through.
    """
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise BellboundError(f"config {path} must hold a JSON object")
    separators = {"grid": ":", "pair": ","}
    for key, value in values.items():
        if key in separators and isinstance(value, list):
            values[key] = separators[key].join(map(str, value))
        elif not isinstance(value, (bool, type(None))):
            values[key] = str(value)
    return values


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The ``bellbound`` parser; each subparser's ``run`` default is its
    ``cmd_*`` handler, which :func:`main` calls.  ``defaults`` (from
    ``--config``) replace the built-in defaults of every subcommand.  A key
    that no subcommand declares as an option (``run`` included) is an
    error; one declared by another subcommand is ignored, so one config
    file can serve several commands."""
    parser = argparse.ArgumentParser(
        prog="bellbound",
        description="Bell-violation bounds and device-independent randomness",
    )
    parser.add_argument("--config", help="JSON file with default options")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")

    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--state", choices=[*_FAMILIES, *_STATES])
    state.add_argument("--state-file", help="JSON file with a 4x4 [re, im] density matrix")
    state.add_argument("--theta", type=float)
    state.add_argument("--p", type=float)

    expr = argparse.ArgumentParser(add_help=False)
    expr.add_argument("--expr", choices=list(_EXPRESSIONS))
    expr.add_argument("--n", type=int, default=3)

    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--level", choices=npa.LEVELS, default="2")

    def command(name, run, summary, *parents):
        subparser = sub.add_parser(name, help=summary, parents=[*parents, common])
        subparser.set_defaults(run=run)
        return subparser

    command("bound", cmd_bound, "tight violation bound of a state", state)
    command("measure", cmd_measure, "optimal measurements + tightness", state)
    command("classical", cmd_classical, "deterministic bound", expr)
    command("tsirelson", cmd_tsirelson, "relaxation bound", expr, level)
    rand = command("randomness", cmd_randomness, "min-entropy curve over a family",
                   expr, level)
    rand.add_argument("--family", choices=list(_FAMILIES))
    rand.add_argument("--pair", type=_parse_pair, default="0,0",
                      help="input pair x,y (0-based), default 0,0")
    rand.add_argument("--grid", type=_parse_grid, help="start:stop:steps")
    rand.add_argument("--out", help="CSV output path (default stdout)")
    rand.add_argument("--compare", choices=list(_EXPRESSIONS))
    rand.add_argument("--seed", type=int, default=0,
                      help="see-saw seed for expressions without a closed form")
    command("gram-demo", cmd_gram_demo, "Gram-matrix SDP demonstration")

    # After every argument exists: set_defaults only reaches declared ones.
    defaults = defaults or {}
    declared = {a.dest for p in sub.choices.values() for a in p._actions}
    unknown = sorted(set(defaults) - declared)
    if unknown:
        raise BellboundError(f"unknown option(s) in config: {', '.join(unknown)}")
    for subparser in sub.choices.values():
        subparser.set_defaults(**defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_read_config(args.config)).parse_args(argv)
        return args.run(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (BellboundError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
