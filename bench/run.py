"""Benchmark entry point for bellbound.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/bellbound``.  The
seed is turned into inputs here; each measurement then runs in a fresh
``bench/worker.py`` process that receives only those inputs, one process
at a time, with the BLAS and bellbound thread variables removed from its
environment so that the library runs as shipped.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end
metrics named in BENCHMARK.json.  ``--trace 1`` prints the per-layer
metrics of a traced run of a fixed number of operations
(``workloads.TRACE_OPS``), so that its totals describe the same work on
every commit; it does not use ``--seconds``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record with the host,
versions, BLAS threads and raw samples is written to ``.bench_out/``.
See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402

# Removed from the worker's environment: the benchmark measures the
# library with the thread counts it picks for itself.
CLEARED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BELLBOUND_THREADS")
# Set-ups timed per untraced run; setup_s is their median.
SETUP_SAMPLES = 5
# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
WORKER_GRACE_S = 120.0


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONHOME", None)
    return env


def _worker(args: list[str], result: str, timeout: float) -> tuple[dict, float]:
    """Start one worker; return its result and the monotonic time it started."""
    if os.path.exists(result):
        os.remove(result)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--result", result, *args],
        env=_child_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not os.path.exists(result):
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    with open(result) as fh:
        return json.load(fh), started


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  The tail is floored at the median: with
    fewer than 2 * TAIL_BEYOND + 1 samples no percentile above the median
    has enough samples beyond it, and the median is reported."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1
    if rank < (n - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[rank], 100.0 * (rank + 1) / n


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _stamp(result: dict) -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        **result["versions"],
        "openblas_threads": result["blas_threads"],
        "cleared_env": list(CLEARED_ENV),
    }


def run_untraced(name: str, inputs: str, seconds: float, tag: str):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe, started = _worker(
            ["--workload", name, "--inputs", inputs, "--setup-only"],
            os.path.join(OUT_DIR, f"{tag}.setup.json"),
            WORKER_GRACE_S,
        )
        setups.append(probe["ready"] - started)
    result, started = _worker(
        ["--workload", name, "--inputs", inputs, "--seconds", str(seconds)],
        os.path.join(OUT_DIR, f"{tag}.worker.json"),
        seconds + WORKER_GRACE_S,
    )
    setups.append(result["ready"] - started)
    latencies = result["latencies_ms"]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": result["items"] / result["wall_s"],
        "item_p50_ms": statistics.median(latencies),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_samples_s": setups,
        "latency_samples": len(latencies),
        "tail_percentile": tail_pct,
        "items": result["items"],
        "wall_s": result["wall_s"],
    }
    return metrics, notes, [result]


def run_traced(name: str, inputs: str, ops: int, tag: str):
    """Traced pass over ``ops`` operations, then the same operations untraced."""
    traced, _ = _worker(
        ["--workload", name, "--inputs", inputs, "--max-ops", str(ops), "--trace"],
        os.path.join(OUT_DIR, f"{tag}.worker.json"),
        WORKER_GRACE_S,
    )
    plain, _ = _worker(
        ["--workload", name, "--inputs", inputs, "--max-ops", str(ops)],
        os.path.join(OUT_DIR, f"{tag}.replay.json"),
        WORKER_GRACE_S,
    )
    attempted = traced["attempted"] + plain["attempted"]
    failed = traced["failed"] + plain["failed"]
    metrics = dict(traced["layers"])
    metrics.update({
        "cli.csv.bytes": traced["counters"].get("cli.csv.bytes", 0),
        "proc.cpu_s": traced["cpu_s"],
        "proc.cpu_per_wall": traced["cpu_s"] / traced["wall_s"],
        "proc.threads_max": traced["threads_max"],
        "blas.numpy_threads": traced["blas_threads"]["numpy"],
        "blas.scipy_threads": traced["blas_threads"]["scipy"],
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
        "failed_frac": failed / attempted,
    })
    notes = {"traced_wall_s": traced["wall_s"], "untraced_wall_s": plain["wall_s"],
             "operations": ops}
    return metrics, notes, [traced, plain]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bellbound", "__init__.py")):
        print(f"no bellbound sources under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = os.path.join(OUT_DIR, f"{tag}.inputs.json")
    with open(inputs, "w") as fh:
        json.dump(workloads.generate(args.workload, args.seed), fh)

    if args.trace:
        values, notes, results = run_traced(
            args.workload, inputs, workloads.TRACE_OPS[args.workload], tag)
    else:
        values, notes, results = run_untraced(args.workload, inputs, args.seconds, tag)
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    stamp = _stamp(results[0])
    errors = [e for r in results for e in r["errors"]]
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "stamp": stamp, "metrics": metrics, "notes": notes,
                   "attempted": attempted, "failed": failed, "errors": errors}, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"  notes {json.dumps(notes)}")
    for error in errors:
        print(f"  failure: {error}")
    print("env " + json.dumps(stamp))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
