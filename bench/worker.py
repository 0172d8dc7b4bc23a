"""One benchmark process: import bellbound, build the inputs, run operations.

Started by ``run.py`` in a fresh interpreter with a controlled environment.
Writes one JSON result file and exits.  Usage (normally not typed by hand):

    python3 bench/worker.py --workload NAME --inputs FILE --result FILE \
        [--setup-only] [--seconds S | --max-ops N] [--trace]

After the measured loop, outside its timing, the workload's final check
compares an output against the library.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _openblas_threads() -> dict[str, int]:
    """Effective thread count of the OpenBLAS copies bundled with numpy and scipy."""
    getters = {
        "numpy": ("libscipy_openblas64_", "scipy_openblas_get_num_threads64_"),
        "scipy": ("libscipy_openblas-", "scipy_openblas_get_num_threads"),
    }
    paths = {}
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            for owner, (stem, _) in getters.items():
                if stem in os.path.basename(path):
                    paths.setdefault(owner, path)
    out = {}
    for owner, (_, symbol) in getters.items():
        out[owner] = -1
        if owner in paths:
            getter = getattr(ctypes.CDLL(paths[owner]), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out[owner] = int(getter())
    return out


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--max-ops", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import bellbound
    import numpy
    import scipy

    expected = os.path.join(ROOT, "src", "bellbound")
    if os.path.dirname(os.path.abspath(bellbound.__file__)) != expected:
        print(f"bellbound imported from {bellbound.__file__}, not {expected}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    import workloads

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    counters: dict = {}
    out_dir = os.path.dirname(os.path.abspath(args.result))
    workload = workloads.WORKLOAD_CLASSES[args.workload](inputs, out_dir, counters)
    ready = time.monotonic()

    result = {"ready": ready}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    latencies_ms: list[float] = []
    items = attempted = failed = 0
    errors: list[str] = []
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    deadline = start + args.seconds if args.seconds is not None else None
    for op in workload.ops():
        if args.max_ops is not None and attempted >= args.max_ops:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        attempted += 1
        t0 = time.perf_counter()
        try:
            done = op.run()
        except Exception as exc:  # the loop must go on; every failure is counted
            failed += 1
            if len(errors) < 5:
                errors.append("".join(traceback.format_exception_only(exc)).strip())
            done = 0
        if op.timed:
            latencies_ms.append(1e3 * (time.perf_counter() - t0))
        items += done
    wall = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0

    if tracer is not None:
        tracer.uninstall()
    attempted += 1
    try:
        workload.final_check()
    except Exception as exc:  # counted like any other failed operation
        failed += 1
        errors.append("".join(traceback.format_exception_only(exc)).strip())

    result.update(
        wall_s=wall,
        cpu_s=cpu_s,
        items=items,
        attempted=attempted,
        failed=failed,
        errors=errors,
        latencies_ms=latencies_ms,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        blas_threads=_openblas_threads(),
        counters=counters,
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    if tracer is not None:
        import spans

        result["layers"] = spans.layer_metrics(tracer.spans)
        result["threads_max"] = tracer.threads_max
        tracer.write(os.path.splitext(args.result)[0] + ".spans.jsonl")
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
