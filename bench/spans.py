"""In-memory span tracer used by the benchmark's traced run.

The tracer wraps public functions of the bellbound package from outside:
every module attribute bound to the original function object is replaced,
because callers look functions up where they were imported (``npa``
imports ``solve`` by name, so ``bellbound.npa.solve`` must be patched as
well as ``bellbound.sdp.solve``).  Each thread keeps its own span stack;
tasks submitted to the CLI's thread pool carry the submitting thread's
current span as their parent, so sweep points attach to their
``cli.main`` span.

Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

# (span name, module, function) of every traced public entry point.
TRACED = (
    ("sdp.solve", "bellbound.sdp", "solve"),
    ("npa.guess", "bellbound.npa", "max_guessing_probability"),
    ("npa.tsirelson", "bellbound.npa", "tsirelson_bound"),
    ("npa.curve", "bellbound.npa", "min_entropy_curve"),
    ("cli.main", "bellbound.cli", "main"),
    ("bell.max_violation", "bellbound.bell", "max_violation"),
    ("bell.seesaw", "bellbound.bell", "seesaw_max_violation"),
    ("bell.tight_bound", "bellbound.bell", "tight_bound"),
    ("bell.optimal_measurements", "bellbound.bell", "optimal_measurements"),
    ("bell.tightness_check", "bellbound.bell", "tightness_check"),
    ("bell.violation_threshold", "bellbound.bell", "violation_threshold"),
    ("states.correlation_data", "bellbound.states", "correlation_data"),
)

SOLVE_STATUSES = ("optimal", "max_iterations", "numerical_failure")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)


def _solve_attrs(args, kwargs, solution) -> dict:
    """Computed solver counts read from the SdpProblem/SdpSolution pair."""
    problem = args[0] if args else kwargs["problem"]
    scale = 1.0 + abs(solution.primal_obj) + abs(solution.dual_obj)
    return {
        "n": problem.n,
        "m": len(problem.constraints),
        "iterations": solution.iterations,
        "status": solution.status,
        "rel_gap": abs(solution.gap) / scale,
    }


def _thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class Tracer:
    """Collects spans from patched functions; ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.threads_max = _thread_count()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def run(self, name, fn, args=(), kwargs=None, parent=None, attrs=None):
        """Call ``fn`` inside a span; ``parent`` overrides the thread's stack."""
        kwargs = kwargs or {}
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if not ok:
                extra = {"error": True}
            else:
                extra = attrs(args, kwargs, result) if attrs else {}
            if name in ("sdp.solve", "cli.pool.task", "cli.main"):
                self.threads_max = max(self.threads_max, _thread_count())
            self.spans.append(
                Span(span_id, parent, name, threading.get_ident(), start, end, extra)
            )

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(name, fn, args, kwargs, attrs=attrs)

        return traced

    def _replace(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("bellbound") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Patch every binding of the traced functions and the CLI pool."""
        import importlib

        for name, mod_name, func in TRACED:
            original = getattr(importlib.import_module(mod_name), func)
            attrs = _solve_attrs if name == "sdp.solve" else None
            self._replace(original, self.wrap(name, original, attrs))
        cli = importlib.import_module("bellbound.cli")
        self._patched.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = self._pool_class()

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Runs each task in a ``cli.pool.task`` span parented to the
            span that was current in the submitting thread."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                return super().submit(
                    tracer.run, "cli.pool.task", fn, args, kwargs, parent
                )

        return TracedPool

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover.

    Children running in parallel on pool threads overlap, so their
    intervals are merged before subtraction."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, ())
            if min(b, s.end) > max(a, s.start)
        ]
        out[s.id] = (s.end - s.start) - _union_length(clipped)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times derived from one run's spans."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    names = {s.id: s.name for s in spans}

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    def wall_s(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def solves_under(name):
        return sum(
            1 for s in by_name.get("sdp.solve", ()) if names.get(s.parent) == name
        )

    solves = [s for s in by_name.get("sdp.solve", ()) if "iterations" in s.attrs]
    iterations = sum(s.attrs["iterations"] for s in solves)
    status_counts = {k: 0 for k in SOLVE_STATUSES}
    for s in solves:
        status_counts[s.attrs["status"]] = status_counts.get(s.attrs["status"], 0) + 1
    tsirelson_spans = by_name.get("npa.tsirelson", ())
    solved_ids = {s.parent for s in by_name.get("sdp.solve", ())}
    tsirelson_hits = sum(1 for s in tsirelson_spans if s.id not in solved_ids)

    m = {
        "sdp.solve.calls": calls("sdp.solve"),
        "sdp.solve.self_s": self_s("sdp.solve"),
        "sdp.solve.iterations": iterations,
        "sdp.solve.iters_per_call": _ratio(iterations, len(solves)),
        "sdp.solve.ms_per_iter": _ratio(1e3 * self_s("sdp.solve"), iterations),
        "sdp.solve.optimal_ratio": _ratio(status_counts["optimal"], len(solves)),
        "sdp.solve.rel_gap_max": max((s.attrs["rel_gap"] for s in solves), default=0.0),
        "sdp.solve.n_mean": _ratio(sum(s.attrs["n"] for s in solves), len(solves)),
        "sdp.solve.m_mean": _ratio(sum(s.attrs["m"] for s in solves), len(solves)),
        "sdp.schur.chol_flops_computed": sum(
            s.attrs["iterations"] * s.attrs["m"] ** 3 / 3.0 for s in solves
        ),
        "sdp.schur.bytes_computed": sum(
            s.attrs["iterations"] * 8.0 * s.attrs["m"] ** 2 for s in solves
        ),
        "npa.guess.calls": calls("npa.guess"),
        "npa.guess.self_s": self_s("npa.guess"),
        "npa.guess.solves_per_call": _ratio(solves_under("npa.guess"), calls("npa.guess")),
        "npa.tsirelson.calls": calls("npa.tsirelson"),
        "npa.tsirelson.solves": solves_under("npa.tsirelson"),
        "npa.tsirelson.hit_ratio": _ratio(tsirelson_hits, len(tsirelson_spans)),
        "npa.tsirelson.self_s": self_s("npa.tsirelson"),
        "npa.curve.self_s": self_s("npa.curve"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.pool.overlap": _ratio(wall_s("cli.pool.task"), wall_s("cli.main")),
        "bell.max_violation.calls": calls("bell.max_violation"),
        "bell.max_violation.self_s": self_s("bell.max_violation"),
        "bell.seesaw.calls": calls("bell.seesaw"),
        "bell.seesaw.self_s": self_s("bell.seesaw"),
        "bell.tight_bound.self_s": self_s("bell.tight_bound"),
        "bell.optimal_measurements.self_s": self_s("bell.optimal_measurements"),
        "bell.tightness_check.self_s": self_s("bell.tightness_check"),
        "states.correlation_data.calls": calls("states.correlation_data"),
        "states.correlation_data.self_s": self_s("states.correlation_data"),
    }
    for status in SOLVE_STATUSES:
        m[f"sdp.solve.status.{status}"] = status_counts[status]
    return m
