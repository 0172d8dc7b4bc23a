"""Smoke test of the benchmark harness (a few seconds).

    PYTHONPATH=src python -m pytest bench/test_bench_harness.py -q

Checks that one short run of each mode prints every metric that
BENCHMARK.json declares, with its unit, and that the tracer attaches
sweep points computed on the CLI's thread pool to their ``cli.main`` span.
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(trace, monkeypatch, capsys):
    # A short traced run: a few operations instead of the full fixed count.
    monkeypatch.setitem(run.workloads.TRACE_OPS, "state-scan", 20)
    code = run.main(["--workload", "state-scan", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_pool_points_attach_to_cli_main(tmp_path):
    from bellbound import cli, npa

    original = npa.solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["randomness", "--family", "werner", "--expr", "chsh",
                         "--level", "1", "--grid", "0.9:0.95:2",
                         "--out", str(tmp_path / "curve.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert npa.solve is original

    by_id = {s.id: s for s in tracer.spans}
    curves = [s for s in tracer.spans if s.name == "npa.curve"]
    assert len(curves) == 2
    for curve in curves:
        task = by_id[curve.parent]
        assert task.name == "cli.pool.task"
        assert by_id[task.parent].name == "cli.main"
    solves = [s for s in tracer.spans if s.name == "sdp.solve"]
    assert solves and all({"n", "m", "iterations", "status", "rel_gap"} <= set(s.attrs)
                          for s in solves)
    layers = spans.layer_metrics(tracer.spans)
    assert layers["sdp.solve.calls"] == len(solves)
    assert layers["npa.guess.solves_per_call"] == 4
    assert layers["cli.pool.overlap"] > 0


def test_self_time_subtracts_merged_children():
    parent = spans.Span(1, None, "cli.main", 0, 0.0, 10.0)
    kids = [spans.Span(2, 1, "cli.pool.task", 1, 1.0, 5.0),
            spans.Span(3, 1, "cli.pool.task", 2, 3.0, 7.0)]
    assert spans.self_times([parent, *kids])[1] == pytest.approx(4.0)


def test_tail_has_ten_samples_beyond():
    value, percentile = run.tail([float(v) for v in range(1, 41)])
    assert value == 30.0 and percentile == 75.0
    assert run.tail([float(v) for v in range(1, 21)]) == (10.5, 50.0)
    assert run.tail([4.0, 1.0, 3.0, 2.0]) == (2.5, 50.0)
