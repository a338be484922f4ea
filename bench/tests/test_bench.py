"""Tests of the benchmark itself: span nesting, failure counting, names.

Run with ``python3 -m pytest bench/tests -q`` from the root of the repository.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_qpwave()

import qpwave  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_ops():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(0, "strichartz"):
            qpwave.strichartz_scan(
                qpwave.sqrt2_lattice(), (8, 16, 32), T=0.1, trials=1, max_support=32, seed=0
            )
        with tracer.op(1, "solve"):
            u0 = qpwave.TrigPoly(qpwave.sqrt2_lattice(), {(0, 1): 0.6, (1, -1): 0.8})
            qpwave.solve(u0, qpwave.SolverConfig(trunc_height=4, dt=1e-3, T=2e-3))
    finally:
        tracer.uninstall()
    return tracer


def test_wrappers_are_removed_after_tracing():
    before = (qpwave.meannorms.phi1, qpwave.nls.phi1, qpwave.TrigPoly.evaluate)
    _traced_ops()
    assert (qpwave.meannorms.phi1, qpwave.nls.phi1, qpwave.TrigPoly.evaluate) == before
    assert not hasattr(qpwave.budget.check, "__wrapped__")


def test_children_nest_inside_parents_and_self_within_busy():
    tracer = _traced_ops()
    spans = tracer.spans
    assert len(spans) > 100
    for name, start, end, parent, op_id in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, p_op = spans[parent]
            assert p_start <= start and end <= p_end
            assert op_id == p_op
    summary = tracing.summarize(spans)
    for name, s in summary.items():
        assert -1e-9 <= s["self"] <= s["busy"] + 1e-9, name
    # the root spans cover everything recorded inside them
    assert summary["op"]["busy"] >= summary["verify.strichartz_scan"]["busy"]
    assert summary["kernels.phi1"]["calls"] > 0
    assert tracer.counters["nls.sweeps"] > 0


def test_calls_outside_an_op_leave_no_span_and_no_counter():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        f = qpwave.TrigPoly(qpwave.sqrt2_lattice(), {(0, 1): 0.6, (1, -1): 0.8})
        qpwave.lp_norm_exact(f, 4)  # multiply, from_arrays and budget.check underneath
        qpwave.lp_norm_numeric(f, 4)
        assert not tracer.spans and not tracer.counters
        with tracer.op(0, "quadrature"):
            qpwave.lp_norm_numeric(f, 4)
    finally:
        tracer.uninstall()
    assert {sp[4] for sp in tracer.spans} == {0}
    assert tracer.counters["trigpoly.TrigPoly.evaluate.points"] > 0


def test_missing_target_is_reported_not_fatal(monkeypatch):
    targets = tuple(t for t in tracing.TARGETS if t[0] != "kernels.phi1") + (
        ("kernels.phi1", "kernels:phi1_renamed", None, None),
    )
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    values, missing = tracing.layer_metrics(tracer)
    assert "kernels.phi1.calls" in missing and values["kernels.phi1.calls"] == 0.0
    assert "scan.strichartz.phi1_frac" in missing
    assert "nls.solve.busy_s" not in missing


def _raise_in_round_1(seed, rnd, slot):
    return rnd == 1


def _run_maybe_raise(raise_now):
    if raise_now:
        raise qpwave.BudgetError("made to raise")
    return 1.0


def _check_positive(_, result, memo):
    if result <= 0:
        raise workloads.CheckFailed("not positive")


def test_failed_op_is_counted_and_the_run_continues():
    flaky = workloads.OpClass("flaky", _raise_in_round_1, _run_maybe_raise, _check_positive)
    bad_check = workloads.OpClass(
        "bad_check", lambda s, r, k: None, lambda _: -1.0, _check_positive
    )
    good = workloads.OpClass("good", lambda s, r, k: None, lambda _: 2.0, _check_positive)
    wl = workloads.Workload("fake", (flaky, bad_check, good))
    records, rounds = worker.run_rounds(wl, seed=0, rounds=3)
    assert rounds == 3 and len(records) == 9
    failed = [r for r in records if not r.ok]
    assert [r.op_class for r in failed] == ["flaky", "bad_check", "bad_check", "bad_check"]
    assert "BudgetError" in failed[0].error
    metrics, _ = worker.end_to_end(records)
    assert metrics["pass_frac"] == pytest.approx(5 / 9)


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]
    value, pct = worker.tail(xs)
    assert value == 90.0 and pct == 90.0
    assert sum(x > value for x in xs) == 10
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_workload_names_match():
    assert set(worker.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [w["name"] for w in _spec()["workloads"]] == list(worker.WORKLOAD_NAMES)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_reported_names_are_declared(trace):
    proc = _run("--workload", "quadrature", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"] for m in _spec()["end_to_end" if trace == "0" else "per_layer"]}
    assert set(result["metrics"]) == declared
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
