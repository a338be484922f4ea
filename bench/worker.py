"""One benchmark process: set up, run one workload in a closed loop, report.

``bench/run.py`` starts this file once per workload run (and a few more
times with ``--setup-only`` to measure set-up repeatedly).  The last line of
standard output is one JSON object.

The loop runs whole rounds of the workload until ``--seconds`` have passed,
so every run sees the op classes in the same proportions.  Each op's inputs
are built and its check is run outside the timed region; an op that raises,
or whose check fails, is counted as failed and the loop goes on.

With ``--trace 1`` the run is split in two passes over the same op list: an
untraced pass for half the time, then a traced pass over exactly the ops of
the first.  The per-layer figures come from the traced pass, the per-class
latencies from the untraced one, and their ratio gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("scan", "solve", "quadrature")  # the keys of workloads.WORKLOADS


@dataclass
class OpRecord:
    op_class: str
    latency: float  # seconds inside the timed call, also when it raised
    ok: bool
    error: str = ""


def run_one(op, seed, rnd, slot, memo, tracer=None, op_id=0) -> OpRecord:
    """Build inputs, time the call, check the result; never raises."""
    try:
        inputs = op.make(seed, rnd, slot)
    except Exception as exc:  # a failed op is counted, not fatal
        return OpRecord(op.name, 0.0, False, f"make: {exc!r}")
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run(inputs)
        else:
            with tracer.op(op_id, op.name):
                result = op.run(inputs)
    except Exception as exc:
        return OpRecord(op.name, time.perf_counter() - start, False, f"run: {exc!r}")
    latency = time.perf_counter() - start
    try:
        op.check(inputs, result, memo)
    except Exception as exc:
        return OpRecord(op.name, latency, False, f"check: {exc!r}")
    return OpRecord(op.name, latency, True)


def run_rounds(workload, seed, seconds=None, rounds=None, tracer=None, memo=None):
    """Whole rounds until ``seconds`` of wall time have passed, or exactly
    ``rounds`` rounds.  Round 0 is the warm-up round and is never timed here."""
    memo = {} if memo is None else memo
    records: list[OpRecord] = []
    start = time.perf_counter()
    rnd = 0
    while (rnd < rounds) if rounds is not None else (rnd == 0 or time.perf_counter() - start < seconds):
        rnd += 1
        for slot, op in enumerate(workload.round):
            records.append(run_one(op, seed, rnd, slot, memo, tracer, op_id=len(records)))
    return records, rnd


def tail(latencies) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(records) -> tuple[dict, dict]:
    """The end-to-end metrics of one pass (all but ``setup_s``) and details."""
    attempted = len(records)
    passed = [r.latency for r in records if r.ok]
    busy = sum(r.latency for r in records)
    tail_s, tail_pct = tail(passed) if passed else (0.0, 0.0)
    metrics = {
        "ops_per_s": len(passed) / busy if busy else 0.0,
        "op_p50_s": statistics.median(passed) if passed else 0.0,
        "op_tail_s": tail_s,
        "pass_frac": len(passed) / attempted,
    }
    detail = {
        "samples": len(passed),
        "op_tail_percentile": tail_pct,
        "timed_wall_s": busy,
    }
    return metrics, detail


def class_p50(records) -> dict[str, float]:
    by_class: dict[str, list[float]] = {}
    for r in records:
        if r.ok:
            by_class.setdefault(r.op_class, []).append(r.latency)
    return {c: statistics.median(v) for c, v in by_class.items()}


def import_qpwave():
    """Import qpwave from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qpwave" / "__init__.py").is_file():
        raise SystemExit(f"qpwave sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qpwave

    if Path(qpwave.__file__).resolve().parent != (SRC / "qpwave").resolve():
        raise SystemExit(f"imported qpwave from {qpwave.__file__}, not from {SRC}")
    return qpwave


def warm_up(workload, seed) -> list[str]:
    """One untimed op per op class, with round-0 inputs; returns failures."""
    errors = []
    memo: dict = {}
    for slot, op in enumerate(workload.classes()):
        rec = run_one(op, seed, 0, slot, memo)
        if not rec.ok:
            errors.append(f"{op.name}: {rec.error}")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", type=Path, default=None)
    args = ap.parse_args(argv)

    qpwave = import_qpwave()
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    warm_errors = warm_up(workload, args.seed)
    setup_s = time.time() - args.spawned_at
    out = {"setup_s": setup_s, "warm_up_errors": warm_errors}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    memo: dict = {}
    seconds = args.seconds / 2 if args.trace else args.seconds
    records, rounds = run_rounds(workload, args.seed, seconds=seconds, memo=memo)
    metrics, detail = end_to_end(records)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail.update(
        rounds=rounds,
        numpy=np.__version__,
        qpwave=qpwave.__version__,
        truncation_warnings=memo.get("truncation_warnings", 0),
        failures=[f"{r.op_class}: {r.error}" for r in records if not r.ok][:10],
        class_p50_s=class_p50(records),
    )
    out.update(metrics=metrics, detail=detail, missing={})

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = run_rounds(workload, args.seed, rounds=rounds, tracer=tracer, memo={})
        finally:
            tracer.uninstall()
        layers, missing = tracing.layer_metrics(tracer)
        untraced_busy = sum(r.latency for r in records)
        layers["trace.overhead_frac"] = sum(r.latency for r in traced) / untraced_busy - 1.0
        for name, wl in workloads.WORKLOADS.items():
            p50 = detail["class_p50_s"] if name == args.workload else {}
            for op in wl.classes():
                layers[f"{name}.{op.name}.p50_s"] = p50.get(op.name, 0.0)
        records += traced
        out["layers"] = layers
        out["missing"] = missing
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            tracing.write_spans(tracer, args.out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
            detail["spans"] = len(tracer.spans)

    out["attempted"] = len(records)
    out["failed"] = sum(1 for r in records if not r.ok)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
