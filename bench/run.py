"""qpwave benchmark: one workload, one seed, one closed-loop client.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads: ``scan``, ``solve``, ``quadrature`` (see ``bench/workloads.py``
and ``bench/NOTES.md``).  With ``--trace 0`` the result carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the details behind the figures.  A copy of both
goes to ``.bench_out/`` in the checkout, together with the spans of a traced
run.

Each run starts fresh processes: ``SETUP_REPEATS - 1`` that only set up,
then one that sets up and runs the workload.  ``setup_s`` is the median of
all of their set-up times, ``peak_rss_mb`` the peak resident memory of the
workload process.  BLAS is pinned to one thread and the string hash seed
to 0 in every process.
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
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or ``unknown`` where git or the repository is absent."""
    if not (root / ".git").exists():  # not the HEAD of an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def spawn(args, env, deadline, setup_only=False) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(OUT_DIR),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=worker.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "qpwave" / "__init__.py").is_file():
        print(f"error: no qpwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every process

    try:
        setups = [spawn(args, env, deadline, setup_only=True) for _ in range(SETUP_REPEATS - 1)]
        result = spawn(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setup_times = [s["setup_s"] for s in setups] + [result["setup_s"]]

    if args.trace:
        values, units = result["layers"], declared_units("per_layer")
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setup_times))
        units = declared_units("end_to_end")
    if set(values) != set(units):
        print(f"error: reported {sorted(values)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 3
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    env_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["detail"]["numpy"],
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "python_hash_seed": env["PYTHONHASHSEED"],
        "git_commit": git_commit(ROOT),
        "machine": platform.machine(),
    }
    detail = dict(
        result["detail"],
        setup_s_each=setup_times,
        warm_up_errors=result["warm_up_errors"],
        missing=result["missing"],
    )
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env_record, "detail": detail, "result": final}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"env": env_record, "detail": detail}, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
