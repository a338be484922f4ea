"""Outside-in tracing of qpwave for the benchmark's traced run.

Timing wrappers are installed from the benchmark's own files by rebinding
every name under which a qpwave module looks a function up, and removed
again afterwards; nothing in ``src/`` is edited.  Each call of a wrapped
function made inside a timed op (``Tracer.op``) records a span (name, start,
end, parent span, op id) in memory; calls outside one, such as the
benchmark's own input building and result checks, are passed straight
through and leave neither a span nor a counter.
A span's self time is its duration minus the durations of its child spans;
since one thread runs everything, children never overlap, so the covered
part of a span is the sum of its children.

Counters are derived from the arguments and results of the wrapped calls.
Per-element helpers (``LatticeSpec.check_index``, ``TrigPoly.__init__``) are
deliberately not wrapped: their call counts would dominate the overhead.
If a target no longer exists after a refactor, the metrics that depend on it
are reported as 0 and listed under ``missing`` with the reason.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "qpwave"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# -- counters derived from wrapped calls ----------------------------------------------


def _count_phi1(c, args, kwargs, result, dur):
    c["kernels.phi1.elements"] += np.size(_arg(args, kwargs, 0, "z"))


def _count_group_sum(c, args, kwargs, result, dur):
    c["kernels.group_sum.rows"] += len(_arg(args, kwargs, 0, "idx"))


def _count_multiply(c, args, kwargs, result, dur):
    f, g = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g")
    c["trigpoly.multiply.pairs"] += len(f) * len(g)
    c["trigpoly.multiply.out"] += len(result)


def _count_from_arrays(c, args, kwargs, result, dur):
    # the classmethod's function receives the class first
    c["trigpoly.TrigPoly.from_arrays.rows"] += len(_arg(args, kwargs, 2, "idx"))


def _count_evaluate(c, args, kwargs, result, dur):
    poly, xs = args[0], _arg(args, kwargs, 1, "xs")
    c["trigpoly.TrigPoly.evaluate.points"] += len(poly) * np.size(xs)


def _count_flow(prefix):
    def count(c, args, kwargs, result, dur):
        cfg = _arg(args, kwargs, 1, "cfg")
        sweeps = sum(r.picard_iters for r in result.trace)
        h = int(cfg.trunc_height)
        c[f"{prefix}.steps"] += len(result.trace)
        c[f"{prefix}.sweeps"] += sweeps
        c[f"{prefix}.sweeps.h{h}"] += sweeps
        c[f"{prefix}.busy.h{h}"] += dur

    return count


def _name_global(args, kwargs):
    first = list(_arg(args, kwargs, 0, "polys"))[0]
    mode = "exact" if first.spec.exact else "float"
    return f"meannorms.global_product_norm_sq.{mode}"


# (span name, "module:attribute" of the original, counter, per-call namer)
TARGETS = (
    ("kernels.phi1", "kernels:phi1", _count_phi1, None),
    ("kernels.group_sum", "kernels:group_sum", _count_group_sum, None),
    ("meannorms.windowed_product_norm_sq", "meannorms:windowed_product_norm_sq", None, None),
    ("meannorms.tuple_fold", "meannorms:_fold_tuple_data", None, None),
    ("meannorms.global_product_norm_sq", "meannorms:global_product_norm_sq", None, _name_global),
    ("meannorms.lp_norm_numeric", "meannorms:lp_norm_numeric", None, None),
    ("nls.first_picard_iterate", "nls:first_picard_iterate", None, None),
    ("nls.solve", "nls:solve", _count_flow("nls"), None),
    ("kdv.kdv_solve", "kdv:kdv_solve", _count_flow("kdv"), None),
    ("evolution.phase_rate_keys", "evolution:DispersionSymbol.phase_rate_keys", None, None),
    ("evolution.propagate", "evolution:propagate", None, None),
    ("trigpoly.extremizer", "trigpoly:extremizer", None, None),
    ("trigpoly.multiply", "trigpoly:multiply", _count_multiply, None),
    ("trigpoly.TrigPoly.from_arrays", "trigpoly:TrigPoly.from_arrays", _count_from_arrays, None),
    ("trigpoly.TrigPoly.evaluate", "trigpoly:TrigPoly.evaluate", _count_evaluate, None),
    ("trigpoly.project_ball", "trigpoly:project_ball", None, None),
    ("trigpoly.sobolev_norm", "trigpoly:sobolev_norm", None, None),
    ("lattice.shell_indices", "lattice:shell_indices", None, None),
    ("lattice.ball_indices", "lattice:ball_indices", None, None),
    ("verify.strichartz_scan", "verify:strichartz_scan", None, None),
    ("verify.averaged_norm_check", "verify:averaged_norm_check", None, None),
    ("verify.random_shell_poly", "verify:random_shell_poly", None, None),
    ("report.ScanReport.from_rows", "report:ScanReport.from_rows", None, None),
)
BUDGET_TARGET = "budget:check"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op_classes: dict[int, str] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}  # span name -> reason
        self._stack: list[int] = []
        self._op_id = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op_id])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, start: float, end: float) -> None:
        self._stack.pop()
        rec = self.spans[sid]
        rec[1], rec[2] = start, end

    @contextmanager
    def op(self, op_id: int, op_class: str):
        """Root span of one op; every span opened inside carries ``op_id``."""
        self._op_id = op_id
        self.op_classes[op_id] = op_class
        sid = self._open("op")
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, start, time.perf_counter())
            self._op_id = -1

    def wrap(self, name, fn, count=None, namer=None):
        counters = self.counters

        def wrapper(*args, **kwargs):
            if self._op_id < 0:  # outside a timed op (input building, checks)
                return fn(*args, **kwargs)
            sid = self._open(namer(args, kwargs) if namer else name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(sid, start, end)
            if count is not None:
                count(counters, args, kwargs, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_budget_check(self, fn, resolve):
        # counter only: a span per check would cost more than the check
        counters = self.counters

        def check(work, budget=None, *args, **kwargs):
            if self._op_id < 0:
                return fn(work, budget, *args, **kwargs)
            counters["budget.check.calls"] += 1
            frac = work / resolve(budget)
            if frac > counters["budget.check.max_fraction"]:
                counters["budget.check.max_fraction"] = frac
            return fn(work, budget, *args, **kwargs)

        check.__wrapped__ = fn
        return check

    # -- installing the wrappers ---------------------------------------------------------

    def install(self) -> None:
        for name, target, count, namer in TARGETS:
            try:
                owner, attr, raw = _resolve(target)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"{PACKAGE}.{target.replace(':', '.')} not found ({exc})"
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, count, namer))
                self._set(owner, attr, wrapped)
            elif isinstance(owner, type):
                self._set(owner, attr, self.wrap(name, raw, count, namer))
            else:
                self._rebind_everywhere(raw, self.wrap(name, raw, count, namer))
        try:
            _, _, check = _resolve(BUDGET_TARGET)
            _, _, resolve = _resolve("budget:resolve")
        except (ImportError, AttributeError) as exc:
            self.missing["budget.check"] = f"{PACKAGE}.budget.check not found ({exc})"
        else:
            self._rebind_everywhere(check, self._wrap_budget_check(check, resolve))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        """Rebind every module-level name in the package bound to ``original``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _resolve(target: str):
    """(owner, attribute, raw value) for ``"module:Attr.path"`` in the package."""
    modname, path = target.split(":")
    owner = importlib.import_module(f"{PACKAGE}.{modname}")
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if not isinstance(owner, type):
        return owner, attr, getattr(owner, attr)
    if attr not in owner.__dict__:
        raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
    return owner, attr, owner.__dict__[attr]


# -- from spans to per-layer figures -----------------------------------------------------


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy`` (outermost spans of that name only,
    so recursion is not counted twice) and ``self`` seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        s = out[name]
        s["calls"] += 1
        s["self"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            s["busy"] += end - start
    return dict(out)


def op_share(spans, op_classes, op_class: str, name: str) -> tuple[int, float, float]:
    """For the ops of one class: (number of ``name`` spans, their total
    duration, the total duration of the ops)."""
    calls, busy, total = 0, 0.0, 0.0
    for sname, start, end, parent, op_id in spans:
        if op_classes.get(op_id) != op_class:
            continue
        if sname == "op":
            total += end - start
        elif sname == name:
            calls += 1
            busy += end - start
    return calls, busy, total


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


SPAN_METRICS = {
    # metric name -> (span name, summary field)
    "kernels.phi1.calls": ("kernels.phi1", "calls"),
    "kernels.phi1.self_s": ("kernels.phi1", "self"),
    "meannorms.windowed_product_norm_sq.calls": ("meannorms.windowed_product_norm_sq", "calls"),
    "meannorms.windowed_product_norm_sq.self_s": ("meannorms.windowed_product_norm_sq", "self"),
    "meannorms.tuple_fold.self_s": ("meannorms.tuple_fold", "self"),
    "meannorms.global_product_norm_sq.exact.self_s": (
        "meannorms.global_product_norm_sq.exact", "self"),
    "meannorms.global_product_norm_sq.float.self_s": (
        "meannorms.global_product_norm_sq.float", "self"),
    "nls.first_picard_iterate.self_s": ("nls.first_picard_iterate", "self"),
    "evolution.phase_rate_keys.self_s": ("evolution.phase_rate_keys", "self"),
    "trigpoly.extremizer.self_s": ("trigpoly.extremizer", "self"),
    "lattice.shell_indices.self_s": ("lattice.shell_indices", "self"),
    "verify.strichartz_scan.self_s": ("verify.strichartz_scan", "self"),
    "verify.averaged_norm_check.self_s": ("verify.averaged_norm_check", "self"),
    "verify.random_shell_poly.self_s": ("verify.random_shell_poly", "self"),
    "report.ScanReport.from_rows.busy_s": ("report.ScanReport.from_rows", "busy"),
    "nls.solve.busy_s": ("nls.solve", "busy"),
    "kdv.kdv_solve.busy_s": ("kdv.kdv_solve", "busy"),
    "trigpoly.multiply.self_s": ("trigpoly.multiply", "self"),
    "trigpoly.TrigPoly.from_arrays.self_s": ("trigpoly.TrigPoly.from_arrays", "self"),
    "trigpoly.project_ball.self_s": ("trigpoly.project_ball", "self"),
    "trigpoly.sobolev_norm.self_s": ("trigpoly.sobolev_norm", "self"),
    "evolution.propagate.calls": ("evolution.propagate", "calls"),
    "evolution.propagate.self_s": ("evolution.propagate", "self"),
    "kernels.group_sum.self_s": ("kernels.group_sum", "self"),
    "lattice.ball_indices.self_s": ("lattice.ball_indices", "self"),
    "trigpoly.TrigPoly.evaluate.self_s": ("trigpoly.TrigPoly.evaluate", "self"),
    "meannorms.lp_norm_numeric.self_s": ("meannorms.lp_norm_numeric", "self"),
}

COUNTER_METRICS = (
    "kernels.phi1.elements",
    "kernels.group_sum.rows",
    "trigpoly.multiply.pairs",
    "trigpoly.TrigPoly.from_arrays.rows",
    "trigpoly.TrigPoly.evaluate.points",
    "nls.steps",
    "budget.check.calls",
    "budget.check.max_fraction",
)

# metric-name prefix -> the wrapped name every metric under it depends on
_DEPENDS = (
    ("kernels.phi1.", "kernels.phi1"),
    ("kernels.group_sum.", "kernels.group_sum"),
    ("meannorms.global_product_norm_sq.", "meannorms.global_product_norm_sq"),
    ("trigpoly.multiply.", "trigpoly.multiply"),
    ("trigpoly.TrigPoly.from_arrays.", "trigpoly.TrigPoly.from_arrays"),
    ("trigpoly.TrigPoly.evaluate.", "trigpoly.TrigPoly.evaluate"),
    ("nls.s_per_rhs_eval", "nls.solve"),
    ("nls.rhs_evals", "nls.solve"),
    ("nls.steps", "nls.solve"),
    ("nls.sweeps_per_step", "nls.solve"),
    ("kdv.", "kdv.kdv_solve"),
    ("budget.check.", "budget.check"),
    ("scan.strichartz.phi1_", "kernels.phi1"),
)


def _dependency(metric: str) -> str | None:
    if metric in SPAN_METRICS:
        span = SPAN_METRICS[metric][0]
        return span.removesuffix(".exact").removesuffix(".float")
    return next((span for prefix, span in _DEPENDS if metric.startswith(prefix)), None)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer figures of one traced pass, and the reason for each one
    whose wrapped function was not found."""
    s = summarize(tracer.spans)
    c = tracer.counters
    out = {m: float(s.get(span, {}).get(field, 0)) for m, (span, field) in SPAN_METRICS.items()}
    out.update({m: float(c.get(m, 0.0)) for m in COUNTER_METRICS})

    out["nls.rhs_evals"] = 4 * c.get("nls.sweeps", 0.0)
    out["nls.sweeps_per_step"] = _ratio(c.get("nls.sweeps", 0.0), c.get("nls.steps", 0.0))
    for h in (8, 14):
        out[f"nls.s_per_rhs_eval.h{h}"] = _ratio(
            c.get(f"nls.busy.h{h}", 0.0), 4 * c.get(f"nls.sweeps.h{h}", 0.0)
        )
    out["kdv.rhs_evals"] = 4 * c.get("kdv.sweeps", 0.0)
    out["kdv.s_per_rhs_eval"] = _ratio(out["kdv.kdv_solve.busy_s"], out["kdv.rhs_evals"])
    out["trigpoly.multiply.out_per_pair"] = _ratio(
        c.get("trigpoly.multiply.out", 0.0), c.get("trigpoly.multiply.pairs", 0.0)
    )

    n_ops = sum(1 for cls in tracer.op_classes.values() if cls == "strichartz")
    calls, busy, total = op_share(tracer.spans, tracer.op_classes, "strichartz", "kernels.phi1")
    out["scan.strichartz.phi1_calls_per_op"] = _ratio(calls, n_ops)
    out["scan.strichartz.phi1_frac"] = _ratio(busy, total)

    op = s.get("op", {"busy": 0.0, "self": 0.0})
    out["trace.unattributed_frac"] = _ratio(op["self"], op["busy"])

    missing = {}
    for metric in out:
        dep = _dependency(metric)
        if dep in tracer.missing:
            missing[metric] = tracer.missing[dep]
            out[metric] = 0.0
    return out, missing


def write_spans(tracer: Tracer, path) -> None:
    """One CSV line per span; times in seconds from the first span's start."""
    t0 = min((sp[1] for sp in tracer.spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("id,name,start_s,end_s,parent,op_id,op_class\n")
        for i, (name, start, end, parent, op_id) in enumerate(tracer.spans):
            cls = tracer.op_classes.get(op_id, "")
            fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{op_id},{cls}\n")
