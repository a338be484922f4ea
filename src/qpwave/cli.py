"""Command-line front end.

Exit codes: 0 success, 2 validation error (bad flags, malformed JSON),
3 work-budget exceeded, 4 scan slope outside its declared band.
Every output file embeds the fully resolved configuration, and identical
configuration plus seed reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import budget as _budget
from .errors import BudgetError, QPWaveError
from .evolution import DispersionSymbol
from .kdv import kdv_solve, mean_zero_part
from .lattice import LatticeSpec, count_in_interval, min_gap, sqrt2_lattice
from .meannorms import (
    MixedNormSpec,
    lp_norm_exact,
    lp_norm_numeric,
    mixed_norm_free,
    predicted_exponent,
)
from .nls import SolverConfig, solve
from .report import Band
from .trigpoly import TrigPoly, extremizer
from .verify import (
    averaged_norm_check,
    bilinear_scan,
    biorthogonality_check,
    picard_blowup_scan,
    strichartz_scan,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_SCAN_FAIL = 4


class _ValidationError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise _ValidationError(
            f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except OSError as e:
        raise _ValidationError(f"{path}: {e}") from e


def _parse_lattice(args) -> LatticeSpec:
    if getattr(args, "lattice", None):
        return LatticeSpec.from_dict(_load_json(args.lattice))
    omega = getattr(args, "omega", None) or "sqrt2"
    if omega == "sqrt2":
        return sqrt2_lattice()
    try:
        entries = [float(x) for x in omega.split(",")]
    except ValueError as e:
        raise _ValidationError(f"cannot parse --omega {omega!r}: {e}") from e
    if all(x == int(x) for x in entries):
        from .scalars import QScalar

        return LatticeSpec([[QScalar(int(x)) for x in entries]])
    return LatticeSpec([entries])


def _parse_C_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as e:
        raise _ValidationError(f"cannot parse C list {text!r}: {e}") from e


def _load_poly(path: str) -> TrigPoly:
    obj = _load_json(path)
    try:
        if obj.get("hermitian"):
            from .kdv import real_field_from_dict

            return real_field_from_dict(obj)
        return TrigPoly.from_dict(obj)
    except (KeyError, ValueError, TypeError) as e:
        raise _ValidationError(f"{path}: not a valid mode-sum file: {e}") from e


def _emit(report, args) -> int:
    """Write CSV/JSON outputs, print the fit line and every failed band."""
    if getattr(args, "output", None):
        report.write_csv(args.output + ".csv")
        report.write_json(args.output + ".json")
    summary = report.fit_summary()
    print(json.dumps({"scan": report.name, **summary, "config_hash": report.hash}))
    failed = [b for b in report.bands if not b.ok]
    for b in failed:
        print(
            f"FAIL {b.label}: {b.value:.4f} outside declared band [{b.lo}, {b.hi}]",
            file=sys.stderr,
        )
    return EXIT_SCAN_FAIL if failed else EXIT_OK


# -- subcommands ------------------------------------------------------------------


def _cmd_norm(args) -> int:
    f = _load_poly(args.input)
    if args.numeric:
        val = lp_norm_numeric(f, args.p, L=args.L)
    else:
        val = lp_norm_exact(f, args.p)
    print(repr(val))
    return EXIT_OK


def _cmd_mixed_norm(args) -> int:
    f = _load_poly(args.input)
    mode = "global" if args.global_mean else "window"
    mspec = MixedNormSpec(p=args.p, time_mode=mode, T=None if args.global_mean else args.T)
    print(repr(mixed_norm_free(f, DispersionSymbol(args.symbol), mspec)))
    return EXIT_OK


def _cmd_count(args) -> int:
    spec = _parse_lattice(args)
    n = count_in_interval(spec, args.C, args.interval[0], args.interval[1])
    print(n)
    return EXIT_OK


def _cmd_gaps(args) -> int:
    spec = _parse_lattice(args)
    res = min_gap(spec, args.H)
    print(
        json.dumps(
            {
                "gap": res.gap,
                "alpha": res.alpha,
                "beta": res.beta,
                "heights": [[h, g] for h, g in res.heights],
            }
        )
    )
    return EXIT_OK


def _cmd_extremizer(args) -> int:
    spec = _parse_lattice(args)
    f = extremizer(spec, args.C)
    payload = {**f.to_dict(), "config": {"C": args.C, "lattice": spec.to_dict()}}
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"C": args.C, "modes": len(f), "l2_norm": f.l2_norm()}))
    return EXIT_OK


def _solver_config(args) -> SolverConfig:
    keys = {f.name for f in dataclasses.fields(SolverConfig)}
    if args.config:
        cfg = _load_json(args.config)
        unknown = set(cfg) - keys
        if unknown:
            raise _ValidationError(f"unknown solver config keys: {sorted(unknown)}")
        try:
            return SolverConfig(**cfg)
        except (TypeError, ValueError) as e:
            raise _ValidationError(f"bad solver config: {e}") from e
    # the solver flags are named after the config fields
    return SolverConfig(**{k: getattr(args, k) for k in keys if k in args})


def _cmd_solver_run(args) -> int:
    u0 = _load_poly(args.input)
    if getattr(args, "subtract_mean", False):
        u0 = mean_zero_part(u0)
    cfg = _solver_config(args)
    res = args.solver(u0, cfg)
    if args.trace:
        res.trace.write_csv(args.trace, config=cfg.to_dict())
    if args.output:
        with open(args.output, "w") as fh:
            json.dump({**res.final.to_dict(), "config": cfg.to_dict()}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    last = res.trace.records[-1]
    print(json.dumps({"t": last.t, "mass": last.mass, "hs_norm": last.hs_norm}))
    return EXIT_OK


def _cmd_picard_scan(args) -> int:
    report = picard_blowup_scan(
        _parse_lattice(args), _parse_C_list(args.C), t=args.t, power=args.power
    )
    if args.band:
        band = Band("picard slope", report.slope, *args.band)
        report = dataclasses.replace(report, bands=(band,))
    return _emit(report, args)


def _cmd_strichartz_scan(args) -> int:
    report = strichartz_scan(
        _parse_lattice(args), _parse_C_list(args.C), T=args.T, trials=args.trials,
        seed=args.seed,
    )
    return _emit(report, args)


def _cmd_bilinear_scan(args) -> int:
    report = bilinear_scan(
        _parse_lattice(args), _parse_C_list(args.C1), args.C2, T=args.T,
        trials=args.trials, seed=args.seed,
    )
    return _emit(report, args)


def _cmd_biortho_check(args) -> int:
    rep = biorthogonality_check(args.delta, args.grid_step, bound=args.bound)
    print(
        json.dumps(
            {
                "delta": rep.delta,
                "grid_step": rep.grid_step,
                "quadruples": rep.n_quadruples,
                "max_normalized_distance": rep.max_normalized_distance,
                "bound": rep.bound,
                "ok": rep.ok,
            }
        )
    )
    return EXIT_OK if rep.ok else EXIT_SCAN_FAIL


def _cmd_averaged_check(args) -> int:
    report = averaged_norm_check(
        _parse_lattice(args), _parse_C_list(args.C), trials=args.trials, seed=args.seed,
        symbol=DispersionSymbol(args.symbol),
    )
    return _emit(report, args)


def _cmd_predict_exponent(args) -> int:
    s_star, alpha, p_critical = predicted_exponent(args.p, args.d, args.b).as_floats()
    if args.json:
        print(json.dumps({"s_star": s_star, "alpha": alpha, "p_critical": p_critical}))
    else:
        print(s_star)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def _add_lattice_args(p):
    p.add_argument("--omega", default="sqrt2",
                   help="'sqrt2' for the exact (1, sqrt 2) pair, or comma floats")
    p.add_argument("--lattice", help="JSON lattice file (overrides --omega)")


class _BandAction(argparse.Action):
    """``--band LO HI``: finite bounds with LO <= HI, else a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        lo, hi = values
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            parser.error(f"{option_string} needs finite LO <= HI, got {lo} {hi}")
        setattr(namespace, self.dest, values)


def _add_scan_io(p):
    p.add_argument("--output", help="path prefix for .csv/.json outputs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=4)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qpwave",
        description="Mean-value norms, free evolutions, truncated solvers, and "
        "exponent scans on quasi-periodic frequency lattices.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="mean L^p norm of a mode-sum file")
    p.add_argument("--p", type=int, default=4, choices=(2, 4, 6))
    p.add_argument("--input", required=True)
    p.add_argument("--numeric", action="store_true", help="quadrature instead of tuple sum")
    p.add_argument("--L", type=float, default=None)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("mixed-norm", help="space-time norm of the free evolution")
    p.add_argument("--p", type=int, default=4, choices=(2, 4, 6))
    p.add_argument("--input", required=True)
    p.add_argument("--symbol", default="schrodinger", choices=("schrodinger", "airy"))
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--global-mean", action="store_true")
    p.set_defaults(fn=_cmd_mixed_norm)

    p = sub.add_parser("count", help="shell frequencies inside an interval")
    _add_lattice_args(p)
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--interval", type=float, nargs=2, required=True)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("gaps", help="minimal frequency gaps and their decay fit")
    _add_lattice_args(p)
    p.add_argument("--H", type=int, required=True)
    p.set_defaults(fn=_cmd_gaps)

    p = sub.add_parser("extremizer", help="emit the concentration family at height C")
    _add_lattice_args(p)
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_extremizer)

    for name, solver in (("nls-run", solve), ("kdv-run", kdv_solve)):
        p = sub.add_parser(name, help=f"run the truncated {name.split('-')[0]} solver")
        p.add_argument("--input", required=True)
        p.add_argument("--config", help="solver config JSON (overrides flags)")
        p.add_argument("--trunc-height", type=float, default=16.0)
        p.add_argument("--dt", type=float, default=1e-3)
        p.add_argument("--T", type=float, default=0.1)
        if name == "nls-run":
            p.add_argument("--sign", type=int, default=1, choices=(-1, 1))
            p.add_argument("--power", type=int, default=2)
        else:
            p.add_argument("--subtract-mean", action="store_true")
        p.add_argument("--trace", help="per-step CSV trace path")
        p.add_argument("--output", help="final state JSON path")
        p.set_defaults(fn=_cmd_solver_run, solver=solver)

    p = sub.add_parser("picard-scan", help="first-iterate growth on the concentration family")
    _add_lattice_args(p)
    _add_scan_io(p)
    p.add_argument("--C", required=True, help="comma list, e.g. 8,16,32,64")
    p.add_argument("--t", type=float, default=0.01)
    p.add_argument("--power", type=int, default=2,
                   help="experimental: higher powers scan without a declared band "
                   "unless --band is given")
    p.add_argument("--band", type=float, nargs=2, default=None, action=_BandAction,
                   help="LO HI: replaces the declared slope band, at any power")
    p.set_defaults(fn=_cmd_picard_scan)

    p = sub.add_parser("strichartz-scan", help="windowed ratio growth in the shell height")
    _add_lattice_args(p)
    _add_scan_io(p)
    p.add_argument("--C", required=True)
    p.add_argument("--T", type=float, default=0.1)
    p.set_defaults(fn=_cmd_strichartz_scan)

    p = sub.add_parser("bilinear-scan", help="product-norm growth in the smaller height")
    _add_lattice_args(p)
    _add_scan_io(p)
    p.add_argument("--C1", required=True)
    p.add_argument("--C2", type=int, required=True)
    p.add_argument("--T", type=float, default=0.1)
    p.set_defaults(fn=_cmd_bilinear_scan)

    p = sub.add_parser("biortho-check", help="pairing property of near-solutions on the cubic")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=1e-3)
    p.add_argument("--bound", type=float, default=10.0)
    p.set_defaults(fn=_cmd_biortho_check)

    p = sub.add_parser("averaged-check", help="global-mean ratio flatness in the height")
    _add_lattice_args(p)
    _add_scan_io(p)
    p.add_argument("--C", required=True)
    p.add_argument("--symbol", default="schrodinger", choices=("schrodinger", "airy"))
    p.set_defaults(fn=_cmd_averaged_check)

    p = sub.add_parser("predict-exponent", help="closed-form regularity threshold")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_predict_exponent)

    return ap


def main(argv=None) -> int:
    # QPWAVE_BUDGET holds for this command only; an in-process caller keeps its own
    saved = _budget.get_default_budget()
    try:
        return _main(argv)
    finally:
        _budget.set_default_budget(saved)


def _main(argv) -> int:
    env_budget = os.environ.get("QPWAVE_BUDGET")
    if env_budget:
        try:
            _budget.set_default_budget(int(env_budget))
        except ValueError:
            print(f"bad QPWAVE_BUDGET={env_budget!r}", file=sys.stderr)
            return EXIT_VALIDATION
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        return args.fn(args)
    except _ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, QPWaveError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
