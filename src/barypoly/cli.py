"""Command line surface.

Subcommands: simulate (polygon iteration), derive (parameter orbit), dual
(dual trace plus convergence report), classify (orbit verdict), figure (SVG
emission), alpha (the root alpha_p).  Exit codes: 0 success, 1 validation or
I/O failure (every collected message printed), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .affine import GeometryError, diameter, distance
from .barypolygon import ParamVector, iterate_final, iterate_sequence, limit_point
from .config import (
    KNOWN_TOLERANCES,
    ConfigError,
    SimulationConfig,
    _read_document,
    _small_p,
    _validate_document,
    build_family,
)
from .derived import classify_dynamics, derived_trace, solve_alpha
from .dual import centroid_convergence_report, dual_trace
from .svgfig import emit_svg
from .traceio import fmt_float, render_trace, write_trace

__all__ = ["UsageError", "build_parser", "cli_dispatch", "main"]


class UsageError(Exception):
    """Bad command line; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def _add_family_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="PATH", help="JSON config file")
    family = sp.add_mutually_exclusive_group()
    family.add_argument("--points", metavar="ROWS",
                        help="inline points, e.g. '0,0;1,0;0,1'")
    family.add_argument("--ngon", type=int, metavar="P",
                        help="regular P-gon on the unit circle")
    family.add_argument("--random", nargs=2, type=int, metavar=("P", "D"),
                        help="seeded random family of P points in D dimensions")
    sp.add_argument("--seed", type=int, metavar="N",
                    help="seed of a random family (else the config's, else 0)")
    sp.add_argument("--tol-distinct", metavar="X",
                    help="pairwise distinctness tolerance for explicit points")


def _add_param_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t", metavar="LIST",
                    help="parameters in (0,1), e.g. '0.2,0.3,0.4' or '1/61,...'; "
                         "a single value is broadcast")
    sp.add_argument("--p", type=int, metavar="P",
                    help="length for a broadcast single --t value")


def _add_tol_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--tol-stationary", metavar="X")
    sp.add_argument("--tol-periodic", metavar="X")
    sp.add_argument("--tol-regular", metavar="X")


def build_parser() -> _Parser:
    parser = _Parser(prog="barypoly",
                     description="Barypolygon iteration, derived system, and duals.")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    sp = sub.add_parser("simulate", help="iterate the polygon map")
    _add_family_opts(sp)
    _add_param_opts(sp)
    sp.add_argument("--n", type=int, metavar="N", help="iteration count")
    sp.add_argument("--out", metavar="PATH")
    sp.add_argument("--format", choices=("csv", "json"))
    sp.set_defaults(handler=_cmd_simulate)

    sp = sub.add_parser("derive", help="run the derived parameter system")
    _add_param_opts(sp)
    sp.add_argument("--config", metavar="PATH", help="JSON config file")
    sp.add_argument("--n", type=int, metavar="N", help="step count")
    sp.add_argument("--out", metavar="PATH")
    sp.add_argument("--format", choices=("csv", "json"))
    sp.set_defaults(handler=_cmd_derive)

    sp = sub.add_parser("dual", help="dual trace plus centroid convergence report")
    _add_family_opts(sp)
    _add_param_opts(sp)
    sp.add_argument("--n", type=int, metavar="N", help="derived steps")
    sp.add_argument("--out", metavar="PATH")
    sp.add_argument("--format", choices=("csv", "json"))
    sp.set_defaults(handler=_cmd_dual)

    sp = sub.add_parser("classify", help="classify the derived-system orbit")
    _add_param_opts(sp)
    sp.add_argument("--config", metavar="PATH", help="JSON config file")
    _add_tol_opts(sp)
    sp.set_defaults(handler=_cmd_classify)

    sp = sub.add_parser("figure", help="emit SVG figures of the iteration")
    _add_family_opts(sp)
    _add_param_opts(sp)
    sp.add_argument("--n", type=int, metavar="N", help="iterations per figure (default 20)")
    drawing = sp.add_mutually_exclusive_group()
    drawing.add_argument("--orders", metavar="SPEC",
                         help="derived orders to draw: '3', '0,2,4', or '0-5' (default 0)")
    drawing.add_argument("--dual", action="store_true",
                         help="draw the dual-point path instead of nested polygons")
    target = sp.add_mutually_exclusive_group()
    target.add_argument("--out", metavar="PATH", help="output file for a single order")
    target.add_argument("--out-dir", metavar="DIR", help="output directory for several orders")
    sp.set_defaults(handler=_cmd_figure)

    sp = sub.add_parser("alpha", help="print alpha_p, the root of x**(p-1) + x - 1")
    sp.add_argument("--p", type=int, required=True, metavar="P")
    sp.set_defaults(handler=_cmd_alpha)

    return parser


def _request(args, iterations: int = 0) -> SimulationConfig:
    """The run's inputs: the config document (empty without --config, its
    step count ``iterations`` unless it names one) with each flag given
    laid over the field it mirrors, validated once."""
    flags = vars(args)
    doc: dict = {}
    if flags.get("config") is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError([f"cannot read config {args.config!r}: {exc}"]) from None
        doc = _read_document(text)
    labels: dict[str, str] = {}
    family = None
    if flags.get("points") is not None:
        rows = [row.split(",") if row else [] for row in map(str.strip, args.points.split(";"))]
        family = {"points": rows}
        labels["points"] = "--points"
    elif flags.get("ngon") is not None:
        family = {"family": {"kind": "regular", "p": args.ngon}}
        labels["family.p"] = "--ngon"
    elif flags.get("random") is not None:
        p, dim = args.random
        family = {"family": {"kind": "random", "p": p, "dim": dim}}
        labels.update({"family.p": "--random", "family.dim": "--random"})
    if family is not None:
        doc.pop("points", None)
        doc.pop("family", None)
        doc.update(family)
    if flags.get("t") is not None:
        doc["t"] = [s.strip() for s in args.t.split(",")]
        labels["t"] = "--t"
    errors: list[str] = []
    # a command reads the config fields it has a flag for: the step count
    # (--n), the output block (--format) and each tolerance (--tol-KEY); any
    # other is reported once and dropped, so it is not validated as well
    read = tuple(key for key in KNOWN_TOLERANCES if f"tol_{key}" in flags)
    tolerances = doc.get("tolerances")
    if isinstance(tolerances, dict):
        for key in sorted(set(tolerances) - set(read)):
            errors.append(f"'tolerances.{key}' is not read by {args.command}"
                          if key in KNOWN_TOLERANCES or not read
                          else f"unknown tolerance {key!r}; expected one of {read}")
        doc["tolerances"] = {key: tolerances[key] for key in read if key in tolerances}
    elif "tolerances" in doc and not read:
        errors.append(f"'tolerances' is not read by {args.command}")
        del doc["tolerances"]
    for field, flag in (("iterations", "n"), ("output", "format")):
        if field in doc and flag not in flags:
            errors.append(f"'{field}' is not read by {args.command}")
            del doc[field]
    doc.setdefault("iterations", iterations)
    if flags.get("n") is not None:
        doc["iterations"] = args.n
        labels["iterations"] = "--n"
    blocks = [(f"tol_{key}", "tolerances", key) for key in read]
    if "format" in flags:
        blocks += [("out", "output", "path"), ("format", "output", "format")]
    for flag, block, key in blocks:
        if flags.get(flag) is not None:
            given = doc.get(block, {})
            # a block that is not an object is reported as it stands
            if isinstance(given, dict):
                doc[block] = {**given, key: flags[flag]}
            labels[f"{block}.{key}"] = "--" + flag.replace("_", "-")
    missing: dict[str, str] = {}
    # the commands with family flags are the ones that need a family
    if "points" in flags:
        missing["family"] = "no family: give --points, --ngon, --random, or a config file"
        if "format" in flags:  # simulate and dual print a summary unless they write a file
            fmt = labels.get("output.format", "output.format")
            missing["output.path"] = f"{fmt} needs a file: give --out or output.path"
    if flags.get("config") is None:
        missing["t"] = "no parameters: give --t or a config file"
    if flags.get("seed") is not None:
        if isinstance(doc.get("family"), dict):
            doc["family"] = {**doc["family"], "seed": args.seed}
            labels["family.seed"] = "--seed"
        else:
            errors.append("--seed needs a random family: give --random or a config "
                          "family of kind 'random'")
    return _validate_document(doc, labels, flags.get("p"), missing, errors)


def _cmd_simulate(args) -> int:
    config = _request(args)
    family = build_family(config)
    params = ParamVector(config.t)
    n = config.iterations
    out, fmt = config.output_path, config.output_format or "csv"
    if out:
        write_trace(iterate_sequence(family, params, n), fmt, out,
                    tolerances=dict(config.tolerances))
        print(f"wrote {fmt} trace of {n + 1} families to {out}")
        return 0
    target = limit_point(family, params)
    final = iterate_final(family, params, n)
    gap = max(distance(pt, target) for pt in final.points)
    print(f"p={family.size} d={family.dim} steps={n}")
    print(f"final_diameter={fmt_float(diameter(final))}")
    print("limit=" + ",".join(fmt_float(c) for c in target.coords))
    print(f"final_gap={fmt_float(gap)}")
    return 0


def _cmd_derive(args) -> int:
    config = _request(args)
    out, fmt = config.output_path, config.output_format or "csv"
    trace = derived_trace(ParamVector(config.t), config.iterations)
    if out:
        write_trace(trace, fmt, out)
        print(f"wrote {fmt} trace of {trace.steps} steps to {out}")
        return 0
    sys.stdout.write(render_trace(trace, fmt))
    return 0


def _cmd_dual(args) -> int:
    config = _request(args)
    family = build_family(config)
    n = config.iterations
    out, fmt = config.output_path, config.output_format or "csv"
    trace = dual_trace(family, ParamVector(config.t), n)
    sat = trace.params_used.saturated_at
    print(f"p={family.size} d={family.dim} requested={n} points={len(trace.points)} "
          f"saturated_at={'none' if sat is None else sat}")
    if family.size >= 3:
        report = centroid_convergence_report(trace)
        first = "none" if report.first_below is None else str(report.first_below)
        rate = "none" if report.decay_rate is None else fmt_float(report.decay_rate)
        print(f"first_below={first} threshold={fmt_float(report.threshold)}")
        print(f"decay_rate={rate} immediate={str(report.immediate).lower()} "
              f"conjectured={str(report.conjectured).lower()}")
    print(f"final_distance={fmt_float(trace.distances[-1])}")
    if out:
        write_trace(trace, fmt, out, tolerances=dict(config.tolerances))
        print(f"wrote {fmt} trace to {out}")
    return 0


def _cmd_classify(args) -> int:
    config = _request(args)
    result = classify_dynamics(ParamVector(config.t),
                               **{f"{key}_tol": value for key, value in config.tolerances})
    print(result.verdict.value)
    print(f"alpha={fmt_float(result.alpha)}")
    print(f"lockin_index={'none' if result.lockin_index is None else result.lockin_index}")
    print(f"parity={'none' if result.parity is None else result.parity}")
    print(f"saturated={str(result.saturated).lower()}")
    return 0


def _parse_orders(spec: str) -> tuple[int, ...]:
    spec = spec.strip()
    try:
        if "-" in spec:
            lo_text, hi_text = spec.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise ValueError
            orders = tuple(range(lo, hi + 1))
        else:
            orders = tuple(int(s) for s in spec.split(","))
    except ValueError:
        raise ConfigError([f"bad --orders spec {spec!r}"]) from None
    if any(k < 0 for k in orders):
        raise ConfigError(["derived orders must be non-negative"])
    return orders


def _cmd_figure(args) -> int:
    config = _request(args, iterations=20)
    family = build_family(config)
    params = ParamVector(config.t)
    n = config.iterations
    if args.dual:
        documents = {0: emit_svg(dual_trace(family, params, n))}
        orders = (0,)
    else:
        orders = _parse_orders("0" if args.orders is None else args.orders)
        dt = derived_trace(params, max(orders))
        # the entry at saturated_at holds a parameter of 0 or 1: it has no polygon
        sat = dt.saturated_at
        missing = [k for k in orders if sat is not None and k >= sat]
        if missing:
            raise ConfigError([
                f"derived order {k} not reachable: parameters saturate at step "
                f"{sat}" for k in missing
            ])
        documents = {
            k: emit_svg(iterate_sequence(family, dt.params[k], n)) for k in orders
        }
    if len(orders) == 1 and args.out:
        Path(args.out).write_text(documents[orders[0]], encoding="utf-8", newline="\n")
        print(f"wrote {args.out}")
        return 0
    if args.out_dir is None:
        raise ConfigError(["give --out for one order or --out-dir for several"])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in orders:
        path = out_dir / f"derived_{k}.svg"
        path.write_text(documents[k], encoding="utf-8", newline="\n")
        print(f"wrote {path}")
    return 0


def _cmd_alpha(args) -> int:
    if args.p < 2:
        raise ConfigError([_small_p("--p", args.p)])
    print(fmt_float(solve_alpha(args.p)))
    return 0


def cli_dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse argv and run one subcommand, mapping failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return 1
    except (GeometryError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
