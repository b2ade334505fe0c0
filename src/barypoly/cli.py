"""Command line surface.

Subcommands: simulate (polygon iteration), derive (parameter orbit), dual
(dual trace plus convergence report), classify (orbit verdict), figure (SVG
emission), alpha (the root alpha_p).  Exit codes: 0 success, 1 validation or
I/O failure (every collected message printed), 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

from .affine import GeometryError, diameter
from .barypolygon import ParamVector, iterate_final, iterate_sequence, limit_point
from .config import ConfigError, _request, _small_p, build_family
from .derived import classify_dynamics, derived_trace, solve_alpha
from .dual import CENTROID_THRESHOLD, centroid_convergence_report, dual_trace
from .svgfig import emit_svg
from .traceio import fmt_float, render_trace, write_trace

__all__ = ["UsageError", "build_parser", "cli_dispatch", "main"]


class UsageError(Exception):
    """Bad command line; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # no prefix matching: on a family command, --p would be taken as --points
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

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


def _add_param_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t", metavar="LIST",
                    help="parameters in (0,1), e.g. '0.2,0.3,0.4' or '1/61,...'; "
                         "a single value is broadcast")


def _add_length_opt(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, metavar="P",
                    help="length of a single broadcast t value, at least 2")


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
    _add_length_opt(sp)
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
    _add_length_opt(sp)
    sp.add_argument("--config", metavar="PATH", help="JSON config file")
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


def _cmd_simulate(args) -> int:
    config = _request(vars(args))
    family = build_family(config)
    params = ParamVector(config.t)
    n = config.iterations
    out, fmt = config.output_path, config.output_format or "csv"
    if out:
        write_trace(iterate_sequence(family, params, n), fmt, out)
        print(f"wrote {fmt} trace of {n + 1} families to {out}")
        return 0
    target = limit_point(family, params)
    final = iterate_final(family, params, n)
    gap = max(math.dist(pt.coords, target.coords) for pt in final.points)
    print(f"p={family.size} d={family.dim} steps={n}")
    print(f"final_diameter={fmt_float(diameter(final))}")
    print("limit=" + ",".join(fmt_float(c) for c in target.coords))
    print(f"final_gap={fmt_float(gap)}")
    return 0


def _cmd_derive(args) -> int:
    config = _request(vars(args))
    out, fmt = config.output_path, config.output_format or "csv"
    trace = derived_trace(ParamVector(config.t), config.iterations)
    if out:
        write_trace(trace, fmt, out)
        print(f"wrote {fmt} trace of {trace.steps} steps to {out}")
        return 0
    sys.stdout.write(render_trace(trace, fmt))
    return 0


def _cmd_dual(args) -> int:
    config = _request(vars(args))
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
        print(f"first_below={first} threshold={fmt_float(CENTROID_THRESHOLD)}")
        print(f"decay_rate={rate} immediate={str(report.immediate).lower()} "
              f"conjectured={str(report.conjectured).lower()}")
    print(f"final_distance={fmt_float(trace.distances[-1])}")
    if out:
        write_trace(trace, fmt, out)
        print(f"wrote {fmt} trace to {out}")
    return 0


def _cmd_classify(args) -> int:
    config = _request(vars(args))
    result = classify_dynamics(ParamVector(config.t))
    print(result.verdict.value)
    print(f"alpha={fmt_float(result.alpha)}")
    print(f"lockin_index={'none' if result.lockin_index is None else result.lockin_index}")
    print(f"parity={'none' if result.parity is None else result.parity}")
    print(f"saturated={str(result.saturated).lower()}")
    return 0


def _parse_orders(spec: str) -> range | tuple[int, ...]:
    spec = spec.strip()
    try:
        if "-" in spec:
            lo_text, hi_text = spec.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise ValueError
            orders = range(lo, hi + 1)
        else:
            # a repeated order is drawn once, where it first appears
            orders = tuple(dict.fromkeys(int(s) for s in spec.split(",")))
    except ValueError:
        raise ConfigError([f"bad --orders spec {spec!r}"]) from None
    if any(k < 0 for k in orders):
        raise ConfigError(["derived orders must be non-negative"])
    return orders


def _cmd_figure(args) -> int:
    config = _request(vars(args), iterations=20)
    family = build_family(config)
    params = ParamVector(config.t)
    n = config.iterations
    if args.dual:
        orders = (0,)
        traces = (dual_trace(family, params, n) for _ in orders)
    else:
        orders = _parse_orders("0" if args.orders is None else args.orders)
        top = max(orders)
        dt = derived_trace(params, top)
        # the entry at saturated_at holds a parameter of 0 or 1: it has no
        # polygon.  The trace runs to the top order, so a saturated trace
        # leaves at least that order out of reach.
        sat = dt.saturated_at
        if sat is not None:
            unreached = sum(k >= sat for k in orders)
            first = min(k for k in orders if k >= sat)
            which = (f"derived order {first}" if unreached == 1 else
                     f"{unreached} derived orders, {first} to {top},")
            raise ConfigError([f"{which} not reachable: parameters saturate at step {sat}"])
        traces = (iterate_sequence(family, ParamVector(dt.params[k]), n) for k in orders)
    # each document is rendered only once its destination is known, and
    # written before the next one is rendered: one is held at a time
    if len(orders) == 1 and args.out:
        Path(args.out).write_text(emit_svg(next(traces)), encoding="utf-8", newline="\n")
        print(f"wrote {args.out}")
        return 0
    if args.out_dir is None:
        raise ConfigError(["give --out for one order or --out-dir for several"])
    out_dir = Path(args.out_dir)
    for k, trace in zip(orders, traces):
        document = emit_svg(trace)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / ("dual.svg" if args.dual else f"derived_{k}.svg")
        path.write_text(document, encoding="utf-8", newline="\n")
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
    except SystemExit as exc:  # --help exits once the help is printed
        return exc.code
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
