"""Command line surface.

Subcommands: simulate (polygon iteration), derive (parameter orbit), dual
(dual trace plus convergence report), classify (orbit verdict), figure (SVG
emission), alpha (the root alpha_p).  Exit codes: 0 success, 1 validation or
I/O failure (every collected message printed), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .affine import DEFAULT_DISTINCT_TOL, GeometryError, PointFamily, diameter, distance
from .barypolygon import ParamVector, iterate_final, iterate_sequence, limit_point
from .config import (
    KNOWN_TOLERANCES,
    ConfigError,
    SimulationConfig,
    _validate_points,
    _validate_t,
    _validate_tolerances,
    build_family,
    parse_config,
    random_family,
    regular_ngon,
)
from .derived import ClassifyConfig, classify_dynamics, derived_trace, solve_alpha
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
    sp.add_argument("--points", metavar="ROWS",
                    help="inline points, e.g. '0,0;1,0;0,1'")
    sp.add_argument("--ngon", type=int, metavar="P",
                    help="regular P-gon on the unit circle")
    sp.add_argument("--random", nargs=2, type=int, metavar=("P", "D"),
                    help="seeded random family of P points in D dimensions")
    sp.add_argument("--seed", type=int, metavar="N",
                    help="seed for --random (else BARYPOLY_SEED, else 0)")
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
    sp.add_argument("--orders", metavar="SPEC", default="0",
                    help="derived orders to draw: '3', '0,2,4', or '0-5'")
    sp.add_argument("--dual", action="store_true",
                    help="draw the dual-point path instead of nested polygons")
    sp.add_argument("--out", metavar="PATH", help="output file for a single order")
    sp.add_argument("--out-dir", metavar="DIR", help="output directory for several orders")
    sp.set_defaults(handler=_cmd_figure)

    sp = sub.add_parser("alpha", help="print alpha_p, the root of x**(p-1) + x - 1")
    sp.add_argument("--p", type=int, required=True, metavar="P")
    sp.set_defaults(handler=_cmd_alpha)

    return parser


def _checked(validate, *args):
    """Run a config validator, raising every failure it collects."""
    errors: list[str] = []
    value = validate(*args, errors)
    if errors:
        raise ConfigError(errors)
    return value


def _load_config(args) -> SimulationConfig | None:
    path = getattr(args, "config", None)
    if path is None:
        return None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from None
    return parse_config(text)


def _tolerances(args, config: SimulationConfig | None) -> dict[str, float]:
    """The config's tolerances, each overridden by its --tol-* flag."""
    return {**dict(config.tolerances if config is not None else ()), **args.tolerances}


def _resolve_family(args, config: SimulationConfig | None) -> PointFamily | None:
    tolerances = _tolerances(args, config)
    if getattr(args, "points", None) is not None:
        distinct_tol = tolerances.get("distinct", DEFAULT_DISTINCT_TOL)
        rows = [row.split(",") if row else [] for row in map(str.strip, args.points.split(";"))]
        rows = _checked(_validate_points, rows, distinct_tol, "--points")
        return PointFamily.from_coords(rows, distinct_tol=distinct_tol)
    if getattr(args, "ngon", None) is not None:
        return regular_ngon(args.ngon)
    if getattr(args, "random", None) is not None:
        p, d = args.random
        return random_family(p, d, getattr(args, "seed", None))
    if config is not None and (config.points is not None or config.family is not None):
        return build_family(replace(config, tolerances=tuple(sorted(tolerances.items()))))
    return None


def _resolve_params(args, config: SimulationConfig | None,
                    family: PointFamily | None) -> ParamVector:
    p = family.size if family is not None else getattr(args, "p", None)
    if getattr(args, "t", None):
        raw, label = [s.strip() for s in args.t.split(",")], "--t"
    elif config is not None:
        raw, label = list(config.t), "t"
    else:
        raise ConfigError(["no parameters: give --t or a config file"])
    return ParamVector(_checked(_validate_t, raw, p, label))


def _resolve_iterations(args, config: SimulationConfig | None, default: int = 0) -> int:
    n = getattr(args, "n", None)
    if n is not None:
        if n < 0:
            raise ConfigError(["--n must be non-negative"])
        return n
    if config is not None:
        return config.iterations
    return default


def _require_family(args, config: SimulationConfig | None) -> PointFamily:
    family = _resolve_family(args, config)
    if family is None:
        raise ConfigError(["no family: give --points, --ngon, --random, or a config file"])
    return family


def _resolve_output(args, config: SimulationConfig | None) -> tuple[str | None, str]:
    """Destination path and format, flags overriding the config's output block."""
    out = getattr(args, "out", None)
    fmt = getattr(args, "format", None)
    if config is not None:
        out = out or config.output_path
        fmt = fmt or config.output_format
    if fmt == "svg":
        raise ConfigError(["svg output belongs to the figure subcommand"])
    return out, fmt or "csv"


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    family = _require_family(args, config)
    params = _resolve_params(args, config, family)
    n = _resolve_iterations(args, config)
    out, fmt = _resolve_output(args, config)
    if out:
        write_trace(iterate_sequence(family, params, n), fmt, out)
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
    config = _load_config(args)
    params = _resolve_params(args, config, None)
    n = _resolve_iterations(args, config)
    out, fmt = _resolve_output(args, config)
    trace = derived_trace(params, n)
    if out:
        write_trace(trace, fmt, out)
        print(f"wrote {fmt} trace of {len(trace.params)} steps to {out}")
        return 0
    sys.stdout.write(render_trace(trace, fmt))
    return 0


def _cmd_dual(args) -> int:
    config = _load_config(args)
    family = _require_family(args, config)
    params = _resolve_params(args, config, family)
    n = _resolve_iterations(args, config)
    out, fmt = _resolve_output(args, config)
    trace = dual_trace(family, params, n)
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
        write_trace(trace, fmt, out)
        print(f"wrote {fmt} trace to {out}")
    return 0


def _cmd_classify(args) -> int:
    config = _load_config(args)
    params = _resolve_params(args, config, None)
    defaults = ClassifyConfig()
    tols = _tolerances(args, config)
    result = classify_dynamics(params, ClassifyConfig(
        stationary_tol=tols.get("stationary", defaults.stationary_tol),
        periodic_tol=tols.get("periodic", defaults.periodic_tol),
        regular_tol=tols.get("regular", defaults.regular_tol)))
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
    config = _load_config(args)
    family = _require_family(args, config)
    params = _resolve_params(args, config, family)
    orders = _parse_orders(args.orders)
    n = _resolve_iterations(args, config, default=20)
    if args.dual:
        documents = {0: emit_svg(dual_trace(family, params, n))}
        orders = (0,)
    else:
        dt = derived_trace(params, max(orders))
        reachable = len(dt.params) - 1
        missing = [k for k in orders if k > reachable]
        if missing:
            raise ConfigError([
                f"derived order {k} not reachable: parameters saturate at step "
                f"{dt.saturated_at}" for k in missing
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
    print(fmt_float(solve_alpha(args.p)))
    return 0


def _check_tolerance_flags(args) -> None:
    """Parse the --tol-* flags given, as config tolerances, into args.tolerances."""
    flags = {key: getattr(args, f"tol_{key}", None) for key in KNOWN_TOLERANCES}
    given = {key: value for key, value in flags.items() if value is not None}
    args.tolerances = _checked(_validate_tolerances, given, "--tol-")


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
        _check_tolerance_flags(args)
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
