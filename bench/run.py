#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of polygon_converge, wide_limit, orbit_sweep, cli_export (see
workloads.py for what each measures and why).  BENCHMARK.json leaves out
wide_limit to keep the total time of repeated runs of every listed
workload within budget; it stays runnable.  The seed fixes the list of
ops; the run passes through the whole list as often as fills ``--seconds``
(twice at the least) and checks the outputs of the first pass, so every
count and accuracy figure repeats exactly for a seed whatever the
program's speed.  All workloads are closed loops with one client: one op,
or one child process, at a time.

With ``--trace 0`` the ops run untraced and the result holds the
end-to-end metrics.  With ``--trace 1`` every op runs twice, untraced and
then with spans around the package's layers (tracer.py); the result holds
the per-layer metrics and the tracing overhead.

Before the result the run prints a ``record`` line: the environment, the
counts that must repeat exactly for a seed, and every metric.  The last
line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads
from workloads import Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up is repeated this often per run and reported as the median.
SETUP_REPEATS = 11
# Untraced passes through the op list, at the least; see timed_passes.
MIN_PASSES = 2


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def fresh_python_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


def fresh_import_seconds(module: str) -> float:
    """Time to import ``module`` in a fresh interpreter, start-up excluded."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                          stdout=subprocess.PIPE, text=True)
    return float(proc.stdout)


def environment(args, n_ops: int, passes: int) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        rev = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "git_rev": rev, "src_sha256": src.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": n_ops, "passes": passes,
    }


def run_op(fn, item):
    """Time one op; an exception is its result, never the run's."""
    start = perf_counter()
    try:
        result, error = fn(item), None
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        result, error = None, exc
    return result, error, perf_counter() - start


def judge(wl, spec, result, error, golden) -> Outcome:
    if error is not None:
        return workloads.failed(error)
    return wl.check(spec, result, golden)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _beyond_p90(values: list[float]) -> int:
    cut = p90(values)
    return sum(x > cut for x in values)


def _digits(outcomes) -> list[float]:
    """Accurate digits of every successful op that has a reference value."""
    return [o.digits for o in outcomes if o.ok and o.digits is not None]


def end_to_end(wl, setup_s, passes, outcomes) -> dict:
    """The end-to-end metrics; ``passes`` holds (latencies, wall seconds)
    per timed pass, and each timing metric is its median over the passes."""
    ok = sum(o.ok for o in outcomes)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_export" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(ok / wall for _, wall in passes), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(statistics.median(lat) for lat, _ in passes), "ms"),
        "op_ms_p90": (1e3 * statistics.median(p90(lat) for lat, _ in passes), "ms"),
        "ok_frac": (ok / len(outcomes), "1"),
        "accurate_digits": (min(_digits(outcomes), default=0.0), "digits"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(rec: tracer.Recorder, outcomes, untraced_s, traced_ns, startup) -> dict:
    n = len(outcomes)
    steps = rec.call_count("barypolygon.step")
    entries = rec.counts.get("dual.entries", 0)
    metrics = {}
    for name in ("barypolygon.step", "affine.diameter", "barypolygon.excluded_products",
                 "affine.family_build", "derived.step"):
        metrics[f"{name}.calls"] = (rec.call_count(name), "count")
    for name in ("barypolygon.step", "affine.diameter", "barypolygon.excluded_products",
                 "barypolygon.limit", "affine.barycenter", "affine.family_build",
                 "derived.classify", "derived.step", "derived.trace", "dual.trace",
                 "dual.report", "traceio.render", "svgfig.emit", "config.parse",
                 "config.family", "cli.dispatch"):
        metrics[f"{name}.ms"] = (rec.self_ms(name), "ms")
    metrics.update({
        "barypolygon.steps_per_op": (steps / n, "count"),
        "barypolygon.stop_checks_per_step":
            (rec.call_count("affine.diameter") / steps if steps else 0.0, "1"),
        "dual.points_per_op": (rec.counts.get("dual.points", 0) / n, "count"),
        "dual.kept_ratio": (rec.counts.get("dual.points", 0) / entries if entries else 0.0, "1"),
        "traceio.bytes": (rec.counts.get("traceio.bytes", 0), "B"),
        "svgfig.bytes": (rec.counts.get("svgfig.bytes", 0), "B"),
        "cli.interpreter_ms": (1e3 * startup[0], "ms"),
        "cli.import_ms": (1e3 * (startup[1] - startup[0]), "ms"),
        "trace.overhead_frac": (traced_ns / 1e9 / untraced_s - 1.0, "1"),
        "trace.unattributed_frac": (rec.self_ms(tracer.ROOT) / (traced_ns / 1e6), "1"),
    })
    return metrics


def counts(outcomes) -> dict:
    """Figures that must repeat exactly for a given seed and length."""
    fingerprint = hashlib.sha256("\n".join(o.fingerprint for o in outcomes).encode())
    return {
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "wrong": sum(o.wrong for o in outcomes),
        "steps": sum(o.steps for o in outcomes),
        "dual_points": sum(o.points for o in outcomes),
        "accurate_digits": min(_digits(outcomes), default=0.0),
        "output_sha256": fingerprint.hexdigest(),
    }


def timed_passes(wl, specs, goldens, seconds: float, set_up):
    """Run the op list in passes for about ``seconds``; return each pass's
    latencies and wall time, and the outcomes of the first pass.

    The first pass fixes how many passes fill ``seconds``, MIN_PASSES at
    the least.  On a small shared machine, contention from other tenants
    comes in phases of seconds that slow every op by up to 1.8x.  Each
    timing metric is therefore taken per pass, over every op of the pass,
    and reported as the median over the passes: a phase that covers fewer
    than half of them moves no figure, while whatever the program itself
    costs in every pass (collector pauses, slow calls) stays in.  The
    SETUP_REPEATS set-ups are spread over the passes for the same reason.
    The ops are deterministic, so their outputs are checked on the first
    pass only, and the time the checks take is left out of that pass's
    wall time.
    """
    timed = []
    outcomes = []
    inputs = set_up()
    passes = MIN_PASSES
    npass = 0
    while npass < passes:
        later = SETUP_REPEATS - 1
        for _ in range(sum(1 + j * (passes - 1) // later == npass for j in range(later))):
            inputs = set_up()
        gc.collect()
        latencies = []
        checking = 0.0
        start = perf_counter()
        for spec, item, golden in zip(specs, inputs, goldens):
            result, error, elapsed = run_op(wl.op, wl.stage(item))
            latencies.append(elapsed)
            if npass == 0:
                begun = perf_counter()
                outcomes.append(judge(wl, spec, result, error, golden))
                checking += perf_counter() - begun
        wall = perf_counter() - start - checking
        timed.append((latencies, wall))
        if npass == 0:
            passes = max(MIN_PASSES, round(seconds / wall))
        npass += 1
    return timed, outcomes


def traced_pass(wl, rec, specs, inputs, goldens):
    """Run every op untraced, then traced; check the traced output."""
    latencies, outcomes = [], []
    traced_ns = 0
    for spec, item, golden in zip(specs, inputs, goldens):
        _, _, seconds = run_op(wl.traced_op, wl.stage(item))
        staged = wl.stage(item)
        rec.install()
        rec.begin(tracer.ROOT)
        result, error, _ = run_op(wl.traced_op, staged)
        traced_ns += rec.end()
        rec.uninstall()
        latencies.append(seconds)
        outcomes.append(judge(wl, spec, result, error, golden))
    return latencies, outcomes, traced_ns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "barypoly" / "__init__.py").is_file():
        print(f"error: the package source is missing under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import barypoly
    import barypoly.cli  # noqa: F401 - binds barypoly.cli for the workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, barypoly, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, pkg, workdir: Path) -> int:
    wl = workloads.make(args.workload, pkg, workdir, SRC)
    rng = random.Random(f"{args.workload}:{args.seed}")
    specs = wl.draw(rng, wl.ops)
    goldens = wl.prepare(specs)
    module = "barypoly.cli" if args.workload == "cli_export" else "barypoly"
    setups: list[float] = []

    def set_up():
        """Import the package in a fresh interpreter and build the inputs."""
        imported = fresh_import_seconds(module)
        start = perf_counter()
        inputs = wl.build(specs)
        setups.append(imported + perf_counter() - start)
        return inputs

    if args.trace:
        rec = tracer.Recorder()
        rec.install()
        rec.begin(tracer.SETUP)
        inputs = wl.build(specs)
        rec.end()
        rec.uninstall()
        gc.collect()
        latencies, outcomes, traced_ns = traced_pass(wl, rec, specs, inputs, goldens)
        startup = (
            statistics.median(fresh_python_seconds("pass") for _ in range(SETUP_REPEATS)),
            statistics.median(fresh_python_seconds("import barypoly.cli")
                              for _ in range(SETUP_REPEATS)),
        )
        metrics = per_layer(rec, outcomes, sum(latencies), traced_ns, startup)
        timed = [(latencies, sum(latencies))]
    else:
        timed, outcomes = timed_passes(wl, specs, goldens, args.seconds, set_up)
        metrics = end_to_end(wl, statistics.median(setups), timed, outcomes)

    n = len(outcomes)
    tally = counts(outcomes)
    shown = dict(metrics)
    if not args.trace:
        # failed_frac can read 0, which the result's metrics must not, so it
        # is reported here beside ok_frac = 1 - failed_frac.
        shown["failed_frac"] = (tally["failed"] / n, "1")
    record = {
        "env": environment(args, n, len(timed)),
        "counts": tally,
        # Each percentile is taken per pass, over the pass's n latencies.
        "samples": {"latency_per_pass": n, "passes": len(timed),
                    "beyond_p90": min(_beyond_p90(lat) for lat, _ in timed),
                    "setup": len(setups), "digits": len(_digits(outcomes))},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": tally["wrong"] == 0,
        "attempted": n,
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
