#!/usr/bin/env python3
"""Repeat each workload with different seeds and report how steady it is.

Usage, from the root of a checkout:

    python3 bench/steadiness.py [--runs 10] [--seconds S]
                                [--workloads NAME ...] [--save FILE] [--compare FILE]

Each run prints every metric of its record by name, with its unit, so
``--runs 1`` is the one command that shows every figure for every workload.
For every end-to-end metric of every workload it then prints the median of the
runs, the quartile spread (the distance between the first and third
quartiles as ``statistics.quantiles(values, n=4)`` gives them, as a share of
the median) and the bound BENCHMARK.json fixes for the metric.  A spread
under a third of the bound is ``steady``; one under the bound is ``within``.
Run i uses seed FIRST_SEED + i.  ``--save`` keeps the raw values;
``--compare`` reports, for a saved earlier set, how far each median moved
in the metric's worse direction, as a share of the earlier median.  Exits 1
if any spread or drift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """Every metric of one untraced run's record, as {name: {value, unit}}."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    if not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    record = json.loads(next(x for x in lines if x.startswith("record "))[len("record "):])
    return record["metrics"]


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def worse_by(metric: dict, before: float, after: float) -> float:
    if not before:
        return 0.0
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
        for workload in args.workloads:
            metrics = run_once(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g} {m['unit']}" for k, m in sorted(metrics.items())),
                flush=True)
            for name, m in metrics.items():
                values[workload].setdefault(name, []).append(m["value"])
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n")
    earlier = json.loads(args.compare.read_text()) if args.compare else None

    if args.runs < 2:
        return 0
    ok = True
    print(f"\n{'workload':<17} {'metric':<12} {'unit':<7} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  status")
    for workload, metrics in values.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            median, rel = spread(metrics[name])
            status = "steady" if rel < bound / 3 else "within" if rel <= bound else "NOISY"
            ok &= rel <= bound
            line = (f"{workload:<17} {name:<12} {metric['unit']:<7} {median:>12.6g} {rel:>8.2%} "
                    f"{bound:>6.0%}  {status}")
            if earlier is not None:
                before = statistics.median(earlier[workload][name])
                drift = worse_by(metric, before, statistics.median(metrics[name]))
                ok &= drift <= bound
                line += f"  worse_by={drift:+.2%}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
