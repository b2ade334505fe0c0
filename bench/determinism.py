#!/usr/bin/env python3
"""Check that every count a run reports repeats exactly for its seed.

Usage, from the root of a checkout:

    python3 bench/determinism.py [--seed 1] [--seconds 1]
                                 [--workloads NAME ...]

Each workload runs untraced twice with ``--seed``, traced once with it,
and untraced twice with the held-out seed HELD_OUT.  Runs with one seed
must agree on everything in the record's ``counts``: ops attempted, failed
and wrong, polygon steps, dual points, accurate_digits and the digest of
every output.  The two seeds must produce different outputs, and no run may
report a wrong output.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import NAMES

ROOT = Path(__file__).resolve().parents[1]
HELD_OUT = 7919


def counts(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    record = next(line for line in out.splitlines() if line.startswith("record "))
    return json.loads(record[len("record "):])["counts"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--workloads", nargs="+", default=list(NAMES))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        runs = {
            "seed": [counts(workload, args.seed, args.seconds, trace) for trace in (0, 0, 1)],
            "held-out": [counts(workload, HELD_OUT, args.seconds, 0) for _ in range(2)],
        }
        for label, group in runs.items():
            same = all(c == group[0] for c in group[1:])
            clean = group[0]["wrong"] == 0
            ok &= same and clean
            print(f"{workload:<17} {label:<8} runs={len(group)} "
                  f"{'identical' if same else 'DIFFER'} {'' if clean else 'WRONG OUTPUT '}"
                  + json.dumps(group[0], sort_keys=True))
            if not same:
                for c in group[1:]:
                    print(f"{'':<17} {'':<8} other: " + json.dumps(c, sort_keys=True))
        distinct = (runs["seed"][0]["output_sha256"] != runs["held-out"][0]["output_sha256"])
        ok &= distinct
        if not distinct:
            print(f"{workload:<17} the two seeds gave identical outputs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
