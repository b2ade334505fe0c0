"""The benchmark's four workloads.

Each workload turns ``--seed`` into a fixed list of ops of one size class.
Its parts are kept apart so that the runner can time each on its own:

* ``draw`` makes the plain-data inputs from the seed (benchmark work);
* ``build`` turns them into validated package inputs (set-up time);
* ``prepare`` computes what the checks need, such as golden outputs
  (outside set-up and outside the timed ops);
* ``op`` is the timed call into the package;
* ``check`` compares one op's output with its reference (untimed) and
  returns an :class:`Outcome`.

The package is reached only through module attributes (``barypolygon.f``),
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import reference as ref


@dataclass
class Outcome:
    """What one op produced, as judged against its reference."""

    ok: bool
    # The op returned output that contradicts the reference.  Raising or
    # exiting non-zero is a failure but not a wrong output.
    wrong: bool = False
    digits: float | None = None
    fingerprint: str = ""
    steps: int = 0
    points: int = 0


def failed(exc: BaseException) -> Outcome:
    return Outcome(ok=False, fingerprint=f"raised {type(exc).__name__}: {exc}")


def _floats(values) -> str:
    return ",".join(float(v).hex() for v in values)


def _in_box(point, rows, slack: float) -> bool:
    """Whether a point lies in the bounding box of rows, widened by slack."""
    return all(
        min(r[j] for r in rows) - slack <= c <= max(r[j] for r in rows) + slack
        for j, c in enumerate(point)
    )


def _uniform_rows(rng: random.Random, p: int, d: int) -> list[tuple[float, ...]]:
    return [tuple(rng.uniform(-1.0, 1.0) for _ in range(d)) for _ in range(p)]


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    def prepare(self, specs):
        return [None] * len(specs)

    def stage(self, item):
        """Untimed per-op preparation just before the op runs."""
        return item

    def traced_op(self, item):
        """The op as the traced run executes it."""
        return self.op(item)


class PolygonConverge(Workload):
    """Iterate a p = 12 polygon until its diameter is below 1e-12.

    Why: this is the north star's "time to a stated accuracy".  Nearly all
    the work is the polygon step and the O(p^2) diameter stop test.
    """

    name = "polygon_converge"
    ops = 100
    P, D, EPS = 12, 2, 1e-12

    def __init__(self, pkg):
        self.affine, self.bp = pkg.affine, pkg.barypolygon

    def draw(self, rng, n):
        return [
            (_uniform_rows(rng, self.P, self.D), [rng.uniform(0.25, 0.75) for _ in range(self.P)])
            for _ in range(n)
        ]

    def build(self, specs):
        return [
            (self.affine.PointFamily.from_coords(rows), self.bp.ParamVector(t))
            for rows, t in specs
        ]

    def op(self, item):
        family, t = item
        return self.bp.iterate_to_diameter(family, t, eps=self.EPS)

    def check(self, spec, result, golden):
        rows, t = spec
        final, steps = result
        if steps >= self.bp.DEFAULT_TRACE_CAP:
            return Outcome(ok=False, steps=steps, fingerprint=f"step cap {steps}")
        limit = ref.limit_point(rows, t)
        error = max(ref.point_error(pt.coords, limit) for pt in final.points)
        # Once the diameter is below eps every vertex is within eps of the
        # limit, which lies in the hull of each iterate.
        wrong = error > 2 * self.EPS
        return Outcome(
            ok=not wrong, wrong=wrong, steps=steps,
            digits=ref.digits(error, ref.scale(rows)),
            fingerprint=f"{steps}:" + ";".join(_floats(pt.coords) for pt in final.points),
        )


class WideLimit(Workload):
    """Closed-form limit points of one p = 1000 family.

    Why: the O(p^2) distinctness check and O(p^2) excluded products only
    dominate at large p.  One closed-form call per op and no iteration is
    the opposite use of the layers polygon_converge iterates.

    The mean levels of the ops' t sit on a grid across the open interval,
    so about half of the ops underflow their product weights to 0.0 and
    raise GeometryError, and a few succeed with subnormal weights and few
    accurate digits.  Those ops are counted as measured.  Each op's t is
    its level plus a shuffled, fixed set of symmetric offsets, so the
    products, and with them which ops fail, do not hinge on the seed; the
    seed picks the family, the order of the ops and each shuffle.
    """

    name = "wide_limit"
    ops = 100
    P, D = 1000, 2

    def __init__(self, pkg):
        self.affine, self.bp = pkg.affine, pkg.barypolygon

    def draw(self, rng, n):
        rows = _uniform_rows(rng, self.P, self.D)
        levels = [(i + 0.5) / n for i in range(n)]
        rng.shuffle(levels)
        offsets = [(2 * k + 1) / self.P - 1.0 for k in range(self.P)]
        specs = []
        for level in levels:
            half = 0.5 * min(level, 1.0 - level)
            rng.shuffle(offsets)
            specs.append((rows, [level + half * x for x in offsets]))
        return specs

    def build(self, specs):
        family = self.affine.PointFamily.from_coords(specs[0][0])
        return [(family, self.bp.ParamVector(t)) for _, t in specs]

    def op(self, item):
        family, t = item
        return self.bp.limit_point(family, t)

    def check(self, spec, result, golden):
        rows, t = spec
        point = result.coords
        error = ref.point_error(point, ref.limit_point(rows, t))
        # A limit point is a convex combination of the family.
        wrong = not _in_box(point, rows, 1e-12)
        return Outcome(ok=not wrong, wrong=wrong, digits=ref.digits(error, ref.scale(rows)),
                       fingerprint=_floats(point))


class OrbitSweep(Workload):
    """classify_dynamics, dual_trace and the centroid report at p = 3.

    Why: the traffic of scripts/dynamics_sweep.py.  All the work is in the
    derived and dual layers, as thousands of small calls dominated by the
    validation of frozen dataclasses: the opposite of wide_limit.
    """

    name = "orbit_sweep"
    ops = 2000
    P, N = 3, 400

    def __init__(self, pkg):
        self.pkg = pkg
        self.triangle = None

    def draw(self, rng, n):
        return [[rng.uniform(0.02, 0.98) for _ in range(self.P)] for _ in range(n)]

    def build(self, specs):
        self.triangle = self.pkg.config.regular_ngon(self.P)
        return [self.pkg.barypolygon.ParamVector(t) for t in specs]

    def op(self, t):
        derived, dual = self.pkg.derived, self.pkg.dual
        verdict = derived.classify_dynamics(t)
        trace = dual.dual_trace(self.triangle, t, self.N)
        return verdict, trace, dual.centroid_convergence_report(trace)

    def check(self, spec, result, golden):
        verdict, trace, report = result
        rows = [pt.coords for pt in self.triangle.points]
        points = [pt.coords for pt in trace.points]
        refs = ref.dual_points(rows, spec, len(points))
        error = max(ref.point_error(pt, r) for pt, r in zip(points, refs))
        # The paper proves alternating divergence for every irregular p = 3.
        wrong = (verdict.verdict is not self.pkg.derived.DynamicsVerdict.ALTERNATING_DIVERGENT
                 or not all(_in_box(pt, rows, 1e-12) for pt in points))
        return Outcome(
            ok=not wrong, wrong=wrong, points=len(points),
            digits=ref.digits(error, ref.scale(rows)),
            fingerprint=(f"{verdict.verdict.value}:{verdict.lockin_index}:"
                         f"{len(trace.params_used.params)}:{report.first_below}:"
                         + ";".join(_floats(pt) for pt in points)),
        )


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dir_digests(path: Path) -> dict[str, str]:
    return {
        str(f.relative_to(path)): _digest(f.read_bytes())
        for f in sorted(path.rglob("*")) if f.is_file()
    }


class CliExport(Workload):
    """One ``python -m barypoly`` child process per op.

    Why: the only workload that pays for interpreter start-up, the package
    import and the traceio, svgfig and config layers.  It cycles five kinds
    of command in equal counts, so every run has the same mix: the slowest
    kind, simulate_csv, holds the 90th percentile and three kinds of about
    one cost hold the median.  Every --n stays below the 10 000-iterate
    trace cap.  Outputs are compared byte for byte with an in-process
    render of the same argv.
    """

    name = "cli_export"
    ops = 100
    KINDS = ("classify", "simulate_summary", "simulate_csv", "dual_json", "figure")

    def __init__(self, pkg, workdir: Path, src: Path):
        self.pkg = pkg
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("BARYPOLY_SEED", None)
        self.alpha3 = None

    def draw(self, rng, n):
        specs = []
        for i in range(n):
            kind = self.KINDS[i % len(self.KINDS)]
            seed = rng.randrange(2**32)
            config = None
            if kind == "classify":
                t = [rng.uniform(0.02, 0.98) for _ in range(3)]
                argv = ["classify", "--t", _csv(t)]
            elif kind == "simulate_summary":
                t = [rng.uniform(0.25, 0.75) for _ in range(10)]
                argv = ["simulate", "--random", "10", "2", "--seed", str(seed),
                        "--t", _csv(t), "--n", "300"]
            elif kind == "simulate_csv":
                t = [rng.uniform(0.25, 0.75) for _ in range(12)]
                config = json.dumps({
                    "family": {"kind": "random", "p": 12, "dim": 2, "seed": seed},
                    "t": t, "iterations": 500,
                    "output": {"format": "csv", "path": "trace.csv"},
                })
                argv = ["simulate", "--config", "config.json"]
            elif kind == "dual_json":
                t = [rng.uniform(0.02, 0.98) for _ in range(3)]
                argv = ["dual", "--ngon", "3", "--t", _csv(t), "--n", "60",
                        "--out", "dual.json", "--format", "json"]
            else:
                t = [rng.uniform(0.15, 0.35) for _ in range(4)]
                argv = ["figure", "--ngon", "4", "--t", _csv(t), "--n", "24",
                        "--orders", "0-5", "--out-dir", "figs"]
            specs.append((kind, argv, t, seed, config))
        return specs

    def build(self, specs):
        return specs

    def stage(self, spec, name: str = "op"):
        """An empty directory holding the op's config file, if it has one."""
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        if spec[4] is not None:
            (path / "config.json").write_text(spec[4], encoding="utf-8")
        return spec, path

    def prepare(self, specs):
        self.alpha3 = ref.alpha(3)
        goldens = []
        for spec in specs:
            code, stdout, path = self.traced_op(self.stage(spec, "golden"))
            goldens.append((code, stdout, _dir_digests(path)))
        shutil.rmtree(self.workdir / "golden", ignore_errors=True)
        return goldens

    def op(self, item):
        spec, path = item
        proc = subprocess.run(
            [sys.executable, "-m", "barypoly", *spec[1]],
            cwd=path, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        return proc.returncode, proc.stdout, path

    def traced_op(self, item):
        """The same argv through cli_dispatch in this process."""
        spec, path = item
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(path)
        try:
            with contextlib.redirect_stdout(out):
                code = self.pkg.cli.cli_dispatch(spec[1])
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode("utf-8"), path

    def check(self, spec, result, golden):
        code, stdout, path = result
        if code != 0:
            return Outcome(ok=False, fingerprint=f"exit {code}")
        files = _dir_digests(path)
        kind, _, t, seed, _ = spec
        text = stdout.decode("utf-8")
        same = (code, stdout, files) == golden
        digits = None
        if kind == "classify":
            # The paper proves alternating divergence for every irregular p = 3.
            same = same and text.startswith("AlternatingDivergent\n")
            alpha = Decimal(float(_field(text, "alpha")))
            digits = ref.digits(abs(alpha - self.alpha3), 1.0)
        elif kind == "simulate_summary":
            rows = [pt.coords for pt in self.pkg.config.random_family(10, 2, seed).points]
            limit = [float(c) for c in _field(text, "limit").split(",")]
            digits = ref.digits(ref.point_error(limit, ref.limit_point(rows, t)),
                                ref.scale(rows))
        files_fp = ",".join(f"{k}={v}" for k, v in sorted(files.items()))
        return Outcome(ok=same, wrong=not same, digits=digits,
                       fingerprint=f"{_digest(stdout)}|{files_fp}")


def _csv(values) -> str:
    return ",".join(map(repr, values))


def _field(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(key + "="):
            return line[len(key) + 1:].split()[0]
    raise ValueError(f"no {key}= line in output")


NAMES = ("polygon_converge", "wide_limit", "orbit_sweep", "cli_export")


def make(name: str, pkg, workdir: Path, src: Path):
    if name == "cli_export":
        return CliExport(pkg, workdir, src)
    return {"polygon_converge": PolygonConverge, "wide_limit": WideLimit,
            "orbit_sweep": OrbitSweep}[name](pkg)
