"""Spans around the package's public functions, for the traced run.

The traced run replaces each public function listed in ``SPANS`` with a
wrapper at every ``barypoly`` module namespace where the function is bound
(``iterate_to_diameter`` calls ``barypolygon.diameter``, not
``affine.diameter``), and restores the originals afterwards.  Nothing in the
package's source changes.  Per-coordinate helpers such as ``distance`` and
``AffinePoint`` are left alone: a wrapper would cost more than they do.

Each wrapper records a span (name, parent, start, end) in memory.  Spans
are kept per op, the root span being the op itself; when the op ends its
spans are folded into per-layer totals: calls, and self time, the span's
duration minus the time its child spans cover.  The root's self time is
the unattributed remainder.  Folding per op keeps memory bounded: the
orbit_sweep list alone yields several million spans.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

# (defining module, function name, span name)
SPANS = (
    ("affine", "diameter", "affine.diameter"),
    ("affine", "barycenter", "affine.barycenter"),
    ("barypolygon", "barypolygon_step", "barypolygon.step"),
    ("barypolygon", "iterate_to_diameter", "barypolygon.iterate"),
    ("barypolygon", "iterate_sequence", "barypolygon.iterate"),
    ("barypolygon", "excluded_products", "barypolygon.excluded_products"),
    ("barypolygon", "limit_point", "barypolygon.limit"),
    ("derived", "classify_dynamics", "derived.classify"),
    ("derived", "derived_step", "derived.step"),
    ("derived", "conjugate_step", "derived.step"),
    ("derived", "derived_trace", "derived.trace"),
    ("derived", "conjugate_trace", "derived.trace"),
    ("dual", "dual_trace", "dual.trace"),
    ("dual", "centroid_convergence_report", "dual.report"),
    ("traceio", "render_trace", "traceio.render"),
    ("svgfig", "emit_svg", "svgfig.emit"),
    ("config", "parse_config", "config.parse"),
    ("config", "build_family", "config.family"),
    ("config", "random_family", "config.family"),
    ("config", "regular_ngon", "config.family"),
    ("cli", "cli_dispatch", "cli.dispatch"),
)
# Validated PointFamily construction; iterates built inside a polygon step
# skip the distinctness check and stay part of the step.
FAMILY_BUILD = "affine.family_build"
# Root spans: one timed op, or the traced build of the validated inputs.
ROOT = "op"
SETUP = "setup"


def _dual_counts(trace) -> dict[str, int]:
    return {"dual.points": len(trace.points), "dual.entries": len(trace.params_used.params)}


# Counts taken from a layer's result at its boundary.
COUNTERS = {
    "render_trace": lambda text: {"traceio.bytes": len(text.encode("utf-8"))},
    "emit_svg": lambda text: {"svgfig.bytes": len(text.encode("utf-8"))},
    "dual_trace": _dual_counts,
}


class Recorder:
    """Spans of the current op, and per-layer totals over all ops."""

    def __init__(self):
        self.names = [ROOT, SETUP] + sorted({span for _, _, span in SPANS} | {FAMILY_BUILD})
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts: dict[str, int] = {}
        self._spans: list[list[int]] = []
        self._top = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span: str, counter=None):
        name_id = self._ids[span]
        spans = self._spans

        def wrapper(*args, **kwargs):
            parent = self._top
            record = [name_id, parent, 0, 0]
            self._top = len(spans)
            spans.append(record)
            record[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter_ns()
                self._top = parent
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Put wrappers in every barypoly namespace that binds a listed function."""
        owners = {owner: importlib.import_module(f"barypoly.{owner}") for owner, _, _ in SPANS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "barypoly" or name.startswith("barypoly.")]
        for owner, fname, span in SPANS:
            original = getattr(owners[owner], fname)
            wrapper = self._wrap(original, span, COUNTERS.get(fname))
            for module in modules:
                if module.__dict__.get(fname) is original:
                    self._patch(module, fname, wrapper)
        family = owners["affine"].PointFamily
        post_init = family.__post_init__
        traced = self._wrap(post_init, FAMILY_BUILD)

        def family_post_init(obj, require_distinct, distinct_tol):
            run = traced if require_distinct else post_init
            return run(obj, require_distinct, distinct_tol)

        self._patch(family, "__post_init__", family_post_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin(self, root: str) -> None:
        """Open a root span, ROOT or SETUP."""
        self._spans.clear()
        self._top = 0
        self._spans.append([self._ids[root], -1, perf_counter_ns(), 0])

    def end(self) -> int:
        """Close the root span, fold its spans into the totals and return
        its duration in nanoseconds."""
        spans = self._spans
        spans[0][3] = perf_counter_ns()
        self._top = -1
        child_ns = [0] * len(spans)
        for name_id, parent, start, end in spans[1:]:
            child_ns[parent] += end - start
        for i, (name_id, _, start, end) in enumerate(spans):
            self.calls[name_id] += 1
            self.self_ns[name_id] += end - start - child_ns[i]
        duration = spans[0][3] - spans[0][2]
        spans.clear()
        return duration

    def self_ms(self, name: str) -> float:
        return self.self_ns[self._ids[name]] / 1e6

    def call_count(self, name: str) -> int:
        return self.calls[self._ids[name]]
