"""Deterministic CSV and JSON serialisation of traces.

Numbers are written as 17-significant-digit decimals (trailing zeros
stripped), which parse back to the identical float.  Identical inputs
produce byte-identical files: LF line endings, fixed key order, UTF-8.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from .barypolygon import PolygonTrace
from .derived import DerivedTrace
from .dual import DualTrace

__all__ = ["fmt_float", "render_trace", "write_trace"]

FORMATS = ("csv", "json")


def fmt_float(x: float) -> str:
    """17-significant-digit decimal; parses back to the same float."""
    return format(float(x), ".17g")


def _table(trace) -> tuple[dict[str, Any], list[str], Iterable[list[float]]]:
    """Metadata, column names, and numeric rows for any supported trace;
    a polygon trace's rows are made as they are read."""
    if isinstance(trace, PolygonTrace):
        p, d = trace.start.size, trace.start.dim
        columns = [f"v{k}_{j}" for k in range(1, p + 1) for j in range(1, d + 1)]
        rows = ([c for row in zip(*fam.columns) for c in row] for fam in trace.iterates())
        meta = {"kind": "polygon", "p": p, "d": d,
                "t0": trace.params.t, "saturated_at": None}
    elif isinstance(trace, DerivedTrace):
        p = trace.size
        columns = [f"t{k}" for k in range(1, p + 1)]
        rows = [list(entry.t) for entry in trace.params]
        meta = {"kind": "derived", "p": p, "d": None,
                "t0": trace.params[0].t, "saturated_at": trace.saturated_at}
    elif isinstance(trace, DualTrace):
        p, d = trace.family.size, trace.family.dim
        columns = [f"g{j}" for j in range(1, d + 1)] + ["dist"]
        rows = [
            list(pt.coords) + [dist]
            for pt, dist in zip(trace.points, trace.distances)
        ]
        meta = {"kind": "dual", "p": p, "d": d,
                "t0": trace.params_used.params[0].t,
                "saturated_at": trace.params_used.saturated_at}
    else:
        raise TypeError(f"unsupported trace type {type(trace).__name__}")
    return meta, columns, rows


def _scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    return fmt_float(value)


def _array(values: Iterable[Any]) -> str:
    return "[" + ", ".join(map(_scalar, values)) + "]"


def _lines(trace, fmt: str) -> Iterator[str]:
    """The text of a trace file, one line at a time.

    JSON has a fixed layout: the metadata, one key a line, then ``steps``
    with one row a line; a row's line starts with the comma that ends the
    line before it.  No tolerance is settable, so ``tolerances`` is always
    null; the key stays so that the layout does not change.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    meta, columns, rows = _table(trace)
    if fmt == "csv":
        yield "step," + ",".join(columns) + "\n"
        for m, row in enumerate(rows):
            yield f"{m}," + ",".join(map(fmt_float, row)) + "\n"
        return
    yield "{\n"
    for key, text in (("kind", _scalar(meta["kind"])), ("p", _scalar(meta["p"])),
                      ("d", _scalar(meta["d"])), ("t0", _array(meta["t0"])),
                      ("tolerances", "null"), ("saturated_at", _scalar(meta["saturated_at"])),
                      ("columns", _array(columns))):
        yield f'  "{key}": {text},\n'
    yield '  "steps": ['
    comma = ""
    for row in rows:
        yield f"{comma}\n    {_array(row)}"
        comma = ","
    yield "\n  ]\n}\n"


def render_trace(trace, fmt: str) -> str:
    """Serialise a trace to CSV or JSON text."""
    return "".join(_lines(trace, fmt))


def write_trace(trace, fmt: str, path: str | Path) -> None:
    """Write a trace to the file at ``path`` one line at a time, byte-stable
    across runs; a polygon trace's iterates are made as their rows are
    written.  For a stream, write ``render_trace(trace, fmt)`` to it."""
    lines = _lines(trace, fmt)
    # the first line checks the format and the trace type before a file opens
    first = next(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(first)
        handle.writelines(lines)
