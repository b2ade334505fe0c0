"""Deterministic CSV and JSON serialisation of traces.

Numbers are written as 17-significant-digit decimals (trailing zeros
stripped), which parse back to the identical float.  Identical inputs
produce byte-identical files: LF line endings, fixed key order, UTF-8.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any, IO, Mapping

from .barypolygon import PolygonTrace
from .derived import DerivedTrace
from .dual import DualTrace

__all__ = [
    "fmt_float",
    "json_dumps_stable",
    "trace_table",
    "render_trace",
    "write_trace",
]

FORMATS = ("csv", "json")


def fmt_float(x: float) -> str:
    """17-significant-digit decimal; parses back to the same float."""
    return format(float(x), ".17g")


def _emit(value: Any, out: io.StringIO, indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, Mapping):
        if not value:
            out.write("{}")
            return
        out.write("{\n")
        items = list(value.items())
        for i, (key, val) in enumerate(items):
            out.write(f'{pad}  {json.dumps(str(key))}: ')
            _emit(val, out, indent + 1)
            out.write(",\n" if i + 1 < len(items) else "\n")
        out.write(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.write("[]")
            return
        if all(not isinstance(v, (Mapping, list, tuple)) for v in seq):
            out.write("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        out.write("[\n")
        for i, v in enumerate(seq):
            out.write(pad + "  ")
            _emit(v, out, indent + 1)
            out.write(",\n" if i + 1 < len(seq) else "\n")
        out.write(pad + "]")
    else:
        out.write(_scalar(value))


def _scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialise {type(value).__name__}")


def json_dumps_stable(value: Any) -> str:
    """JSON text with deterministic layout and 17-significant-digit floats."""
    out = io.StringIO()
    _emit(value, out, 0)
    out.write("\n")
    return out.getvalue()


def trace_table(trace) -> tuple[dict[str, Any], list[str], list[list[float]]]:
    """Metadata, column names, and numeric rows for any supported trace."""
    if isinstance(trace, PolygonTrace):
        p, d = trace.size, trace.dim
        columns = [f"v{k}_{j}" for k in range(1, p + 1) for j in range(1, d + 1)]
        rows = [[c for row in zip(*fam.columns) for c in row] for fam in trace.iterates]
        meta = {"kind": "polygon", "p": p, "d": d,
                "t0": list(trace.params.t), "saturated_at": None}
    elif isinstance(trace, DerivedTrace):
        p = trace.size
        columns = [f"t{k}" for k in range(1, p + 1)]
        rows = [list(entry.t) for entry in trace.params]
        meta = {"kind": "derived", "p": p, "d": None,
                "t0": list(trace.params[0].t), "saturated_at": trace.saturated_at}
    elif isinstance(trace, DualTrace):
        p, d = trace.family.size, trace.family.dim
        columns = [f"g{j}" for j in range(1, d + 1)] + ["dist"]
        rows = [
            list(pt.coords) + [dist]
            for pt, dist in zip(trace.points, trace.distances)
        ]
        meta = {"kind": "dual", "p": p, "d": d,
                "t0": list(trace.params_used.params[0].t),
                "saturated_at": trace.params_used.saturated_at}
    else:
        raise TypeError(f"unsupported trace type {type(trace).__name__}")
    return meta, columns, rows


def render_trace(trace, fmt: str, *, tolerances: Mapping[str, float] | None = None) -> str:
    """Serialise a trace to CSV or JSON text."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    meta, columns, rows = trace_table(trace)
    if fmt == "csv":
        lines = ["step," + ",".join(columns)]
        for m, row in enumerate(rows):
            lines.append(f"{m}," + ",".join(fmt_float(x) for x in row))
        return "\n".join(lines) + "\n"
    doc = {
        "kind": meta["kind"],
        "p": meta["p"],
        "d": meta["d"],
        "t0": meta["t0"],
        "tolerances": dict(tolerances) if tolerances else None,
        "saturated_at": meta["saturated_at"],
        "columns": columns,
        "steps": rows,
    }
    return json_dumps_stable(doc)


def write_trace(
    trace,
    fmt: str,
    destination: str | Path | IO[str],
    *,
    tolerances: Mapping[str, float] | None = None,
) -> None:
    """Write a trace to a path or text stream, byte-stable across runs."""
    text = render_trace(trace, fmt, tolerances=tolerances)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    with open(destination, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
