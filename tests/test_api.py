"""The package's public surface: every public name has a caller outside
the tests, the value types are immutable, and the import stays lean."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from barypoly.affine import AffinePoint, PointFamily
from barypoly.barypolygon import ParamVector, iterate_sequence
from barypoly.config import FamilySpec, parse_config
from barypoly.derived import classify_dynamics, derived_trace
from barypoly.dual import centroid_convergence_report, dual_trace

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "barypoly"


def _src_references():
    """Names that package code reads, reaches as an attribute or imports;
    ``__init__.py`` only re-exports, so it does not count."""
    refs = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return refs


def _outside_text():
    """The scripts, the benchmark, the project file and the entry point, which
    may name a function as a string (the tracer's span table does)."""
    paths = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py"),
             ROOT / "pyproject.toml", PACKAGE / "__main__.py"]
    return "\n".join(path.read_text(encoding="utf-8") for path in paths)


def test_every_public_name_has_a_caller():
    refs, text = _src_references(), _outside_text()
    uncalled = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if not path.name.startswith("__")
        for name in getattr(importlib.import_module(f"barypoly.{path.stem}"), "__all__", ())
        if name not in refs and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert uncalled == []


def _family():
    return PointFamily.from_coords([(0.0, 0.0), (1.0, 0.0), (0.3, 0.8)])


def _params():
    return ParamVector([0.2, 0.45, 0.7])


# each public value type, built from fresh equal inputs, and one of its fields
VALUES = {
    "AffinePoint": (lambda: AffinePoint((1.0, 2.0)), "coords"),
    "PointFamily": (_family, "columns"),
    "ParamVector": (_params, "t"),
    "PolygonTrace": (lambda: iterate_sequence(_family(), _params(), 3), "steps"),
    "DerivedTrace": (lambda: derived_trace(_params(), 5), "saturated_at"),
    "DynamicsClass": (lambda: classify_dynamics(_params()), "verdict"),
    "DualTrace": (lambda: dual_trace(_family(), _params(), 5), "distances"),
    "CentroidConvergenceReport": (
        lambda: centroid_convergence_report(dual_trace(_family(), _params(), 5)), "decay_rate"),
    "FamilySpec": (lambda: FamilySpec("regular", 3), "p"),
    "SimulationConfig": (lambda: parse_config('{"t": [0.2, 0.3], "iterations": 4}'), "iterations"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_are_immutable_and_compare_by_value(name):
    build, field = VALUES[name]
    value, twin = build(), build()
    assert type(value).__name__ == name
    # a family caches its points when they are first read; equality ignores that
    getattr(value, "points", None)
    assert value == twin and hash(value) == hash(twin)
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert getattr(value, field) == before


def test_the_cli_import_loads_neither_dataclasses_nor_inspect():
    """Both cost start-up time on every CLI command; the difference against
    the interpreter's own start-up set keeps a site hook that loads them
    from counting."""
    code = ("import sys; before = set(sys.modules); import barypoly.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           stdout=subprocess.PIPE, text=True).stdout.split()
    assert "barypoly.cli" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added)
