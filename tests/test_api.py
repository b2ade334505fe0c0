"""Every public name of the package has a caller outside the tests."""

import ast
import importlib
import re
from pathlib import Path

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
