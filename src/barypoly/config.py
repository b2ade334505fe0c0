"""Simulation configs: JSON parsing with full error collection, generators.

A config names a point family (explicit rows, the regular unit p-gon, or a
seeded random cloud), the parameter vector (plain numbers or exact fraction
strings such as "1/61"), an iteration count, and an output selector.  No tolerance
is settable: explicit rows are swept for distinctness at
``DEFAULT_DISTINCT_TOL``.  Validation collects every failure instead of
stopping at the first.  A CLI command lays its flags over its config
document, and the validator reads those flags (``_FIELD_FLAGS``).
"""

from __future__ import annotations

import math
import json
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any, Mapping, NamedTuple, Sequence

from .affine import DEFAULT_DISTINCT_TOL, GeometryError, PointFamily, _close_pairs
from .traceio import FORMATS as OUTPUT_FORMATS

__all__ = [
    "OUTPUT_FORMATS",
    "ConfigError",
    "FamilySpec",
    "SimulationConfig",
    "parse_number",
    "parse_config",
    "regular_ngon",
    "random_family",
    "build_family",
]

# the fields each family kind takes besides "kind"
_FAMILY_FIELDS = {"regular": ("p",), "random": ("p", "dim", "seed")}
# the command flags that set each config field, in the order fields are
# checked: a message names the flag given, else the field, and a command
# reads a field only if it has a flag for each of the field's parts
_FIELD_FLAGS = {
    "points": ("points",), "family.p": ("ngon", "random"), "family.dim": ("random",),
    "family.seed": ("seed",), "t": ("t",), "iterations": ("n",),
    "output.path": ("out",), "output.format": ("format",),
}


class ConfigError(ValueError):
    """One or more config validation failures; ``errors`` lists all of them."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def parse_number(value: Any) -> float:
    """Accept JSON numbers plus exact fraction strings like "1/61"."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"not a number: {value!r}")
    try:
        result = float(Fraction(value.strip()) if isinstance(value, str) else value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a number: {value!r}") from exc
    except OverflowError:  # "1e400", or an int beyond the float range
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"not a finite number: {value!r}")
    return result


def _label(flags: Mapping[str, Any], field: str) -> str:
    """The name of ``field`` in a message: the flag that set it, if given."""
    return next((f"--{name}" for name in _FIELD_FLAGS.get(field, ())
                 if flags.get(name) is not None), field)


def _small_p(label: str, p: int) -> str:
    """The message for a point count ``p`` below 2 given as ``label``."""
    return f"{label}: p must be at least 2, got {p}"


class FamilySpec(NamedTuple):
    """Generator for a point family: a regular p-gon on the unit circle about
    the origin, which takes only ``p``, or a seeded random cloud."""

    kind: str
    p: int
    dim: int = 2
    seed: int = 0


class SimulationConfig(NamedTuple):
    """A validated simulation request."""

    t: tuple[float, ...]
    iterations: int = 0
    points: tuple[tuple[float, ...], ...] | None = None
    family: FamilySpec | None = None
    output_format: str | None = None
    output_path: str | None = None


def _validate_points(raw: Any, label: str, errors: list[str]):
    """Coordinate rows from a list of number lists, config field or --points
    flag alike; every failure is appended to ``errors`` under ``label``."""
    if not isinstance(raw, list) or len(raw) < 2:
        errors.append(f"{label!r} must be a list of at least two coordinate rows")
        return None
    rows: list[tuple[float, ...]] = []
    dim = None
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            errors.append(f"{label}[{i}] must be a non-empty coordinate list")
            return None
        try:
            coords = tuple(parse_number(c) for c in row)
        except ValueError as exc:
            errors.append(f"{label}[{i}]: {exc}")
            return None
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            errors.append(
                f"{label}[{i}] has dimension {len(coords)}, expected {dim}"
            )
            return None
        rows.append(coords)
    for i, j in _close_pairs(rows, DEFAULT_DISTINCT_TOL):
        errors.append(f"{label} not distinct: rows {i} and {j} coincide")
    return tuple(rows)


def _validate_family(raw: Any, flags: Mapping[str, Any],
                     errors: list[str]) -> FamilySpec | None:
    if not isinstance(raw, dict):
        errors.append("'family' must be an object")
        return None
    kind = raw.get("kind")
    if kind not in _FAMILY_FIELDS:
        errors.append(f"family.kind must be one of {tuple(_FAMILY_FIELDS)}, got {kind!r}")
        return None
    stray = sorted(set(raw) - {"kind", *_FAMILY_FIELDS[kind]})
    for key in stray:
        owner = next((k for k, fields in _FAMILY_FIELDS.items() if key in fields), None)
        errors.append(f"{_label(flags, 'family.' + key)} needs a {owner} family" if owner
                      else f"unknown family key {key!r}")
    if stray:
        return None
    p = raw.get("p")
    if not isinstance(p, int) or isinstance(p, bool):
        errors.append(f"{_label(flags, 'family.p')}: p must be an integer, got {p!r}")
        return None
    if p < 2:
        errors.append(_small_p(_label(flags, "family.p"), p))
        return None
    if kind == "regular":
        return FamilySpec(kind=kind, p=p)
    dim = raw.get("dim", 2)
    if not isinstance(dim, int) or isinstance(dim, bool):
        errors.append(f"{_label(flags, 'family.dim')}: dim must be an integer, got {dim!r}")
        return None
    if dim < 1:
        errors.append(f"{_label(flags, 'family.dim')}: dim must be at least 1, got {dim}")
        return None
    seed = 0 if raw.get("seed") is None else raw["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        errors.append(f"{_label(flags, 'family.seed')} must be an unsigned 64-bit integer")
        return None
    return FamilySpec(kind=kind, p=p, dim=dim, seed=seed)


def _validate_t(raw: Any, p: int | None, label: str, errors: list[str], source: str | None):
    """The parameter vector from a number or a list of numbers, config field
    or --t flag alike, a single value broadcast to the size ``p``; every
    failure is appended to ``errors`` under ``label``.  ``source`` says where
    ``p`` comes from ("the family has 4 points", "--p is 4"), or, when
    nothing fixes ``p``, is the message for a single value; it is None when
    the family or --p failed or a needed family is missing, so only the
    values are checked, not their count."""
    values = raw if isinstance(raw, list) else [raw]
    parsed: list[float] = []
    for i, item in enumerate(values):
        try:
            parsed.append(parse_number(item))
        except ValueError as exc:
            errors.append(f"{label}[{i}]: {exc}")
    if len(parsed) < len(values):
        return None
    if source is not None:
        if len(parsed) == 1:
            if p is None:
                errors.append(source)
                return None
            parsed = parsed * p
        if len(parsed) < 2:
            errors.append(f"{label!r} needs at least two parameters")
            return None
        if p is not None and len(parsed) != p:
            errors.append(f"{label!r} has {len(parsed)} entries but {source}")
    for i, v in enumerate(parsed):
        if not 0.0 < v < 1.0:
            errors.append(f"{label}[{i}]={v!r}: parameter out of open interval (0, 1)")
    return tuple(parsed)


def parse_config(text: str) -> SimulationConfig:
    """Parse and validate a JSON config, collecting every failure."""
    return _validate_document(_read_document(text), {}, [])


def _read_document(text: str) -> dict:
    """The JSON object of a config's text, not yet validated."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    return raw


def _request(flags: Mapping[str, Any], iterations: int = 0) -> SimulationConfig:
    """A command's inputs from its parsed ``flags``: the config document
    (empty without --config, its step count ``iterations`` unless it names
    one) with each flag given laid over the field it sets, validated once."""
    doc: dict = {}
    if flags["config"] is not None:
        try:
            text = Path(flags["config"]).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError([f"cannot read config {flags['config']!r}: {exc}"]) from None
        doc = _read_document(text)
    errors: list[str] = []
    # a field the command has no flag for is reported once and dropped, so
    # it is not validated as well
    for key, names in _FIELD_FLAGS.items():
        field = key.partition(".")[0]
        if field in doc and not any(name in flags for name in names):
            errors.append(f"'{field}' is not read by {flags['command']}")
            del doc[field]
    family = None
    if flags.get("points") is not None:
        rows = [row.split(",") if row else [] for row in map(str.strip, flags["points"].split(";"))]
        family = {"points": rows}
    elif flags.get("ngon") is not None:
        family = {"family": {"kind": "regular", "p": flags["ngon"]}}
    elif flags.get("random") is not None:
        p, dim = flags["random"]
        family = {"family": {"kind": "random", "p": p, "dim": dim}}
    if family is not None:
        doc.pop("points", None)
        doc.pop("family", None)
        doc.update(family)
    if flags["t"] is not None:
        doc["t"] = [s.strip() for s in flags["t"].split(",")]
    doc.setdefault("iterations", iterations)
    if flags.get("n") is not None:
        doc["iterations"] = flags["n"]
    # an output block that is not an object is reported as it stands; figure's
    # --out names its SVG file, not output.path
    if "format" in flags and isinstance(doc.get("output", {}), dict):
        for flag, key in (("out", "path"), ("format", "format")):
            if flags[flag] is not None:
                doc["output"] = {**doc.get("output", {}), key: flags[flag]}
    if flags.get("seed") is not None:
        if isinstance(doc.get("family"), dict):
            doc["family"] = {**doc["family"], "seed": flags["seed"]}
        else:
            errors.append("--seed needs a random family: give --random or a config "
                          "family of kind 'random'")
    return _validate_document(doc, flags, errors)


def _validate_document(raw: dict, flags: Mapping[str, Any],
                       errors: list[str]) -> SimulationConfig:
    """Validate a config document, collecting every failure after the
    caller's ``errors``.  It reads the command's parsed ``flags`` (None where
    not given; none for a bare config): a message names the flag given for a
    field, and the flags a command has decide what it needs.  One with
    --points needs a family, and with --format too a path for a format; one
    with --p sizes a single 't' by it; run without its --config, one names
    the flags that give a missing 't' or family."""
    known = {"points", "family", "t", "iterations", "output"}
    for key in sorted(set(raw) - known):
        errors.append(f"unknown key {key!r}")
    # a command run without --config can be told which flags to give
    bare = "config" in flags and flags["config"] is None

    points = None
    family = None
    has_points = "points" in raw
    has_family = "family" in raw
    if has_points and has_family:
        errors.append("give either 'points' or 'family', not both")
    elif has_points:
        points = _validate_points(raw["points"], _label(flags, "points"), errors)
    elif has_family:
        family = _validate_family(raw["family"], flags, errors)
    elif "points" in flags:
        errors.append("no family: give --points, --ngon, --random, or a config file"
                      if bare else "missing key 'points' or 'family'")

    t_label = _label(flags, "t")
    # the length of 't' is the family's size or, on a command with --p, that
    # flag's; source None checks only the values of 't'
    p, source = None, None
    if points is not None or family is not None:
        p = len(points) if points is not None else family.p
        source = f"the family has {p} points"
    elif flags.get("p") is not None:
        if flags["p"] < 2:
            errors.append(_small_p("--p", flags["p"]))
        else:
            p, source = flags["p"], f"--p is {flags['p']}"
    elif not (has_points or has_family or "points" in flags):
        fix = "--p" if "p" in flags else "a family"
        source = f"a single {t_label!r} value needs {fix} to fix its length"

    t = None
    if "t" not in raw:
        errors.append("no parameters: give --t or a config file" if bare else "missing key 't'")
    else:
        t = _validate_t(raw["t"], p, t_label, errors, source)

    iterations = raw.get("iterations", 0)
    if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 0:
        errors.append(f"{_label(flags, 'iterations')!r} must be a non-negative integer")
        iterations = 0

    output_format = None
    output_path = None
    raw_output = raw.get("output")
    if raw_output is not None:
        if not isinstance(raw_output, dict):
            errors.append("'output' must be an object")
        else:
            for key in sorted(set(raw_output) - {"format", "path"}):
                errors.append(f"unknown output key {key!r}")
            output_format = raw_output.get("format")
            if output_format is not None and output_format not in OUTPUT_FORMATS:
                errors.append(
                    f"output.format must be one of {OUTPUT_FORMATS}, got {output_format!r}"
                )
            output_path = raw_output.get("path")
            if output_path is not None and not isinstance(output_path, str):
                errors.append("output.path must be a string")
            # simulate and dual print a summary unless they write a file
            elif (output_format is not None and not output_path
                  and "points" in flags and "format" in flags):
                errors.append(f"{_label(flags, 'output.format')} needs a file: "
                              "give --out or output.path")

    if errors:
        raise ConfigError(errors)
    return SimulationConfig(
        t=t,
        iterations=iterations,
        points=points,
        family=family,
        output_format=output_format,
        output_path=output_path,
    )


def regular_ngon(p: int) -> PointFamily:
    """Vertices of a regular p-gon on the unit circle about the origin,
    counter-clockwise from angle 0."""
    if p < 2:
        raise ValueError("p must be at least 2")
    angles = [2.0 * math.pi * k / p for k in range(p)]
    return PointFamily.from_coords([(math.cos(a), math.sin(a)) for a in angles])


def random_family(p: int, dim: int, seed: int = 0) -> PointFamily:
    """Seeded uniform random family in [-1, 1]^dim; deterministic per seed."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = Random(seed)
    for _ in range(64):
        rows = [tuple(rng.uniform(-1.0, 1.0) for _ in range(dim)) for _ in range(p)]
        try:
            return PointFamily.from_coords(rows, distinct_tol=1e-6)
        except GeometryError:
            pass
    raise ArithmeticError("could not draw a distinct random family")


def build_family(config: SimulationConfig) -> PointFamily:
    """Materialise the config's family, explicit rows or generator; the rows
    were already swept for distinctness when the config was validated."""
    if config.points is not None:
        return PointFamily.from_coords(config.points, require_distinct=False)
    if config.family is None:
        raise ConfigError(["config carries neither 'points' nor 'family'"])
    spec = config.family
    if spec.kind == "regular":
        return regular_ngon(spec.p)
    return random_family(spec.p, spec.dim, spec.seed)
