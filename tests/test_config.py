"""Config parsing: full error collection, fraction literals, generators."""

import hashlib
import json
import math

import pytest

from barypoly.affine import centroid
from barypoly.barypolygon import ParamVector
from barypoly.config import (
    ConfigError,
    build_family,
    parse_config,
    parse_number,
    random_family,
    regular_ngon,
)

PENTAGON_CONFIG = """
{
  "points": [[0, 0], [4, -0.5], [5.2, 2.8], [2.4, 4.6], [-0.8, 2.9]],
  "t": ["1/61", "1/41", "1/28", "1/19", "1/13"],
  "iterations": 50,
  "output": {"format": "csv", "path": "trace.csv"}
}
"""


def test_parse_number_fractions():
    assert parse_number("1/61") == 1.0 / 61.0
    assert parse_number("0.25") == 0.25
    assert parse_number(3) == 3.0
    with pytest.raises(ValueError):
        parse_number("1/0")
    with pytest.raises(ValueError):
        parse_number(True)
    with pytest.raises(ValueError):
        parse_number("abc")


@pytest.mark.parametrize("value", ["1e400", "-1e400", " 1e400 ", 10**400],
                         ids=["str", "negative", "padded", "int"])
def test_parse_number_beyond_the_float_range_is_not_finite(value):
    with pytest.raises(ValueError) as info:
        parse_number(value)
    assert str(info.value) == f"not a finite number: {value!r}"


def test_overflowing_numbers_are_collected_with_the_other_errors():
    with pytest.raises(ConfigError) as info:
        parse_config('{"points": [[0, 0], ["1e400", 1]], "t": ["1e400", 2.0]}')
    assert info.value.errors == [
        "points[1]: not a finite number: '1e400'",
        "t[0]: not a finite number: '1e400'",
    ]


def test_an_invalid_family_still_range_checks_t():
    with pytest.raises(ConfigError) as info:
        parse_config('{"family": {"kind": "regular", "p": 1}, "t": 1.5}')
    assert info.value.errors == [
        "family.p: p must be at least 2, got 1",
        "t[0]=1.5: parameter out of open interval (0, 1)",
    ]


def test_parse_pentagon_config():
    config = parse_config(PENTAGON_CONFIG)
    assert len(config.points) == 5
    assert config.t[0] == 1.0 / 61.0
    assert config.iterations == 50
    assert config.output_format == "csv"
    family = build_family(config)
    params = ParamVector(config.t)
    assert family.size == params.size == 5


def test_endpoint_parameter_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config('{"points": [[0,0],[1,0]], "t": [1.0, 0.5]}')
    assert any("out of open interval" in msg for msg in info.value.errors)


def test_duplicate_points_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config('{"points": [[0,0],[0,0],[1,1]], "t": [0.5,0.5,0.5]}')
    assert any("not distinct" in msg for msg in info.value.errors)


def test_all_errors_collected():
    bad = json.dumps({
        "points": [[0, 0], [0, 0]],
        "t": [1.5, 0.5],
        "iterations": -3,
        "bogus": 1,
    })
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    text = "\n".join(info.value.errors)
    assert "not distinct" in text
    assert "out of open interval" in text
    assert "iterations" in text
    assert "bogus" in text
    assert len(info.value.errors) >= 4


def test_syntax_error_position():
    with pytest.raises(ConfigError) as info:
        parse_config('{"t": [0.5, ]}')
    assert any("syntax error at line" in msg for msg in info.value.errors)


def test_dimension_mismatch_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config('{"points": [[0,0],[1,0,0]], "t": [0.5,0.5]}')
    assert any("dimension" in msg for msg in info.value.errors)


def test_t_length_must_match_family():
    with pytest.raises(ConfigError) as info:
        parse_config('{"points": [[0,0],[1,0]], "t": [0.5, 0.5, 0.5]}')
    assert any("entries" in msg for msg in info.value.errors)


def test_scalar_t_broadcast():
    config = parse_config('{"family": {"kind": "regular", "p": 4}, "t": 0.2}')
    assert config.t == (0.2, 0.2, 0.2, 0.2)


@pytest.mark.parametrize("text, errors", [
    ('{"family": {"kind": "regular", "p": 3, "seed": 5}, "t": 0.5}',
     ["family.seed needs a random family"]),
    # no family kind takes a radius or a center: a regular family is the unit p-gon
    ('{"family": {"kind": "random", "p": 3, "seed": 1, "radius": 100, "center": [50, 50]},'
     ' "t": 0.5}',
     ["unknown family key 'center'", "unknown family key 'radius'"]),
    ('{"family": {"kind": "regular", "p": 3, "radius": 2, "center": [1, -1]}, "t": 0.3}',
     ["unknown family key 'center'", "unknown family key 'radius'"]),
    ('{"family": {"kind": "regular", "p": 3, "dim": 2}, "t": 0.3}',
     ["family.dim needs a random family"]),
    ('{"family": {"kind": "random", "p": 3, "sides": 4}, "t": 0.5}',
     ["unknown family key 'sides'"]),
    ('{"points": [[0, 0], [1, 0]], "t": 0.5, "output": {"fromat": "json", "path": "o.csv"}}',
     ["unknown output key 'fromat'"]),
    ('{"points": [[0, 0], [1, 0]], "t": 0.5, "output": {"format": "svg"}}',
     ["output.format must be one of ('csv', 'json'), got 'svg'"]),
    # no tolerance is settable, so a tolerances block is an unknown key
    ('{"points": [[0, 0], [1, 0]], "t": 0.5, "tolerances": {"distinct": 1e-9}}',
     ["unknown key 'tolerances'"]),
], ids=["regular-seed", "random-radius-center", "regular-radius-center", "regular-dim",
        "unknown-family-key", "output-typo", "output-svg", "unknown-tolerance"])
def test_a_field_the_run_would_ignore_is_an_error(text, errors):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.errors == errors


def test_a_config_without_parameters_names_the_missing_key():
    with pytest.raises(ConfigError) as info:
        parse_config("{}")
    assert info.value.errors == ["missing key 't'"]


def test_a_single_t_without_a_family_names_the_family_in_a_config():
    with pytest.raises(ConfigError) as info:
        parse_config('{"t": 0.2}')
    assert info.value.errors == ["a single 't' value needs a family to fix its length"]


def test_regular_ngon_geometry():
    fam = regular_ngon(6)
    assert fam.size == 6
    assert centroid(fam).coords == pytest.approx((0.0, 0.0), abs=1e-12)
    for pt in fam.points:
        assert math.hypot(*pt.coords) == pytest.approx(1.0, abs=1e-12)


def test_random_family_deterministic():
    a = random_family(5, 3, seed=42)
    b = random_family(5, 3, seed=42)
    c = random_family(5, 3, seed=43)
    assert [pt.coords for pt in a.points] == [pt.coords for pt in b.points]
    assert [pt.coords for pt in a.points] != [pt.coords for pt in c.points]


# sha256 of repr([rows of random_family(p, dim, seed) for each seed]), recorded
# with the separation pass that ran before the family's own distinctness check;
# at p = 1000, d = 1 seeds 2, 4 and 5 redraw a family with two points 1e-6 apart
@pytest.mark.parametrize("p, dim, seeds, digest", [
    (3, 2, range(51), "7bf607a9ffd20619acad907e7e14d591942a0b7fefa88bddb9ea80bf8e5a3c1d"),
    (10, 2, range(51), "1d95592558f2a010ebd2b57b096e63616e8c4c172b41bb88efdb01edd899d7f0"),
    (12, 2, range(51), "7298fa6115278d83774c942086deaeb8a878194c8075ee57793143349d43a74b"),
    (1000, 1, range(6), "250513f1317033292af114f2a51f4e24abd5d73a9491a55cfc3dca04ee9aa4db"),
])
def test_random_family_draws_are_unchanged(p, dim, seeds, digest):
    rows = [[pt.coords for pt in random_family(p, dim, seed).points] for seed in seeds]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_a_crowded_random_family_keeps_its_last_draw():
    # at p = 3000, d = 1 every draw has two rows within 1e-6, so all 64 are
    # drawn; the last is kept, since its rows need only be distinct
    rows = [pt.coords for pt in random_family(3000, 1, seed=1).points]
    assert len(set(rows)) == len(rows) == 3000
    assert all(-1.0 <= x <= 1.0 for (x,) in rows)


def test_regular_ngon_rows_are_unchanged():
    # sha256 of every regular_ngon row for p = 2..64, recorded when the p-gon
    # could still be scaled and moved (radius 1 about the origin)
    rows = [[pt.coords for pt in regular_ngon(p).points] for p in range(2, 65)]
    assert (hashlib.sha256(repr(rows).encode()).hexdigest()
            == "56259f108a44fee03b15a771d6279b81eb5772b3eadb2dea71ee5540f33ca169")


def test_family_spec_validation():
    with pytest.raises(ConfigError) as info:
        parse_config('{"family": {"kind": "spiral", "p": 4}, "t": 0.2}')
    assert any("family.kind" in msg for msg in info.value.errors)
    with pytest.raises(ConfigError):
        parse_config('{"family": {"kind": "regular", "p": 1}, "t": 0.2}')
    with pytest.raises(ConfigError):
        parse_config('{"family": {"kind": "regular", "p": 4, "dim": 3}, "t": 0.2}')


def test_points_and_family_exclusive():
    with pytest.raises(ConfigError) as info:
        parse_config('{"points": [[0,0],[1,1]], '
                     '"family": {"kind": "regular", "p": 3}, "t": 0.5}')
    assert any("not both" in msg for msg in info.value.errors)
