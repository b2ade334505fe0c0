"""CLI surface: subcommands, exit codes, determinism."""

import json
import re
import shlex
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from barypoly import affine, config as config_module
from barypoly.affine import _close_pairs
from barypoly.cli import cli_dispatch
from barypoly.derived import solve_alpha


def run(capsys, argv):
    code = cli_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(text):
    """A CSV trace's header and its rows as floats."""
    header, *lines = text.splitlines()
    return header.split(","), [[float(cell) for cell in line.split(",")] for line in lines]


def test_readme_config_example_runs_as_written(capsys, tmp_path, monkeypatch):
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n### Config files\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(block, encoding="utf-8")
    code, out, err = run(capsys, ["simulate", "--config", "run.json"])
    assert (code, err) == (0, "")
    assert out == "wrote csv trace of 51 families to trace.csv\n"
    assert len(Path("trace.csv").read_text(encoding="utf-8").splitlines()) == 52


def test_readme_cli_block_runs_as_written(capsys, tmp_path, monkeypatch):
    readme = README.read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", "").splitlines()
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "barypoly", line
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), line
        # a comment that is a single literal is the first line printed
        comment = line.partition("#")[2].split()
        if len(comment) == 1:
            assert out.splitlines()[0] == comment[0], line


def test_alpha_p3(capsys):
    code, out, err = run(capsys, ["alpha", "--p", "3"])
    assert code == 0 and err == ""
    assert out.strip() == "0.6180339887498949"
    assert float(out) == pytest.approx(solve_alpha(3), abs=1e-12)


def test_alpha_p2(capsys):
    code, out, _ = run(capsys, ["alpha", "--p", "2"])
    assert code == 0
    assert float(out) == 0.5


def test_alpha_bad_p(capsys):
    code, _, err = run(capsys, ["alpha", "--p", "1"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("p", [1, 0, -5])
def test_alpha_names_the_p_flag_as_classify_does(capsys, p):
    code, out, err = run(capsys, ["alpha", "--p", str(p)])
    assert (code, out) == (1, "")
    assert err == f"error: --p: p must be at least 2, got {p}\n"
    assert run(capsys, ["classify", "--p", str(p), "--t", "0.5"])[2] == err


def test_classify_stationary(capsys):
    code, out, _ = run(capsys, ["classify", "--t", "0.3,0.7"])
    assert code == 0
    assert out.splitlines()[0] == "Stationary"


def test_classify_periodic(capsys):
    code, out, _ = run(capsys, ["classify", "--t", "0.3,0.5"])
    assert code == 0
    assert out.splitlines()[0] == "Periodic2"


def test_classify_alternating_with_lockin(capsys):
    code, out, _ = run(capsys, ["classify", "--t", "0.2,0.3,0.4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "AlternatingDivergent"
    assert "lockin_index=1" in lines
    assert "parity=odd" in lines


def test_classify_broadcast_t(capsys):
    code, out, _ = run(capsys, ["classify", "--t", "0.2", "--p", "4"])
    assert code == 0
    assert out.splitlines()[0] == "AlternatingDivergent"


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 2
    assert "usage error" in err


def test_missing_required_argument(capsys):
    code, _, _ = run(capsys, ["alpha"])
    assert code == 2


def test_no_subcommand(capsys):
    assert run(capsys, [])[0] == 2


def test_invalid_parameter_lists_failures(capsys):
    code, _, err = run(capsys, ["classify", "--t", "1.5,0.2,-3"])
    assert code == 1
    assert err.count("error:") == 2


def test_simulate_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, [
        "simulate", "--points", "0,0;1,0;0,1", "--t", "1/2,1/3,1/4",
        "--n", "5", "--out", str(out_path), "--format", "csv",
    ])
    assert code == 0
    header, rows = read_csv(out_path.read_text())
    assert header[0] == "step"
    assert len(rows) == 6


def test_simulate_summary(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--points", "0,0;1,0;0,1", "--t", "1/2,1/3,1/4", "--n", "5",
    ])
    assert code == 0
    assert "final_diameter=" in out
    limit_line = next(line for line in out.splitlines() if line.startswith("limit="))
    x, y = (float(v) for v in limit_line.split("=")[1].split(","))
    assert x == pytest.approx(9 / 29, abs=1e-12)
    assert y == pytest.approx(8 / 29, abs=1e-12)


def test_simulate_summary_bytes(capsys):
    # printed by the stored-trace implementation; the summary must not move
    code, out, _ = run(capsys, [
        "simulate", "--ngon", "5", "--t", "0.3,0.4,0.5,0.6,0.7", "--n", "50",
    ])
    assert code == 0
    assert out == (
        "p=5 d=2 steps=50\n"
        "final_diameter=1.3541743824995988e-05\n"
        "limit=-0.061025366270427282,-0.17193343450719537\n"
        "final_gap=8.3336957873069558e-06\n"
    )


def test_simulate_summary_beyond_trace_cap(capsys):
    # the summary keeps only the final family, so the trace cap does not apply
    code, out, err = run(capsys, [
        "simulate", "--ngon", "5", "--t", "0.3,0.4,0.5,0.6,0.7", "--n", "10000",
    ])
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "p=5 d=2 steps=10000"


def test_simulate_trace_file_keeps_cap(capsys, tmp_path):
    # the file is written row by row, so the old cap of 10,000 iterates is gone
    path = tmp_path / "trace.csv"
    code, out, err = run(capsys, [
        "simulate", "--ngon", "5", "--t", "0.3,0.4,0.5,0.6,0.7", "--n", "10000",
        "--out", str(path),
    ])
    assert code == 0 and err == ""
    assert out == f"wrote csv trace of 10001 families to {path}\n"
    assert len(path.read_text(encoding="utf-8").splitlines()) == 10_002


# no tolerance is settable, so a --tol-* flag is a usage error whatever its value
@pytest.mark.parametrize("value", ["-1", "nan", "0", "inf"])
@pytest.mark.parametrize("flag", ["--tol-stationary", "--tol-periodic", "--tol-regular"])
def test_classify_rejects_bad_tolerance_flag(capsys, flag, value):
    code, out, err = run(capsys, ["classify", "--t", "0.3,0.7", flag, value])
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: unrecognized arguments: {flag}")


def test_classify_reports_an_overflowing_t_flag(capsys):
    code, out, err = run(capsys, ["classify", "--t", "1e400,0.3,0.4"])
    assert code == 1
    assert out == ""
    assert "error: --t[0]: not a finite number: '1e400'" in err


@pytest.mark.parametrize("value", ["-1", "nan", "0"])
def test_simulate_rejects_bad_distinct_tolerance(capsys, value):
    code, out, err = run(capsys, [
        "simulate", "--points", "0,0;1,0;0,1", "--t", "0.5", "--tol-distinct", value,
    ])
    assert code == 2 and out == ""
    assert err.startswith("usage error: unrecognized arguments: --tol-distinct")


@pytest.mark.parametrize("command", ["dual", "figure"])
def test_family_commands_have_no_distinct_tolerance_flag(capsys, command):
    code, out, err = run(capsys, [command, "--points", "0,0;1,0;0,1", "--t", "0.5",
                                  "--tol-distinct", "1e-9"])
    assert (code, out) == (2, "")
    assert err == "usage error: unrecognized arguments: --tol-distinct 1e-9\n"


# the family fixes p, so only classify and derive, which read no family, take --p
@pytest.mark.parametrize("command", ["simulate", "dual", "figure"])
def test_family_commands_have_no_p_flag(capsys, command):
    code, out, err = run(capsys, [command, "--ngon", "4", "--t", "0.3", "--p", "4"])
    assert (code, out) == (2, "")
    assert err == "usage error: unrecognized arguments: --p 4\n"


@pytest.mark.parametrize("command", ["simulate", "derive", "dual", "classify", "figure", "alpha"])
def test_help_returns_0_and_only_the_sizing_commands_take_p(capsys, command):
    code, out, err = run(capsys, [command, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: barypoly {command} ")
    assert bool(re.search(r"--p\b", out)) == (command in ("classify", "derive", "alpha"))


def test_family_flag_replaces_the_config_family(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"points": [[0, 0], [0, 0]], "t": 0.5}))
    code, out, err = run(capsys, ["simulate", "--config", str(config), "--ngon", "4"])
    assert code == 0 and err == ""
    assert out.startswith("p=4 d=2 steps=0\n")


@pytest.mark.parametrize("family_flags", [
    ["--points", "0,0;1,0;0,1", "--ngon", "4"],
    ["--ngon", "4", "--random", "5", "2"],
    ["--points", "0,0;1,0;0,1", "--random", "5", "2"],
], ids=["points-ngon", "ngon-random", "points-random"])
@pytest.mark.parametrize("command", ["simulate", "dual", "figure"])
def test_conflicting_family_flags_are_a_usage_error(capsys, command, family_flags):
    code, out, err = run(capsys, [command, *family_flags, "--t", "0.5"])
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


def test_an_invalid_family_reports_only_its_own_error(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text('{"family": {"kind": "random", "p": 3, "seed": -1}, "t": 0.5}')
    code, out, err = run(capsys, ["simulate", "--config", str(config)])
    assert code == 1 and out == ""
    assert err == "error: family.seed must be an unsigned 64-bit integer\n"


def test_seed_flag_reseeds_a_random_family_and_is_an_error_elsewhere(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text('{"family": {"kind": "random", "p": 3, "seed": 1}, "t": 0.5}')
    seeded = ["simulate", "--random", "3", "2", "--t", "0.5"]
    code, out, err = run(capsys, ["simulate", "--config", str(config), "--seed", "7"])
    assert code == 0 and err == ""
    assert out == run(capsys, [*seeded, "--seed", "7"])[1]
    assert out != run(capsys, [*seeded, "--seed", "1"])[1]
    for argv in (["--ngon", "3", "--seed", "-1"], ["--ngon", "3", "--seed", "7"],
                 ["--points", "0,0;1,0;0,1", "--seed", "7"]):
        code, out, err = run(capsys, ["simulate", *argv, "--t", "0.5"])
        assert code == 1 and out == ""
        assert err.startswith("error: --seed needs a random family")


def test_p_flag_must_match_the_family_and_is_named(capsys):
    code, out, err = run(capsys, ["classify", "--t", "0.2,0.3,0.4", "--p", "4"])
    assert code == 1 and out == ""
    assert err == "error: '--t' has 3 entries but --p is 4\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--t", "0.5", "--p", "0"],
    ["classify", "--t", "0.5", "--p", "-1"],
    ["classify", "--t", "0.5", "--p", "1"],
    ["classify", "--t", "0.2,0.3", "--p", "1"],
    ["derive", "--t", "0.5", "--p", "0"],
])
def test_p_below_two_is_blamed_on_p(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"error: --p: p must be at least 2, got {argv[-1]}\n"


@pytest.mark.parametrize("orders", ["0-5", "0"])
def test_figure_out_with_out_dir_is_a_usage_error(capsys, tmp_path, orders):
    out_path, out_dir = tmp_path / "fig.svg", tmp_path / "figs"
    code, out, err = run(capsys, ["figure", "--ngon", "4", "--t", "0.2", "--orders", orders,
                                  "--out", str(out_path), "--out-dir", str(out_dir)])
    assert code == 2 and out == ""
    assert "not allowed with argument" in err
    assert not out_path.exists() and not out_dir.exists()


@pytest.mark.parametrize("orders", ["0-5", "0"])
def test_figure_orders_with_dual_is_a_usage_error(capsys, tmp_path, orders):
    out_dir = tmp_path / "figs"
    code, out, err = run(capsys, ["figure", "--ngon", "4", "--t", "0.2", "--dual",
                                  "--orders", orders, "--out-dir", str(out_dir)])
    assert code == 2 and out == ""
    assert "not allowed with argument" in err
    assert not out_dir.exists()


def test_json_trace_carries_the_run_tolerances(capsys, tmp_path):
    # no tolerance is settable, so the key is always null
    argv = ["simulate", "--points", "0,0;1,0;0,1", "--t", "0.5", "--n", "2",
            "--format", "json", "--out"]
    assert run(capsys, [*argv, str(tmp_path / "plain.json")])[0] == 0
    assert json.loads((tmp_path / "plain.json").read_text())["tolerances"] is None


def test_empty_points_row_is_an_error(capsys):
    code, out, err = run(capsys, ["simulate", "--points", "0,0;;1,1", "--t", "0.5"])
    assert code == 1 and out == ""
    assert err == "error: --points[1] must be a non-empty coordinate list\n"


TRIANGLE_ROWS = [[0, 0], [1, 0], [0, 1]]
# a config whose rows fail has no family size, so a single t could not be broadcast
T, T_CSV = [0.2, 0.3, 0.4], "0.2,0.3,0.4"


@pytest.mark.parametrize("flags, fields, flag_label, field_label", [
    (["--points", "0,0;a,1;0,1", "--t", T_CSV],
     {"points": [[0, 0], ["a", 1], [0, 1]], "t": T}, "--points", "points"),
    (["--points", "0,0;1,0;0,1", "--t", "0.2,abc,0.4"],
     {"points": TRIANGLE_ROWS, "t": [0.2, "abc", 0.4]}, "--t", "t"),
    (["--points", "0,0;1e400,1;0,1", "--t", T_CSV],
     {"points": [[0, 0], ["1e400", 1], [0, 1]], "t": T}, "--points", "points"),
    (["--points", "0,0;1,0;0,1", "--t", "1e400,0.3,0.4"],
     {"points": TRIANGLE_ROWS, "t": ["1e400", 0.3, 0.4]}, "--t", "t"),
    (["--points", "0,0;1,0;0,1", "--t", "0.2,1.5,0"],
     {"points": TRIANGLE_ROWS, "t": [0.2, 1.5, 0]}, "--t", "t"),
    (["--points", "0,0;1,0;0,1", "--t", "0.2,0.3"],
     {"points": TRIANGLE_ROWS, "t": [0.2, 0.3]}, "--t", "t"),
    (["--points", "0,0", "--t", T_CSV], {"points": [[0, 0]], "t": T}, "--points", "points"),
    (["--points", "0,0;1,0,0;0,1", "--t", T_CSV],
     {"points": [[0, 0], [1, 0, 0], [0, 1]], "t": T}, "--points", "points"),
    (["--points", "0,0;1,0;0,0;1,0", "--t", "0.5"],
     {"points": [[0, 0], [1, 0], [0, 0], [1, 0]], "t": 0.5}, "--points", "points"),
    (["--points", "0,0;;0,1", "--t", T_CSV],
     {"points": [[0, 0], [], [0, 1]], "t": T}, "--points", "points"),
    (["--points", "0,0;1,0;0,1", "--t", T_CSV, "--n", "-1"],
     {"points": TRIANGLE_ROWS, "t": T, "iterations": -1}, "--n", "iterations"),
    (["--ngon", "0", "--t", "0.5"],
     {"family": {"kind": "regular", "p": 0}, "t": 0.5}, "--ngon", "family.p"),
    (["--random", "1", "2", "--t", "0.5"],
     {"family": {"kind": "random", "p": 1, "dim": 2}, "t": 0.5}, "--random", "family.p"),
    (["--random", "3", "0", "--t", T_CSV],
     {"family": {"kind": "random", "p": 3, "dim": 0}, "t": T}, "--random", "family.dim"),
    (["--random", "3", "2", "--seed", "-1", "--t", "0.5"],
     {"family": {"kind": "random", "p": 3, "dim": 2, "seed": -1}, "t": 0.5},
     "--seed", "family.seed"),
    (["--random", "3", "2", "--seed", str(2**64), "--t", "0.5"],
     {"family": {"kind": "random", "p": 3, "dim": 2, "seed": 2**64}, "t": 0.5},
     "--seed", "family.seed"),
    (["--ngon", "3", "--seed", "5", "--t", "0.5"],
     {"family": {"kind": "regular", "p": 3, "seed": 5}, "t": 0.5}, "--seed", "family.seed"),
], ids=["point-not-a-number", "t-not-a-number", "point-overflow", "t-overflow",
        "t-out-of-range", "t-wrong-length", "one-point", "dimension-mismatch",
        "duplicate-rows", "empty-row", "negative-steps",
        "ngon-too-small", "random-too-small", "random-no-dimension",
        "negative-seed", "seed-beyond-64-bits", "seed-on-a-regular-family"])
def test_flags_and_config_fields_report_the_same_errors(
        capsys, tmp_path, flags, fields, flag_label, field_label):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(fields))
    flag_code, flag_out, flag_err = run(capsys, ["simulate", *flags])
    code, out, err = run(capsys, ["simulate", "--config", str(config)])
    assert flag_code == code == 1 and flag_out == out == ""
    assert flag_label in flag_err
    assert flag_err.replace(flag_label, field_label) == err


@pytest.mark.parametrize("argv, errors", [
    (["simulate", "--ngon", "3", "--t", "0.2", "--seed", "5", "--format", "json"],
     ["--seed needs a random family", "--format needs a file: give --out or output.path"]),
    (["simulate", "--points", "0,0;1,0;0,1", "--seed", "5", "--n", "-1"],
     ["--seed needs a random family: give --random or a config family of kind 'random'",
      "no parameters: give --t or a config file", "'--n' must be a non-negative integer"]),
    (["simulate", "--t", "0.2,1.5"],
     ["no family: give --points, --ngon, --random, or a config file",
      "--t[1]=1.5: parameter out of open interval (0, 1)"]),
    (["dual"], ["no family: give --points, --ngon, --random, or a config file",
                "no parameters: give --t or a config file"]),
    (["figure", "--t", "0.3"], ["no family: give --points, --ngon, --random, or a config file"]),
    # with a config file the missing key is named
    (["simulate", "--config", {"family": {"kind": "regular", "p": 3}}], ["missing key 't'"]),
    (["classify", "--config", {}], ["missing key 't'"]),
    (["derive", "--config", {}, "--p", "1"],
     ["--p: p must be at least 2, got 1", "missing key 't'"]),
    (["figure", "--config", {"t": 0.3}], ["missing key 'points' or 'family'"]),
], ids=["seed-and-format", "seed-parameters-steps", "family-and-t", "family-and-parameters",
        "figure-family", "config-parameters", "config-empty", "config-empty-small-p",
        "config-family"])
def test_missing_inputs_are_reported_with_the_validation_errors(
        capsys, tmp_path, argv, errors):
    # a dict in argv is the config file's document
    config = tmp_path / "run.json"
    for arg in argv:
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
    code, out, err = run(capsys, [str(config) if isinstance(a, dict) else a for a in argv])
    assert code == 1 and out == ""
    assert err == "".join(f"error: {message}\n" for message in errors)


def test_the_field_flag_table_names_real_flags_and_fields(capsys):
    helps = "".join(run(capsys, [command, "--help"])[1]
                    for command in ("simulate", "derive", "dual", "classify", "figure"))
    for field, flags in config_module._FIELD_FLAGS.items():
        for flag in flags:
            assert re.search(rf"--{flag}(?![\w-])", helps), flag
        top, _, part = field.partition(".")
        assert (field.replace(".", "_") in config_module.SimulationConfig._fields
                or top in config_module.SimulationConfig._fields
                and part in config_module.FamilySpec._fields), field


@pytest.mark.parametrize("command", ["classify", "derive"])
def test_a_single_t_flag_without_p_names_the_p_flag(capsys, tmp_path, command):
    code, out, err = run(capsys, [command, "--t", "0.2"])
    assert code == 1 and out == ""
    assert err == "error: a single '--t' value needs --p to fix its length\n"
    assert run(capsys, [command, "--t", "0.2", "--p", "3"])[0] == 0
    # a single config t has no family either: --p is its fix too
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"t": 0.2}))
    code, out, err = run(capsys, [command, "--config", str(config)])
    assert (code, out) == (1, "")
    assert err == "error: a single 't' value needs --p to fix its length\n"
    assert run(capsys, [command, "--config", str(config), "--p", "3"])[0] == 0


def test_derive_stdout_csv(capsys):
    code, out, _ = run(capsys, ["derive", "--t", "0.2,0.3,0.4", "--n", "3"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["step", "t1", "t2", "t3"]
    assert rows[1][1:] == pytest.approx([0.42, 0.48, 0.56], abs=1e-15)


def test_derive_json_file(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    code, _, _ = run(capsys, [
        "derive", "--t", "0.2,0.3,0.4", "--n", "40",
        "--out", str(out_path), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "derived"
    assert doc["saturated_at"] is not None


def test_derive_out_reports_the_trace_steps(capsys, tmp_path):
    out_path = tmp_path / "o.csv"
    code, out, _ = run(capsys, ["derive", "--t", "0.2,0.3,0.4", "--n", "6", "--out", str(out_path)])
    assert code == 0
    assert out == f"wrote csv trace of 6 steps to {out_path}\n"
    assert len(read_csv(out_path.read_text())[1]) == 7


def test_dual_report(capsys):
    code, out, _ = run(capsys, ["dual", "--ngon", "3", "--t", "0.2,0.3,0.4", "--n", "40"])
    assert code == 0
    assert "first_below=" in out
    assert "final_distance=" in out


@pytest.mark.parametrize("command", ["simulate", "dual"])
def test_a_triangle_below_1e_12_is_a_family(capsys, command):
    # rows that differ are distinct at any scale, here 1e-13 apart
    code, out, err = run(capsys, [command, "--points", "0,0;1e-13,0;0,1e-13",
                                  "--t", "0.2,0.3,0.4", "--n", "50"])
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("command", ["simulate", "dual"])
def test_a_1000_point_family_runs_where_its_limit_products_underflow(capsys, command):
    # every factor 1 - t is 0.4, so the products of 999 of them underflow to
    # 0.0; both commands exited 1 with "weights must be finite and positive,
    # got 0.0".  Equal parameters give equal weights: the limit, and dual's
    # one point G_0, is the centroid
    code, out, err = run(capsys, [command, "--random", "1000", "2", "--t", "0.6", "--n", "10"])
    assert (code, err) == (0, "")
    fields = dict(row.split("=") for row in out.splitlines()[1:] if row.count("=") == 1)
    if command == "simulate":
        g = affine.centroid(config_module.random_family(1000, 2))
        limit = [float(c) for c in fields["limit"].split(",")]
        assert limit == pytest.approx(g.coords, abs=1e-15)
    else:
        assert float(fields["final_distance"]) <= 1e-15


@pytest.mark.parametrize("command", ["dual", "simulate", "figure"])
def test_ngon_zero_reports_the_real_error(capsys, command):
    code, out, err = run(capsys, [command, "--ngon", "0", "--t", "0.2,0.3,0.4"])
    assert code == 1 and out == ""
    assert "p must be at least 2" in err
    assert "no family" not in err


def test_figure_single(capsys, tmp_path):
    out_path = tmp_path / "fig.svg"
    code, _, _ = run(capsys, [
        "figure", "--ngon", "5", "--t", "0.2", "--n", "10",
        "--orders", "0", "--out", str(out_path),
    ])
    assert code == 0
    root = ET.fromstring(out_path.read_text())
    assert root.get("version") == "1.1"


def test_figure_order_range(capsys, tmp_path):
    code, _, _ = run(capsys, [
        "figure", "--ngon", "4", "--t", "0.2", "--n", "12",
        "--orders", "0-5", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    files = sorted(tmp_path.glob("derived_*.svg"))
    assert len(files) == 6
    # a repeated order is drawn once, in the order first given
    code, out, err = run(capsys, ["figure", "--ngon", "3", "--t", "0.3", "--orders", "0,0,1",
                                  "--out-dir", str(tmp_path / "repeats")])
    assert (code, err) == (0, "")
    assert out == "".join(f"wrote {tmp_path / 'repeats' / f'derived_{k}.svg'}\n" for k in (0, 1))
    code, out, err = run(capsys, ["figure", "--ngon", "3", "--t", "0.3", "--orders", "3,1",
                                  "--out-dir", str(tmp_path / "descending")])
    assert (code, err) == (0, "")
    assert out == "".join(f"wrote {tmp_path / 'descending' / f'derived_{k}.svg'}\n"
                          for k in (3, 1))
    one = tmp_path / "one.svg"
    code, out, err = run(capsys, ["figure", "--ngon", "3", "--t", "0.3", "--orders", "2,2",
                                  "--out", str(one)])
    assert (code, out, err) == (0, f"wrote {one}\n", "")


def test_figure_holds_one_order_at_a_time(capsys, tmp_path):
    # each order's SVG is written before the next is rendered, so the peak
    # for 41 orders stays near the peak for one
    def peak(orders):
        argv = ["figure", "--ngon", "3", "--t", "0.3819,0.3819,0.3819", "--n", "300",
                "--orders", orders, "--out-dir", str(tmp_path / orders)]
        # an untraced first run fills the caches and free lists it leaves behind
        assert cli_dispatch(argv) == 0
        tracemalloc.start()
        try:
            assert cli_dispatch(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    assert peak("0-40") <= 1.5 * peak("0")
    assert len(list((tmp_path / "0-40").iterdir())) == 41


def test_figure_deterministic(capsys, tmp_path):
    argv = ["figure", "--ngon", "4", "--t", "0.2", "--n", "6", "--orders", "1"]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, argv + ["--out", str(a)])[0] == 0
    assert run(capsys, argv + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_figure_dual_path(capsys, tmp_path):
    out_path = tmp_path / "dual.svg"
    code, _, _ = run(capsys, [
        "figure", "--ngon", "3", "--t", "0.2,0.3,0.4", "--n", "30",
        "--dual", "--out", str(out_path),
    ])
    assert code == 0
    text = out_path.read_text()
    root = ET.fromstring(text)
    assert root.get("version") == "1.1"
    assert "<polyline" in text


def test_figure_dual_out_dir_does_not_overwrite_order_0(capsys, tmp_path):
    argv = ["figure", "--ngon", "3", "--t", "0.2,0.3,0.4", "--n", "10", "--out-dir", str(tmp_path)]
    assert run(capsys, [*argv, "--orders", "0"])[0] == 0
    order_0 = (tmp_path / "derived_0.svg").read_bytes()
    code, out, err = run(capsys, [*argv, "--dual"])
    assert (code, err) == (0, "")
    assert out == f"wrote {tmp_path / 'dual.svg'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["derived_0.svg", "dual.svg"]
    assert (tmp_path / "derived_0.svg").read_bytes() == order_0


def test_figure_unreachable_order(capsys):
    code, _, err = run(capsys, [
        "figure", "--ngon", "3", "--t", "0.2,0.3,0.4", "--orders", "0-50",
        "--out-dir", "/tmp/should-not-matter",
    ])
    assert code == 1
    assert "saturate" in err


def test_figure_unreachable_orders_share_one_line(capsys, tmp_path):
    # this start saturates at step 19, so orders 19..100000 are out of reach
    code, stdout, err = run(capsys, [
        "figure", "--ngon", "3", "--t", "0.2,0.3,0.4", "--orders", "0-100000",
        "--out-dir", str(tmp_path / "figs"),
    ])
    assert code == 1 and stdout == ""
    assert err == ("error: 99982 derived orders, 19 to 100000, not reachable: "
                   "parameters saturate at step 19\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", [["--orders", "12", "--out", "x.svg"],
                                    ["--orders", "0-12", "--out-dir", "figs"]])
def test_figure_saturated_order_is_unreachable(capsys, tmp_path, target):
    # derived entry 12 of this start is (1.0, 1.0, 1.0): saturated_at is 12
    *flags, out = target
    code, stdout, err = run(capsys, [
        "figure", "--ngon", "3", "--t", "0.999,0.5,0.5", "--n", "5",
        *flags, str(tmp_path / out),
    ])
    assert code == 1 and stdout == ""
    assert err == "error: derived order 12 not reachable: parameters saturate at step 12\n"
    assert list(tmp_path.iterdir()) == []


def test_config_file_drives_simulate(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        '{"family": {"kind": "regular", "p": 4}, "t": 0.2, "iterations": 3}'
    )
    code, out, _ = run(capsys, ["simulate", "--config", str(config)])
    assert code == 0
    assert "p=4" in out


def test_config_output_block_drives_destination(capsys, tmp_path):
    import json

    out_path = tmp_path / "from_config.json"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "points": [[0, 0], [1, 0], [0, 1]],
        "t": [0.2, 0.3, 0.4],
        "iterations": 4,
        "output": {"format": "json", "path": str(out_path)},
    }))
    code, _, _ = run(capsys, ["simulate", "--config", str(config)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "polygon"
    assert len(doc["steps"]) == 5


@pytest.mark.parametrize("command", ["simulate", "dual"])
def test_a_format_needs_a_file_where_stdout_has_a_summary(capsys, tmp_path, command):
    family = ["--points", "0,0;1,0;0,1", "--t", "0.5"]
    code, out, err = run(capsys, [command, *family, "--format", "json"])
    assert (code, out) == (1, "")
    assert err == "error: --format needs a file: give --out or output.path\n"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"points": TRIANGLE_ROWS, "t": 0.5,
                                  "output": {"format": "json"}}))
    code, out, err = run(capsys, [command, "--config", str(config)])
    assert (code, out) == (1, "")
    assert err == "error: output.format needs a file: give --out or output.path\n"
    # derive prints its trace, so the format alone is enough there
    code, out, _ = run(capsys, ["derive", "--t", "0.2,0.3,0.4", "--n", "1", "--format", "json"])
    assert code == 0 and json.loads(out)["kind"] == "derived"


@pytest.mark.parametrize("command, fields, flags", [
    ("classify", {}, []),
    ("figure", {"points": TRIANGLE_ROWS}, ["--out", "figure.svg"]),
    # an output block that is not read is not validated either
    ("classify", {"output": {"format": "xml"}}, []),
])
def test_commands_that_write_no_trace_reject_an_output_block(
        capsys, tmp_path, monkeypatch, command, fields, flags):
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(json.dumps({
        "t": [0.2, 0.3, 0.4], "output": {"format": "json", "path": "trace.json"}, **fields}))
    code, out, err = run(capsys, [command, "--config", "run.json", *flags])
    assert (code, out) == (1, "")
    assert err == f"error: 'output' is not read by {command}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


# no command reads a tolerance: a tolerances block, whatever it holds, is an
# unknown key, and its values are not validated
@pytest.mark.parametrize("command, fields", [
    ("classify", {"tolerances": {"distinct": 1e-9}}),
    ("derive", {"tolerances": {"stationary": 1e-9}}),
    ("dual", {"points": TRIANGLE_ROWS, "tolerances": {"regular": 1e-9}}),
    ("derive", {"tolerances": {"stationary": "abc"}}),
    ("derive", {"tolerances": {"foo": 1e-9}}),
    ("derive", {"tolerances": 5}),
    ("simulate", {"points": TRIANGLE_ROWS, "tolerances": {"distinct": 1e-9}}),
    ("figure", {"points": TRIANGLE_ROWS, "tolerances": {"distinct": 1e-9}}),
], ids=["classify-fields0-distinct", "derive-fields1-stationary", "dual-fields2-regular",
        "derive-fields3-stationary", "derive-fields4-foo", "derive-non-object",
        "simulate-distinct", "figure-distinct"])
def test_commands_reject_a_tolerance_they_do_not_read(capsys, tmp_path, command, fields):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"t": [0.2, 0.3, 0.4], **fields}))
    code, out, err = run(capsys, [command, "--config", str(config)])
    assert (code, out) == (1, "")
    assert err == "error: unknown key 'tolerances'\n"


def test_classify_rejects_a_config_iteration_count(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"t": [0.2, 0.5, 0.7], "iterations": 50}))
    code, out, err = run(capsys, ["classify", "--config", str(config)])
    assert (code, out) == (1, "")
    assert err == "error: 'iterations' is not read by classify\n"


def test_an_unread_field_is_reported_with_the_other_errors(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"t": [0.2, 0.3, 0.4], "iterations": 50}))
    code, out, err = run(capsys, ["classify", "--config", str(config), "--t", "0.2,abc,0.4"])
    assert (code, out) == (1, "")
    assert err == ("error: 'iterations' is not read by classify\n"
                   "error: --t[1]: not a number: 'abc'\n")
    # classify and derive read no family: p comes from a full t or from --p
    for command in ("classify", "derive"):
        for key, family in (("points", TRIANGLE_ROWS), ("family", {"kind": "regular", "p": 3})):
            config.write_text(json.dumps({key: family, "t": 0.2}))
            code, out, err = run(capsys, [command, "--config", str(config), "--t", "0.2,abc"])
            assert (code, out) == (1, "")
            assert err == (f"error: '{key}' is not read by {command}\n"
                           "error: --t[1]: not a number: 'abc'\n")


def test_explicit_rows_are_swept_for_distinctness_once(capsys, monkeypatch):
    calls = []

    def counted(rows, tol):
        calls.append(tol)
        return _close_pairs(rows, tol)

    monkeypatch.setattr(affine, "_close_pairs", counted)
    monkeypatch.setattr(config_module, "_close_pairs", counted)
    code, _, _ = run(capsys, ["simulate", "--points", "0,0;1,0;0,1", "--t", "0.5"])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["simulate", "classify"])
def test_an_empty_config_path_is_named(capsys, command):
    # Path("") is the current directory, which was read as the config
    code, out, err = run(capsys, [command, "--config", "", "--t", "0.2,0.3,0.4"])
    assert (code, out) == (1, "")
    assert err == "error: --config needs a file path, got ''\n"


def test_config_file_errors_all_reported(capsys, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text('{"points": [[0,0],[0,0]], "t": [1.5, 0.5], "iterations": -1}')
    code, _, err = run(capsys, ["simulate", "--config", str(config)])
    assert code == 1
    assert err.count("error:") >= 3


def test_random_family_env_seed(capsys, monkeypatch):
    # the environment seeds nothing: a random family without a seed is seed 0
    argv = ["simulate", "--random", "4", "2", "--t", "0.5", "--n", "0"]
    monkeypatch.delenv("BARYPOLY_SEED", raising=False)
    unset = run(capsys, argv)
    assert unset[0] == 0
    monkeypatch.setenv("BARYPOLY_SEED", "99")
    assert run(capsys, argv) == unset
    assert run(capsys, [*argv, "--seed", "0"]) == unset
