"""End-to-end tests for the command-line interface."""

import argparse
import csv
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from monge4.classify import (PREDICATES, exact_jets, minimal_aminov_profile,
                             minimal_translation_family,
                             same_sign_aminov_profile)
from monge4.cli import _write_table, main
from monge4.expr import BinOp, Call, Num, Var, pretty
from monge4 import classify, cli, grid
from monge4.grid import (CHUNK_ROWS, RESULT_HEADER, GridResult, GridSpec, Row,
                         _table_chunks, evaluate_discrete, export_samples_csv,
                         ingest_csv, sample_grid, sample_values)
from monge4.invariants import ConsistencyError, invariants_at
from monge4.jet import DomainError
from monge4.patch import make_explicit, make_translation, patch_to_json

from expr_reference import random_ast, random_coord


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """Run a fresh interpreter with this checkout's package on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_eval_rotational_linear_profile(capsys):
    code, out, _ = run(capsys, "eval", "--r", "u",
                       "-u", "1", "-v", "0.7853981633974483")
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == pytest.approx(-0.125, abs=1e-12)
    assert doc["KN"] == pytest.approx(0.125, abs=1e-12)
    assert set(doc) == {"K", "KN", "H1", "H2", "Hnorm"}


def test_eval_zero_surface(capsys):
    code, out, _ = run(capsys, "eval", "--f", "0", "--g", "0",
                       "-u", "0", "-v", "0")
    assert code == 0
    assert all(value == 0.0 for value in json.loads(out).values())


def test_eval_parse_error_reports_position(capsys):
    code, out, err = run(capsys, "eval", "--f", "u$", "--g", "0",
                         "-u", "0", "-v", "0")
    assert code == 2
    assert out == ""
    assert "position 1" in err


def test_eval_text_and_csv_formats(capsys):
    code, out, _ = run(capsys, "eval", "--f", "u^2", "--g", "v^2",
                       "-u", "0.5", "-v", "0.25", "--format", "text")
    assert code == 0
    assert out.splitlines()[0].startswith("K = ")
    code, out, _ = run(capsys, "eval", "--f", "u^2", "--g", "v^2",
                       "-u", "0.5", "-v", "0.25", "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "K,KN,H1,H2,Hnorm"
    assert len(row.split(",")) == 5


def test_eval_steep_plane_keeps_its_metric(capsys):
    # E*G - F*F rounds to 0.0 here, against an exact W2 of 3e16
    code, out, err = run(capsys, "eval", "--f", "1e8*u+1.0000001e8*v",
                         "--g", "v", "-u", "0.1", "-v", "0.2")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"K": 0.0, "KN": 0.0, "H1": 0.0, "H2": 0.0,
                               "Hnorm": 0.0}


def test_eval_outside_domain_is_evaluation_error(capsys):
    code, _, err = run(capsys, "eval", "--r", "u", "-u", "5", "-v", "0")
    assert code == 3
    assert "domain" in err


def test_eval_log_singularity_is_evaluation_error(capsys):
    code, _, err = run(capsys, "eval", "--f", "log(u)", "--g", "0",
                       "-u", "-1", "-v", "0")
    assert code == 3
    assert "log" in err


def test_surface_source_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "--f", "u", "-u", "0", "-v", "0")
    assert code == 2 and "--f and --g" in err
    code, _, err = run(capsys, "eval", "-u", "0", "-v", "0")
    assert code == 2 and "exactly one surface source" in err
    code, _, err = run(capsys, "eval", "--f", "u", "--g", "v", "--r", "u",
                       "-u", "0", "-v", "0")
    assert code == 2
    code, _, err = run(capsys, "eval", "--f3", "u", "--g3", "v",
                       "-u", "0", "-v", "0")
    assert code == 2 and "needs --f3, --g3, --f4 and --g4" in err
    # the flags given fix the family; --family is gone
    code, _, err = run(capsys, "eval", "--family", "aminov", "--f", "u",
                       "--g", "v", "-u", "0", "-v", "0")
    assert code == 2 and "unrecognized arguments: --family" in err


def test_eval_from_patch_file(tmp_path, capsys):
    patch = make_translation("sin(u)", "u^2", "log(v+2)", "v^3")
    path = tmp_path / "patch.json"
    path.write_text(patch_to_json(patch))
    code, out, _ = run(capsys, "eval", "--patch", str(path),
                       "-u", "0.3", "-v", "0.4")
    assert code == 0
    exact = invariants_at(patch, 0.3, 0.4)
    doc = json.loads(out)
    assert doc["K"] == pytest.approx(exact.K, abs=1e-15)
    assert doc["Hnorm"] == pytest.approx(exact.Hnorm, abs=1e-15)

    code, _, err = run(capsys, "eval", "--patch", str(path), "--f", "u",
                       "-u", "0", "-v", "0")
    assert code == 2 and "--patch" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "eval", "--patch", str(bad),
                       "-u", "0", "-v", "0")
    assert code == 2

    code, _, err = run(capsys, "eval", "--patch", str(tmp_path / "nope"),
                       "-u", "0", "-v", "0")
    assert code == 4


def test_gradient_warning_from_flags_and_patch_file(tmp_path, capsys):
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({"family": "gradient",
                               "exprs": {"p": "u*v", "q": "u+v"}}))
    warning = ("warning: integrability residual 2 exceeds 1e-08; treating "
               "the pair as an explicit patch\n")
    for source in (["--p", "u*v", "--q", "u+v"], ["--patch", str(doc)]):
        code, out, err = run(capsys, "eval", *source, "-u", "0.6", "-v", "0.2")
        assert code == 0 and json.loads(out) and err == warning


@pytest.mark.parametrize("argv, row", [
    (["grid", "--f", "u", "--g", "v", "--u0", "-1e-05", "--nu", "2",
      "--nv", "2"], "-1e-05,-1.0,"),
    (["grid", "--f", "u", "--g", "v", "--v0", "-3E+2", "--v1", "-1e2",
      "--nu", "2", "--nv", "2"], "-1.0,-300.0,"),
    (["ode", "--a", "1", "--range", "-1e-05", "1", "--steps", "4"], "-1e-05,"),
    (["ode", "--a", "1", "--range", "-1", "-.5e-1", "--steps", "4"], "-1.0,"),
])
def test_negative_exponent_form_numbers_are_values(capsys, argv, row):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1].startswith(row)


@pytest.mark.parametrize("g, H2", [("-(2)^u", -0.08748543470193428),
                                   ("-2*u", 0.0), ("-.5*u", 0.0)],
                         ids=["power", "product", "decimal"])
def test_expression_starting_with_minus_is_a_value(capsys, g, H2):
    code, out, err = run(capsys, "eval", "--f", "u", "--g", g,
                         "-u", "1", "-v", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["H2"] == H2
    assert out == run(capsys, "eval", "--f", "u", f"--g={g}",
                      "-u", "1", "-v", "1")[1]
    # a name after "-" is still taken for a flag: -u is eval's own
    code, _, err = run(capsys, "eval", "--f", "u", "--g", "-u",
                       "-u", "1", "-v", "1")
    assert code == 2 and "expected one argument" in err


@pytest.mark.parametrize("q", ["-exp(u)*sin(v)", "-sin(v)", "-u*v"])
def test_expression_starting_with_minus_and_a_name_is_a_value(capsys, q):
    # -u*v too, though -u is eval's own flag: "*v" is no number
    argv = ["eval", "--p", "exp(u)*cos(v)", "-u", "0.5", "-v", "0.25"]
    code, out, err = run(capsys, *argv, "--q", q)
    assert code == 0 and json.loads(out)
    assert (code, out, err) == run(capsys, *argv, f"--q={q}")


@pytest.mark.parametrize("u, v", [("0.5", "-0.25"), ("-0.5", "0.25")])
def test_flags_joined_to_numbers_still_parse(capsys, u, v):
    # -u0.5 and -u-0.5 match the pattern (a name, then "." or "-"), yet are
    # -u with a number; and were -u itself matched, argparse would take
    # -0.5 for an option in -u -0.5
    argv = ["eval", "--f", "u^3", "--g", "u*v"]
    want = run(capsys, *argv, f"-u={u}", f"-v={v}")
    assert want[0] == 0
    for spelling in ([f"-u{u}", f"-v{v}"], ["-u", u, "-v", v]):
        assert run(capsys, *argv, *spelling) == want


DOMAIN_DOCS = {
    "three": "[0, 1, 0]", "string": '[0, "1", 0, 1]', "bool": "[0, true, 0, 1]",
    "nan": "[0, NaN, 0, 1]", "infinities": "[-Infinity, Infinity, 0, 1]",
    "1e999": "[0, 1e999, 0, 1]", "10**400": "[0, 1" + "0" * 400 + ", 0, 1]",
}


@pytest.mark.parametrize("name", DOMAIN_DOCS)
def test_bad_patch_domain_exits_without_traceback(tmp_path, capsys, name):
    doc = tmp_path / "patch.json"
    for family, exprs in (("explicit", '{"f": "u", "g": "v"}'),
                          ("gradient", '{"p": "u*v", "q": "u+v"}')):
        doc.write_text(f'{{"family": "{family}", "exprs": {exprs}, '
                       f'"domain": {DOMAIN_DOCS[name]}}}')
        code, out, err = run(capsys, "eval", "--patch", str(doc),
                             "-u", "0.5", "-v", "0.5")
        assert (code, out) == (2, "")
        assert err.startswith("error: domain ") and "Traceback" not in err


def test_overflowing_domain_entry_exits_without_traceback(tmp_path):
    doc = tmp_path / "patch.json"
    doc.write_text('{"family": "gradient", "exprs": {"p": "u*v", "q": "u+v"}, '
                   '"domain": [0, 1' + "0" * 400 + ', 0, 1]}')
    proc = run_python("-m", "monge4.cli", "eval", "--patch", str(doc),
                      "-u", "0.5", "-v", "0.5")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: domain entries must be within the float "
                           "range\n")


def test_nan_integrability_gap_is_demoted_with_warning(capsys):
    p = "exp(400)*exp(400)*u - exp(400)*exp(400)*u + u*v"
    code, out, err = run(capsys, "eval", "--p", p, "--q", "u+v",
                         "-u", "0.6", "-v", "0.2")
    # demoted first; its jets are then NaN, an evaluation error
    assert (code, out) == (3, "")
    assert err == ("warning: integrability residual nan exceeds 1e-08; "
                   "treating the pair as an explicit patch\n"
                   "error: non-finite jets\n")


@pytest.mark.parametrize("flag, code, message", [
    ("--a=1e200", 3, "error: profile coefficient c2 = (a^2 - 1)/(2a) is out "
                     "of float range at a = 1e+200\n"),
    ("--a=1e-320", 3, "error: profile coefficient c2 = (a^2 - 1)/(2a) is out "
                      "of float range at a = 1e-320\n"),
    ("--a=nan", 2, "error: parameter a must be finite\n"),
    ("--a=inf", 2, "error: parameter a must be finite\n"),
    ("--b=nan", 2, "error: parameter b must be finite\n"),
], ids=["a-1e200", "a-1e-320", "a-nan", "a-inf", "b-nan"])
def test_ode_parameter_out_of_range(capsys, flag, code, message):
    argv = ["ode", flag] + (["--a", "1"] if flag.startswith("--b") else [])
    assert run(capsys, *argv) == (code, "", message)


def test_family_builders_check_their_parameters():
    for build in (minimal_aminov_profile, same_sign_aminov_profile):
        with pytest.raises(ValueError, match="^parameter a must be finite$"):
            build(math.nan)
        with pytest.raises(ValueError, match="^parameter b must be finite$"):
            build(1.0, math.inf)
        with pytest.raises(DomainError, match="coefficient c2"):
            build(1e200)
    args = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]
    for k, name in enumerate(("c3", "c4", "e3", "e4", "p3", "p4", "a", "b")):
        bad = args[:k] + [math.nan] + args[k + 1:]
        with pytest.raises(ValueError, match=f"^parameter {name} must be "):
            minimal_translation_family(*bad)
    with pytest.raises(ValueError, match="^parameter d must be finite$"):
        minimal_translation_family(*args, d=math.inf)
    with pytest.raises(DomainError, match="c3\\^2 \\+ c4\\^2"):
        minimal_translation_family(1e200, *args[1:])


def test_translation_family_tells_zero_from_underflow():
    rest = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]
    with pytest.raises(ValueError) as err:
        minimal_translation_family(0.0, -0.0, *rest)
    assert (type(err.value), str(err.value)) == (
        ValueError, "c3 and c4 must not both vanish")
    # nonzero, but c3^2 + c4^2 underflows to 0: the payload would divide by it
    for c3, c4 in ((1e-200, 0.0), (0.0, -1e-200), (1e-170, 1e-170)):
        with pytest.raises(DomainError, match=(
                r"^coefficient c3\^2 \+ c4\^2 is out of float range$")):
            minimal_translation_family(c3, c4, *rest)


def test_grid_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, stdout, _ = run(capsys, "grid", "--f", "u^2", "--g", "u*v",
                          "--nu", "5", "--nv", "4", "--out", str(out))
    assert code == 0
    assert "20 nodes" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == ("u,v,E,F,G,W2,K,KN,H1,H2,Hnorm,chen,wintgen,flag")
    assert len(lines) == 21


def test_grid_stdout_determinism(capsys):
    argv = ["grid", "--f", "u^3", "--g", "v^2", "--nu", "7", "--nv", "7"]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert code == 0
    assert first == second


def test_grid_json_marks_failures_null(capsys):
    code, out, _ = run(capsys, "grid", "--f", "log(u)", "--g", "0",
                       "--nu", "3", "--nv", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    failed = [r for r in rows if r["flag"]]
    assert failed and all(r["K"] is None for r in failed)
    clean = [r for r in rows if not r["flag"]]
    assert clean and all(isinstance(r["K"], float) for r in clean)


def test_classify_requested_predicates_control_exit(capsys):
    argv = ["classify", "--r", "exp(u)",
            "--v0", "0", "--v1", "6.283185307179586",
            "--nu", "11", "--nv", "11"]
    code, out, _ = run(capsys, *argv, "--predicates", "minimal,chen,wintgen")
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"]["verdict"] == "holds"
    assert doc["chen"]["verdict"] == "holds"
    assert doc["wintgen_ideal"]["verdict"] == "holds"
    assert doc["flat"]["verdict"] == "fails"

    code, _, _ = run(capsys, *argv, "--predicates", "minimal,flat")
    assert code == 1


def test_classify_flat_example(capsys):
    code, out, _ = run(capsys, "classify", "--f", "u^2+v^2",
                       "--g", "u^2-v^2", "--predicates", "flat",
                       "--u0", "-2", "--u1", "2", "--v0", "-2", "--v1", "2",
                       "--nu", "11", "--nv", "11")
    assert code == 0
    doc = json.loads(out)
    assert doc["flat"]["verdict"] == "holds"
    assert doc["k_plus_kn_zero"]["verdict"] == "holds"
    assert doc["first_normal_rank"] == 2
    assert doc["tolerances"] == {"tol": 1e-8}


def test_classify_rejects_unknown_predicate(capsys):
    code, _, err = run(capsys, "classify", "--f", "0", "--g", "0",
                       "--predicates", "bogus")
    assert code == 2
    assert "unknown predicate" in err


def test_classify_rejects_an_empty_predicate_list(capsys):
    code, out, err = run(capsys, "classify", "--f", "u", "--g", "v",
                         "--nu", "3", "--nv", "3", "--predicates", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown predicate ''; choose from ")


def test_classify_text_format(capsys):
    code, out, _ = run(capsys, "classify", "--f", "0", "--g", "0",
                       "--nu", "3", "--nv", "3", "--format", "text")
    assert code == 0
    assert "minimal: holds" in out
    assert "first normal bundle rank: 0" in out


def test_ode_closed_form_residual_bound(tmp_path, capsys):
    out = tmp_path / "ode.csv"
    code, stdout, _ = run(capsys, "ode", "--a", "1", "--b", "0",
                          "--sigma", "+1", "--range", "-1", "1",
                          "--steps", "1000", "--out", str(out))
    assert code == 0
    assert "1001 nodes" in stdout
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1001
    assert max(abs(float(r["residual"])) for r in rows) < 1e-10
    assert float(rows[0]["u"]) == -1.0 and float(rows[-1]["u"]) == 1.0
    # a=1, b=0 collapses to r = e^u / 2
    mid = rows[500]
    assert float(mid["r"]) == pytest.approx(0.5 * math.exp(float(mid["u"])),
                                            abs=1e-14)


def test_ode_numeric_mode_matches_exponential(capsys):
    code, out, _ = run(capsys, "ode", "--r0", "0.5", "--r0p", "0.5",
                       "--range", "0", "1", "--steps", "400",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[-1]["r"] == pytest.approx(0.5 * math.e, abs=1e-8)


def test_ode_mode_and_blowup_errors(capsys):
    code, _, err = run(capsys, "ode", "--range", "0", "1")
    assert code == 2 and "--a" in err
    code, _, err = run(capsys, "ode", "--a", "1", "--r0", "0.5")
    assert code == 2
    code, _, err = run(capsys, "ode", "--r0", "2", "--r0p", "10",
                       "--range", "0", "120", "--steps", "600")
    assert code == 3
    assert "blew up" in err


def test_ingest_rows_carry_the_file_coordinates(tmp_path, capsys):
    # rows at u0 + i * hu moved 384 of these 603 nodes, e.g. u = -0.29
    # to -0.29000000000000004
    us = [repr(round(-1 + i / 100, 2)) for i in range(201)]
    samples = tmp_path / "samples.csv"
    samples.write_text("u,v,f\n" + "".join(
        f"{u},{v},{k % 7}.5\n" for k, u in enumerate(us)
        for v in ("0.0", "0.5", "1.0")))
    out = tmp_path / "result.csv"
    code, _, _ = run(capsys, "ingest", str(samples), "--out", str(out))
    assert code == 0

    def coordinates(path):
        return [line.split(",")[:2] for line in path.read_text().splitlines()]

    assert coordinates(out) == coordinates(samples)


def test_ingest_runs_fd_pipeline(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    patch = make_explicit("sin(u)*cos(v)", "u*v")
    export_samples_csv(sample_values(patch, GridSpec(-1, 1, -1, 1, 9, 9)),
                       str(samples))
    out = tmp_path / "result.csv"
    code, stdout, _ = run(capsys, "ingest", str(samples), "--out", str(out))
    assert code == 0
    assert "9 x 9" in stdout
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 81
    interior = [r for r in rows if not r["flag"]]
    assert len(interior) == 49
    exact = invariants_at(patch, 0.0, 0.0)
    center = [r for r in rows if float(r["u"]) == 0.0
              and float(r["v"]) == 0.0][0]
    assert float(center["K"]) == pytest.approx(exact.K, abs=1e-2)

    code, _, _ = run(capsys, "ingest", str(tmp_path / "missing.csv"))
    assert code == 4


def test_verify_all_checks_pass(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    checks = json.loads(out)
    assert out == json.dumps(checks, indent=2) + "\n"
    assert len(checks) >= 20
    assert all(c["ok"] for c in checks)
    names = {c["name"] for c in checks}
    assert "same-sign-counterexample" in names
    assert "chen-six-profiles" in names


def test_verify_text_lines(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_help_lists_flags(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for name in ("eval", "grid", "classify", "verify", "ode", "ingest"):
        assert name in out
    code, out, _ = run(capsys, "eval", "--help")
    assert code == 0
    for flag in ("--f", "--g", "--r", "--patch", "--u0", "--u1", "--out",
                 "--format", "-u", "-v"):
        assert flag in out
    assert "rotational profile's u-range" in out
    for flag in ("--v0", "--v1", "--nu", "--nv"):
        assert flag not in out
    code, out, _ = run(capsys, "grid", "--help")
    assert code == 0
    assert "--workers" not in out and "default: 41" in out
    for sub in ("eval", "grid", "classify", "verify", "ode", "ingest"):
        code, out, _ = run(capsys, sub, "--help")
        assert code == 0
        assert "--family" not in out
        assert ("--tol" in out) == (sub == "classify"), sub


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_eval_output_is_deterministic(capsys):
    argv = ["eval", "--f", "exp(u)*cos(v)", "--g", "u*v^2",
            "-u", "0.37", "-v", "-0.81"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


OVERFLOW_SURFACE = ["--f", "exp(700)*exp(700)*u", "--g", "v"]

# a NaN or inf given for a point, a range end or an initial value: each
# is named in a usage error (exit 2) before anything is evaluated
NON_FINITE_ARGUMENTS = {
    "ode-lo-nan": (["ode", "--a", "1", "--range", "nan", "1"],
                   "--range ends must be finite, got nan and 1.0"),
    "ode-hi-nan": (["ode", "--a", "1", "--range", "-1", "nan"],
                   "--range ends must be finite, got -1.0 and nan"),
    "ode-hi-inf": (["ode", "--a", "1", "--range", "0", "inf"],
                   "--range ends must be finite, got 0.0 and inf"),
    "ode-numeric-hi-nan": (["ode", "--r0", "1", "--r0p", "0",
                            "--range", "0", "nan"],
                           "range ends must be finite, got 0.0 and nan"),
    # -inf, -nan and -infinity are values, in any case, as float() reads them
    "ode-numeric-lo-minus-inf": (
        ["ode", "--r0", "1", "--r0p", "0", "--range", "-inf", "0"],
        "range ends must be finite, got -inf and 0.0"),
    "ode-lo-minus-infinity": (["ode", "--a", "1", "--range", "-Infinity", "1"],
                              "--range ends must be finite, got -inf and 1.0"),
    "ode-lo-minus-nan": (["ode", "--a", "1", "--range", "-NAN", "1"],
                         "--range ends must be finite, got nan and 1.0"),
    "eval-u-minus-inf": (["eval", "--f", "u", "--g", "v", "-u", "-iNf",
                          "-v", "0"],
                         "-u and -v must be finite, got -inf and 0.0"),
    "grid-u0-minus-inf": (["grid", "--f", "u", "--g", "v", "--u0", "-inf"],
                          "grid bounds must be finite"),
    "ode-r0-nan": (["ode", "--r0", "nan", "--r0p", "0"],
                   "parameter r0 must be finite"),
    "ode-r0p-nan": (["ode", "--r0", "1", "--r0p", "nan"],
                    "parameter r0p must be finite"),
    "eval-v-inf": (["eval", "--f", "u", "--g", "v", "-u", "0", "-v", "inf"],
                   "-u and -v must be finite, got 0.0 and inf"),
    "eval-domain-u-nan": (["eval", "--r", "u", "--u0", "0", "--u1", "1",
                           "-u", "nan", "-v", "0"],
                          "-u and -v must be finite, got nan and 0.0"),
}


@pytest.mark.parametrize("argv, code", [
    (["eval", *OVERFLOW_SURFACE, "-u", "0.5", "-v", "0.5"], 3),
    (["eval", "--f", "u", "--g", "v", "-u", "nan", "-v", "0"], 2),
    (["eval", "--f", "u^1000", "--g", "v", "-u", "10", "-v", "0"], 3),
    (["eval", "--f", "(" * 1500 + "u" + ")" * 1500, "--g", "v",
      "-u", "1", "-v", "1"], 2),
    (["eval", "--f", "+".join(["u"] * 1500), "--g", "v",
      "-u", "1", "-v", "1"], 2),
    (["grid", "--f", "u", "--g", "v", "--u0=-inf"], 2),
    (["classify", *OVERFLOW_SURFACE, "--nu", "5", "--nv", "5"], 1),
    # second derivatives past the floats near 0, and sin of inf
    (["eval", "--f", "log(u)", "--g", "v", "-u", "1e-200", "-v", "0"], 3),
    (["eval", "--f", "sqrt(u)", "--g", "v", "-u", "1e-300", "-v", "0"], 3),
    (["eval", "--f", "sin(exp(700)*exp(700)*u)", "--g", "v",
      "-u", "1", "-v", "0"], 3),
    # ode: r^2 overflows, a NaN residual, an overflow in the fd residual
    (["ode", "--a", "0.0028", "--range", "-1", "1", "--steps", "4"], 3),
    (["ode", "--a", "0.004", "--range", "-1", "1", "--steps", "4"], 3),
    (["ode", "--r0", "1e160", "--r0p", "0", "--range", "0", "1",
      "--steps", "4"], 3),
    # ode: h^2 underflows to 0, too few nodes for the end stencils
    (["ode", "--r0", "1", "--r0p", "0", "--range", "0", "1e-200",
      "--steps", "4"], 3),
    (["ode", "--r0", "1", "--r0p", "0", "--steps", "2"], 2),
    (["classify", "--f", "u", "--g", "v", "--tol", "nan"], 2),
    *[(argv, 2) for argv, _ in NON_FINITE_ARGUMENTS.values()],
])
def test_bad_input_exits_without_traceback(argv, code):
    proc = run_python("-m", "monge4.cli", *argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") or code == 1
    assert proc.stdout == "" or code != 2


@pytest.mark.parametrize("argv, message", NON_FINITE_ARGUMENTS.values(),
                         ids=NON_FINITE_ARGUMENTS)
def test_non_finite_argument_is_a_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_ingest_non_finite_coordinate_exits_without_traceback(tmp_path, bad):
    samples = tmp_path / "samples.csv"
    samples.write_text("u,v,f,g\n" + "".join(
        f"{u},{v},1,1\n" for u, v in [(bad, 0), (bad, 1), (0, 0), (0, 1),
                                       (1, 0), (1, 1)]))
    proc = run_python("-m", "monge4.cli", "ingest", str(samples))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: non-finite u coordinate {bad}\n"


@pytest.mark.parametrize("axis", ["u", "v"])
@pytest.mark.parametrize("values", [("-1e+308", "0.0", "1.2e+308"),
                                    ("-1e+308", "1e+308")])
def test_ingest_overflowing_span_exits_without_traceback(tmp_path, axis,
                                                         values):
    samples = tmp_path / "samples.csv"
    samples.write_text("u,v,f,g\n" + "".join(
        (f"{a},{b},1,1\n" if axis == "u" else f"{b},{a},1,1\n")
        for a in values for b in (0, 1)))
    proc = run_python("-m", "monge4.cli", "ingest", str(samples))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: {axis} span from {values[0]} to "
                           f"{values[-1]} overflows\n")


@pytest.mark.parametrize("axis", ["u", "v"])
@pytest.mark.parametrize("h", ["1e+200", "1e-200"])
def test_ingest_out_of_range_spacing_exits_without_traceback(tmp_path, axis,
                                                             h):
    values = [repr(k * float(h)) for k in range(4)]
    samples = tmp_path / "samples.csv"
    samples.write_text("u,v,f,g\n" + "".join(
        (f"{a},{b},1,1\n" if axis == "u" else f"{b},{a},1,1\n")
        for a in values for b in (0, 1, 2)))
    proc = run_python("-m", "monge4.cli", "ingest", str(samples))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: {axis} spacing {h} is out of range "
                           "for the difference stencil\n")


@pytest.mark.parametrize("flag", ["--hu=nan", "--hv=nan", "--hu=inf",
                                  "--hv=-inf"])
def test_ingest_non_finite_spacing_exits_without_traceback(tmp_path, flag):
    samples = tmp_path / "samples.csv"
    samples.write_text("u,v,f,g\n" + "".join(
        f"{u},{v},1,1\n" for u in (0, 0.5, 1) for v in (0, 0.25)))
    proc = run_python("-m", "monge4.cli", "ingest", str(samples), flag,
                      "--format", "text")
    name, value = flag[2:].split("=")
    inferred = {"hu": 0.5, "hv": 0.25}[name]
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: {name}={value} does not match inferred "
                           f"{inferred}\n")


def _rendered(fmt, result):
    """The table of a GridResult in a --format, from its whole row list:
    what grid and ingest wrote before their rows streamed."""
    rows = result.rows
    if fmt == "csv":
        return "".join(_table_chunks("csv", RESULT_HEADER, rows))
    if fmt == "json":
        doc = [{name: None if isinstance(x, float) and not math.isfinite(x)
                else x for name, x in zip(RESULT_HEADER, row)} for row in rows]
        return json.dumps(doc, indent=2) + "\n"
    clean = [r for r in rows if not r.flag]
    spec = result.spec
    lines = [f"grid: {spec.u0} .. {spec.u1} x {spec.v0} .. {spec.v1}, "
             f"{spec.nu} x {spec.nv}",
             f"rows: {len(rows)} (flagged: {len(rows) - len(clean)})"]
    for label, pick in (("max |K|", lambda r: abs(r.K)),
                        ("max |KN|", lambda r: abs(r.KN)),
                        ("max |H|", lambda r: r.Hnorm)):
        lines.append(f"{label}: "
                     + (repr(max(map(pick, clean))) if clean else "n/a"))
    return "\n".join(lines) + "\n"


# flags a log domain error on the u = -1 column and has -0.0 in K and KN
STREAM_SURFACE = ("u^3", "0-v^3+0*log(u+1)")


def _holed_samples(path):
    """A 7 x 6 samples file whose table has every flag: the boundary ring,
    bad samples around a NaN and an overflow of the invariants."""
    f = {(i, j): 0.1 * i * j - 0.05 * j * j for i in range(7)
         for j in range(6)}
    f[0, 0], f[0, 1], f[5, 3] = 1e308, -1e308, math.nan
    path.write_text("".join(_table_chunks("csv", ("u", "v", "f", "g"),
                                          [(0.5 * i, 0.25 * j, z, -0.0 * i)
                                           for (i, j), z in f.items()])))


def _flag_kinds(rows):
    return {r.flag.split(":")[0] for r in rows}


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_grid_stream_matches_list_api(tmp_path, capsys, fmt):
    result = sample_grid(make_explicit(*STREAM_SURFACE),
                         GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 4))
    assert _flag_kinds(result.rows) == {"", "domain-error"}
    assert any(r.K == 0.0 and math.copysign(1.0, r.K) < 0
               for r in result.rows)
    want = _rendered(fmt, result)
    argv = ["grid", "--f", STREAM_SURFACE[0], "--g", STREAM_SURFACE[1],
            "--nu", "5", "--nv", "4", "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, want, "sampled 20 nodes (4 flagged)\n")
    table = tmp_path / "table"
    code, out, _ = run(capsys, *argv, "--out", str(table))
    assert (code, out) == (0, "sampled 20 nodes (4 flagged)\n")
    assert table.read_bytes() == want.encode()


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_ingest_stream_matches_list_api(tmp_path, capsys, fmt):
    samples = tmp_path / "samples.csv"
    _holed_samples(samples)
    result = evaluate_discrete(ingest_csv(samples))
    assert _flag_kinds(result.rows) == {"", "boundary", "bad-sample",
                                        "domain-error"}
    flagged = sum(1 for r in result.rows if r.flag not in ("", "boundary"))
    note = (f"evaluated 7 x 6 samples from {samples} "
            f"({flagged} flagged beyond the boundary ring)\n")
    want = _rendered(fmt, result)
    code, out, err = run(capsys, "ingest", str(samples), "--format", fmt)
    assert (code, out, err) == (0, want, note)
    table = tmp_path / "table"
    code, out, _ = run(capsys, "ingest", str(samples), "--format", fmt,
                       "--out", str(table))
    assert (code, out) == (0, note)
    assert table.read_bytes() == want.encode()


# quotes and commas in a flag, -0.0, NaN and infinities
ODD_ROWS = [Row(0.5, -0.0, -0.0, 1.0, 2.0, 3.0, -4.0, 0.25, -0.0, 1e-300,
                5.0, -0.0, 7.5),
            Row(1.0, 2.0, flag='domain-error: "x", y'),
            Row(1.5, 2.5, *[math.inf] * 11, ""),
            Row(2.0, 3.0, *[1.0] * 10, math.nan, "")]


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_table_writer_streams_odd_rows(tmp_path, monkeypatch, fmt):
    spec = GridSpec(0, 1, 0, 1, 2, 2)
    table = tmp_path / "table"
    args = argparse.Namespace(format=fmt, out=str(table))
    # no node source makes these rows: the writer takes them as they are
    monkeypatch.setattr(cli, "rows", lambda source: source)
    tally = _write_table(spec, lambda start, stop: iter(ODD_ROWS[start:stop]),
                         args)
    assert (tally.nodes, tally.flagged, tally.boundary) == (4, 1, 0)
    assert table.read_bytes() == _rendered(
        fmt, GridResult(spec, ODD_ROWS)).encode()


def test_json_rows_match_json_dumps():
    # 160 rows span three encoder batches (grid.JSON_ROWS)
    for rows in (ODD_ROWS, ODD_ROWS[:1], [], ODD_ROWS * 40):
        doc = [{name: None if isinstance(x, float) and not math.isfinite(x)
                else x for name, x in zip(RESULT_HEADER, row)} for row in rows]
        assert "".join(_table_chunks("json", RESULT_HEADER, rows)) == \
            json.dumps(doc, indent=2) + "\n"
    # booleans, as in the verify table, pass through unchanged
    rows = [("a", True, "x"), ("b", False, "")]
    doc = [dict(zip(("name", "ok", "detail"), row)) for row in rows]
    assert "".join(_table_chunks("json", ("name", "ok", "detail"),
                                 rows)) == json.dumps(doc, indent=2) + "\n"


# Below the 4.4 MiB that the 10 201 Row records of a 101 x 101 grid take
# alone: a command that held every row would exceed it.
STREAM_PEAK_BYTES = 3 * 2**20


@pytest.mark.parametrize("command", ["grid-csv", "grid-json", "ingest"])
def test_streamed_commands_hold_no_grid(tmp_path, capsys, command):
    samples = tmp_path / "samples.csv"
    if command == "ingest":
        export_samples_csv(sample_values(make_explicit("u^3+sin(v)+u*v", "u*v"),
                                         GridSpec(-1, 1, -1, 1, 101, 101)),
                           str(samples))
        argv = ["ingest", str(samples)]
    else:
        argv = ["grid", "--f", "u^3+sin(v)+u*v", "--g", "u*v",
                "--nu", "101", "--nv", "101", "--format", command[5:]]
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path / "table")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < STREAM_PEAK_BYTES


# A 101 x 101 ingest peaks at 1.18 MiB of traced memory with its samples
# in array('d') columns and rows; a 4-tuple of boxed floats per record
# and nested lists of floats for the channels took 2.11 MiB.
INGEST_PEAK_BYTES = 3 * 2**19


def test_ingest_holds_samples_packed(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    export_samples_csv(sample_values(make_explicit("u^3+sin(v)+u*v", "u*v"),
                                     GridSpec(-1, 1, -1, 1, 101, 101)),
                       str(samples))
    tracemalloc.start()
    try:
        code = main(["ingest", str(samples), "--out", str(tmp_path / "table")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < INGEST_PEAK_BYTES


# the dual-path check fires after about a thousand rows have streamed
CONSISTENCY_FAILURE = ["grid", "--f", "10*u^2+7.868*v^2",
                       "--g", "100*u^2+78.68*v^2", "--nu", "51", "--nv", "51"]


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_failed_grid_leaves_out_as_it_was(tmp_path, capsys, fmt):
    table = tmp_path / "table"
    table.write_bytes(b"earlier result\n")
    argv = [*CONSISTENCY_FAILURE, "--format", fmt, "--out", str(table)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: chen residual paths disagree: ")
    assert table.read_bytes() == b"earlier result\n"
    assert os.listdir(tmp_path) == ["table"]
    table.unlink()
    code, _, _ = run(capsys, *argv)
    assert code == 3
    assert os.listdir(tmp_path) == []


def test_failed_grid_exits_without_traceback(tmp_path):
    proc = run_python("-m", "monge4.cli", *CONSISTENCY_FAILURE,
                      "--out", str(tmp_path / "table"))
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: chen residual paths disagree: ")
    assert proc.stderr.count("\n") == 1
    assert os.listdir(tmp_path) == []


# 64 x 64 nodes in four chunks: the u = -1 column flagged as a domain
# error, and -0.0 in K and KN
CHUNKED_GRID = ["grid", "--f", STREAM_SURFACE[0], "--g", STREAM_SURFACE[1],
                "--nu", "64", "--nv", "64"]


def _holed_samples_file(path, mode):
    """50 x 50 samples in three chunks, with NaN holes in the first and
    last chunk and one in the g channel."""
    dp = sample_values(make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2"),
                       GridSpec(-1, 1, -1, 1, 50, 50), mode)
    for i, j in ((3, 7), (29, 30), (45, 2)):
        dp.f[i][j] = math.nan
    if dp.g is not None:
        dp.g[20][20] = math.nan
    export_samples_csv(dp, str(path))
    return ["ingest", str(path)]


def _forks(monkeypatch):
    """The pids of the children os.fork makes from here on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _cores(monkeypatch, n):
    """Make grid and ingest share their nodes among n processes."""
    monkeypatch.setattr(grid, "cores", lambda: n)


def _table_run(capsys, monkeypatch, tmp_path, argv, jobs, to_file):
    """(exit code, stdout, stderr, --out bytes) of one run in jobs
    processes."""
    _cores(monkeypatch, jobs)
    table = tmp_path / f"table-{jobs}"
    code = main([*argv, "--out", str(table)] if to_file else argv)
    captured = capsys.readouterr()
    data = table.read_bytes() if to_file else None
    err = captured.err.replace(str(table), "TABLE")
    return code, captured.out, err, data


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("source", ["grid", "ingest-monge4", "ingest-monge3"])
@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_table_bytes_do_not_depend_on_jobs(tmp_path, capsys, monkeypatch,
                                           source, fmt, to_file):
    if source == "grid":
        argv = CHUNKED_GRID
    else:
        argv = _holed_samples_file(tmp_path / "samples.csv", source[7:])
    argv = [*argv, "--format", fmt]
    forks = _forks(monkeypatch)
    serial = _table_run(capsys, monkeypatch, tmp_path, argv, 1, to_file)
    assert serial[0] == 0 and not forks
    table = serial[3].decode() if to_file else serial[1]
    if fmt != "text":
        assert ("domain-error" if source == "grid" else "bad-sample") in table
    if source == "grid" and fmt == "csv":
        assert ",-0.0," in table
    for jobs in (2, 3):
        assert _table_run(capsys, monkeypatch, tmp_path, argv, jobs,
                          to_file) == serial
        _no_child_left()
    assert len(forks) == 1 + 2


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_consistency_error_in_a_worker_is_raised_in_node_order(capsys,
                                                               monkeypatch,
                                                               fmt):
    # the check fires at (u, v) = (0, 0), node 25 * 51 + 25 = 1300 of
    # 51 x 51: in chunk 1, which the forked worker makes when there are
    # two processes
    argv = [*CONSISTENCY_FAILURE, "--format", fmt]
    forks = _forks(monkeypatch)
    _cores(monkeypatch, 1)
    serial = (main(argv), *capsys.readouterr())
    code, out, err = serial
    assert code == 3
    assert err.startswith("error: chen residual paths disagree: ")
    assert err.count("\n") == 1
    if fmt == "csv":  # the header and chunk 0, not a row of chunk 1
        assert out.count("\n") == 1 + CHUNK_ROWS
    if fmt == "json":  # chunk 0 whole and unclosed, not a row of chunk 1
        assert out.startswith("[\n  {\n") and out.endswith("\n  }")
        assert out.count("\n  {\n") == CHUNK_ROWS
    _cores(monkeypatch, 2)
    assert main(argv) == 3
    assert (3, *capsys.readouterr()) == serial
    assert len(forks) == 1
    _no_child_left()


def test_grid_ingest_and_classify_share_one_body(tmp_path, capsys,
                                                  monkeypatch):
    # f = u and g = v, so the first and seventh jet floats of a node are
    # its (u, v), from the exact jets and the stencils alike.  The failure
    # is planted at node 1500 of 41 x 41: in chunk 1, which the forked
    # worker makes when there are two processes
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)
    node = spec.u_at(1500 // 41), spec.v_at(1500 % 41)
    kernel = classify.point_floats

    def planted(*floats):
        if (floats[0], floats[6]) == node:
            raise ConsistencyError("planted paths disagree")
        return kernel(*floats)

    monkeypatch.setattr(classify, "point_floats", planted)
    samples = tmp_path / "samples.csv"
    export_samples_csv(sample_values(make_explicit("u", "v"), spec),
                       str(samples))
    surface = ["--f", "u", "--g", "v", "--nu", "41", "--nv", "41"]
    forks = _forks(monkeypatch)
    for jobs in (1, 2):
        _cores(monkeypatch, jobs)
        for argv in (["grid", *surface], ["ingest", str(samples)],
                     ["classify", *surface]):
            assert main([*argv, "--out", str(tmp_path / "out")]) == 3
            # the body names the node once, from either source
            assert capsys.readouterr().err == (
                f"error: planted paths disagree at ({node[0]!r}, "
                f"{node[1]!r})\n")
            _no_child_left()
    assert len(forks) == 3


def test_failed_or_cut_short_table_leaves_no_worker(tmp_path, capsys,
                                                    monkeypatch):
    forks = _forks(monkeypatch)
    _cores(monkeypatch, 2)
    assert main([*CHUNKED_GRID, "--out", str(tmp_path / "t")]) == 0
    _no_child_left()
    assert main([*CONSISTENCY_FAILURE, "--out", str(tmp_path / "t")]) == 3
    _no_child_left()
    assert capsys.readouterr().err.count("error: ") == 1
    if os.path.exists("/dev/full"):
        assert main([*CHUNKED_GRID, "--out", "/dev/full"]) == 4
        _no_child_left()
        # also while the error, and the frames of its traceback, live on
        spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 64, 64)
        patch = make_explicit(*STREAM_SURFACE)
        args = argparse.Namespace(format="csv", out="/dev/full")
        with pytest.raises(OSError) as caught:
            _write_table(spec, partial(exact_jets, patch, spec), args)
        _no_child_left()
        assert caught.value.errno == errno.ENOSPC
    assert len(forks) >= 2


def test_worker_that_dies_fails_the_table(tmp_path, capsys, monkeypatch):
    parent = os.getpid()

    def dying(patch, spec, start, stop):
        for k, node in enumerate(exact_jets(patch, spec, start, stop)):
            if os.getpid() != parent and k == 100:
                os._exit(0)
            yield node

    monkeypatch.setattr(cli, "exact_jets", dying)
    table = tmp_path / "table"
    table.write_bytes(b"earlier result\n")
    _cores(monkeypatch, 2)
    code = main([*CHUNKED_GRID, "--out", str(table)])
    _, err = capsys.readouterr()
    assert code == 4
    assert err == "error: a chunk worker ended before its last chunk\n"
    assert table.read_bytes() == b"earlier result\n"
    assert os.listdir(tmp_path) == ["table"]
    _no_child_left()


def test_single_chunk_table_never_forks(capsys, monkeypatch):
    def refuse():
        raise OSError("no fork here")

    monkeypatch.setattr(os, "fork", refuse)
    code, out, _ = run(capsys, "grid", "--f", "u", "--g", "v",
                       "--nu", "2", "--nv", "2")
    assert code == 0
    assert out.count("\n") == 5


@pytest.mark.parametrize("call", ["pipe", "fork"])
@pytest.mark.parametrize("fails_at", [1, 2])
def test_table_is_made_in_one_process_where_no_other_can_be(
        tmp_path, capsys, monkeypatch, call, fails_at):
    # with three processes asked for, the first or the second worker
    # cannot be made; one made already is ended before the table starts
    argv = [*CHUNKED_GRID, "--format", "json"]
    serial = _table_run(capsys, monkeypatch, tmp_path, argv, 1, True)
    calls, real = [], getattr(os, call)

    def failing(*args):
        calls.append(call)
        if len(calls) == fails_at:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real(*args)

    monkeypatch.setattr(os, call, failing)
    assert _table_run(capsys, monkeypatch, tmp_path, argv, 3, True) == serial
    assert len(calls) == fails_at
    _no_child_left()


# 48 x 48 nodes in three chunks of classify
CLASSIFY_SURFACES = {
    # the benchmark's kind of aminov profile: the profile channels are set
    "aminov": ["--r", "0.8*u^2+2", "--u0", "0.2", "--u1", "1.5",
               "--v0", "0", "--v1", "6.283185307179586"],
    # the v = -1 node of each row, in every chunk, is a domain error:
    # failed points, indeterminate
    "domain-error": ["--f", "u^3", "--g", "0-v^3+0*log(v+1)"],
    "explicit": ["--f", "u^3+sin(v)+u*v", "--g", "exp(u)*v+v^2"],
}


@pytest.mark.parametrize("surface", sorted(CLASSIFY_SURFACES))
@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_classify_bytes_do_not_depend_on_jobs(tmp_path, capsys, monkeypatch,
                                              surface, fmt, to_file):
    argv = ["classify", *CLASSIFY_SURFACES[surface], "--nu", "48",
            "--nv", "48", "--format", fmt]
    forks = _forks(monkeypatch)
    serial = _table_run(capsys, monkeypatch, tmp_path, argv, 1, to_file)
    assert serial[0] == 1 and not forks  # not every predicate holds
    report = serial[3].decode() if to_file else serial[1]
    if surface == "domain-error":
        assert "indeterminate" in report
        assert "holds" not in report and "fails" not in report
    if fmt == "json":
        doc = json.loads(report)
        assert doc["failed_points"] == (48 if surface == "domain-error" else 0)
        if surface == "aminov":
            assert doc["aminov_channels"]["profile_k_plus_kn"] > 0.0
    for jobs in (2, 3):
        assert _table_run(capsys, monkeypatch, tmp_path, argv, jobs,
                          to_file) == serial
        _no_child_left()
    assert len(forks) == 1 + 2


def test_classify_reports_null_profile_channels_when_no_node_evaluates(
        capsys, monkeypatch):
    # every node overflows: 41 x 41 nodes are two chunks, and neither
    # evaluates a profile, so the channels are null at any job count
    argv = ["classify", "--r", "1e40*exp(u)", "--u0", "0.2", "--u1", "1.5",
            "--v0", "0", "--v1", "6.28", "--nu", "41", "--nv", "41",
            "--format", "json"]
    forks = _forks(monkeypatch)
    _cores(monkeypatch, 1)
    serial = run(capsys, *argv)
    code, out, _ = serial
    doc = json.loads(out)
    assert (code, doc["failed_points"]) == (1, 41 * 41)
    assert doc["aminov_channels"] == {"profile_k_plus_kn": None,
                                      "profile_wintgen": None}
    _cores(monkeypatch, 2)
    assert run(capsys, *argv) == serial
    assert len(forks) == 1
    _no_child_left()


def test_consistency_error_in_a_classify_worker_is_the_serial_error(
        capsys, monkeypatch):
    # node 1300 of 51 x 51, where the check fires, is in chunk 1
    argv = ["classify", *CONSISTENCY_FAILURE[1:]]
    forks = _forks(monkeypatch)
    _cores(monkeypatch, 1)
    serial = (main(argv), *capsys.readouterr())
    code, out, err = serial
    assert (code, out) == (3, "")
    assert err.startswith("error: chen residual paths disagree: ")
    assert err.count("\n") == 1
    _cores(monkeypatch, 2)
    assert (main(argv), *capsys.readouterr()) == serial
    assert len(forks) == 1
    _no_child_left()


def test_single_chunk_classify_never_forks(capsys, monkeypatch):
    forks = _forks(monkeypatch)
    _cores(monkeypatch, 2)
    argv = ["classify", "--f", "u^2", "--g", "u*v", "--nv", "32"]
    code, _, _ = run(capsys, *argv, "--nu", "32")  # 1024 nodes
    assert code == 1 and not forks
    code, _, _ = run(capsys, *argv, "--nu", "33")
    assert code == 1 and len(forks) == 1
    _no_child_left()


def test_classify_worker_that_dies_fails_the_run(tmp_path, capsys,
                                                 monkeypatch):
    parent = os.getpid()

    class Dying(cli.ClassifyFold):
        def add(self, nodes):
            if os.getpid() != parent:
                os._exit(0)
            super().add(nodes)

    monkeypatch.setattr(cli, "ClassifyFold", Dying)
    report = tmp_path / "report"
    report.write_bytes(b"earlier result\n")
    _cores(monkeypatch, 2)
    argv = ["classify", *CLASSIFY_SURFACES["explicit"], "--nu", "48",
            "--nv", "48", "--out", str(report)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "error: a chunk worker ended before its last chunk\n"
    assert report.read_bytes() == b"earlier result\n"
    assert os.listdir(tmp_path) == ["report"]
    _no_child_left()


@pytest.mark.parametrize("bad, message", [
    (["--tol", "0"], "error: tol must be finite and > 0, got 0.0\n"),
    (["--tol", "nan"], "error: tol must be finite and > 0, got nan\n"),
    (["--predicates", "chen,bogus"], "error: unknown predicate 'bogus'; "
     "choose from " + ", ".join(PREDICATES) + "\n"),
])
def test_classify_usage_error_comes_before_any_fork(capsys, monkeypatch, bad,
                                                    message):
    forks = _forks(monkeypatch)
    _cores(monkeypatch, 2)
    code, out, err = run(capsys, "classify", *CLASSIFY_SURFACES["explicit"],
                         "--nu", "48", "--nv", "48", *bad)
    assert (code, out, err) == (2, "", message)
    assert not forks


def test_out_file_gets_the_mode_of_a_plain_write(tmp_path, capsys):
    argv = ["grid", "--f", "u", "--g", "v", "--nu", "2", "--nv", "2"]
    table, plain = tmp_path / "table", tmp_path / "plain"
    run(capsys, *argv, "--out", str(table))
    plain.write_text("")
    assert stat.S_IMODE(table.stat().st_mode) == stat.S_IMODE(
        plain.stat().st_mode)
    table.chmod(0o640)
    code, _, _ = run(capsys, *argv, "--out", str(table))
    assert code == 0
    assert stat.S_IMODE(table.stat().st_mode) == 0o640
    assert table.read_text().count("\n") == 5
    link = tmp_path / "link"
    link.symlink_to(table)
    code, _, _ = run(capsys, *argv, "--format", "text", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and table.read_text().startswith("grid: ")
    assert sorted(os.listdir(tmp_path)) == ["link", "plain", "table"]
    code, _, _ = run(capsys, *argv, "--out", os.devnull)
    assert code == 0


def test_classify_overflow_surface_is_indeterminate(capsys):
    code, out, _ = run(capsys, "classify", *OVERFLOW_SURFACE,
                       "--nu", "5", "--nv", "5")
    doc = json.loads(out)
    assert code == 1
    assert doc["failed_points"] == 25
    assert all(doc[name]["verdict"] == "indeterminate"
               for name in ("minimal", "chen", "wintgen_ideal",
                            "pseudo_umbilical", "flat", "k_plus_kn_zero"))


def test_grid_overflow_surface_flags_every_row(capsys):
    code, out, _ = run(capsys, "grid", *OVERFLOW_SURFACE,
                       "--nu", "3", "--nv", "3")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 9
    assert all(r["flag"] == "domain-error: non-finite jets" for r in rows)


def test_import_does_not_load_numpy():
    proc = run_python("-c", "import sys, monge4; "
                            "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_commands_do_not_load_dataclasses_or_its_imports(tmp_path):
    # these took about a fifth of a small command's start-up time; fcntl
    # is loaded only to size the pipes of chunk workers, and these
    # one-chunk forms (those of the benchmark's set-up runs) fork none
    samples = tmp_path / "samples.csv"
    export_samples_csv(sample_values(make_explicit("u^3+v", "u*v"),
                                     GridSpec(-1, 1, -1, 1, 3, 3)), samples)
    argvs = [
        ["grid", "--f", "u^3+sin(v)+u*v", "--g", "exp(u)*v+v^2"],
        ["classify", "--r", "0.8*u^2+2", "--u0", "0.2", "--u1", "1.5",
         "--v0", "0", "--v1", "6.28", "--predicates", "chen"],
    ]
    argvs = [[*argv, "--nu", "2", "--nv", "2"] for argv in argvs]
    argvs.append(["ingest", str(samples)])
    script = ("import sys, monge4.cli as cli; "
              f"codes = [cli.main([*argv, '--out', {str(tmp_path)!r} + "
              f"f'/out{{k}}']) for k, argv in enumerate({argvs!r})]; "
              "print(codes, sorted({'dataclasses', 'inspect', 'ast', 'dis', "
              "'tokenize', 'fcntl'} & set(sys.modules)))")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_package_declares_no_runtime_dependency():
    # a line-level read of the [project] table: tomllib is 3.11+
    lines = (SRC.parent / "pyproject.toml").read_text().splitlines()
    start = lines.index("[project]") + 1
    end = next((k for k in range(start, len(lines))
                if lines[k].startswith("[")), len(lines))
    deps = [line.partition("=")[2].strip() for line in lines[start:end]
            if line.partition("=")[0].strip() == "dependencies"]
    assert deps == ["[]"]


def test_verify_fails_under_optimize_when_witness_is_wrong():
    # with the correct profile in place of the same-sign witness the
    # counterexample check must fail, also when python -O strips asserts
    script = ("import monge4.classify as c, monge4.selfcheck as s; "
              "s.same_sign_aminov_profile = c.minimal_aminov_profile; "
              "r = s.run_all(); "
              "print([x.name for x in r if not x.ok], len(r))")
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['same-sign-counterexample'] 23"


def test_verify_passes_under_optimize():
    proc = run_python("-O", "-m", "monge4.cli", "verify")
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[-1] == "23 of 23 checks passed"


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))  # an escaping exception fails the test
    assert code in range(5), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def _all_finite(values):
    return all(math.isfinite(float(x)) for x in values)


@settings(max_examples=150, deadline=None)
@given(random_ast, random_ast, random_coord, random_coord,
       st.floats(1e-3, 2.0))
@example(Call("log", Var("u")), Var("v"), 1e-200, 0.0, 1.0)
@example(Call("sqrt", Var("u")), Var("v"), 1e-300, 0.0, 1.0)
@example(Call("sin", BinOp("mul", Call("exp", Num(700.0)),
                           Call("exp", Num(700.0)))), Var("v"), 0.0, 0.0, 1.0)
@example(Num(0.0), BinOp("div", Var("u"), Var("v")), 0.0, 1e-12, 0.1875)
def test_fuzz_cli_contract(f, g, u, v, width):
    # exit codes 0-4 only, no traceback, and a non-finite value is only
    # ever reported as a flagged row or an evaluation error
    surface = ["--f", pretty(f), "--g", pretty(g)]
    code, out = _main("eval", *surface, f"--u={u!r}", f"--v={v!r}")
    if code == 0:
        assert _all_finite(json.loads(out).values())
    box = [f"--u0={u!r}", f"--u1={u + width!r}",
           f"--v0={v!r}", f"--v1={v + width!r}", "--nu=3", "--nv=3"]
    code, out = _main("grid", *surface, *box)
    if code == 0:
        for row in csv.DictReader(out.splitlines()):
            flag = row.pop("flag")
            assert flag or _all_finite(row.values()), row
    code, out = _main("classify", *surface, *box)
    if code in (0, 1):
        doc = json.loads(out)
        assert _all_finite(doc[name][key] for name in PREDICATES
                           for key in ("max_residual", "normalized_residual"))


def _assert_ode_table(code, out):
    if code == 0:
        for row in csv.DictReader(out.splitlines()):
            assert _all_finite(row.values()), row


any_float = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=150, deadline=None)
@given(any_float, any_float, st.sampled_from(["1", "-1"]),
       any_float, any_float, any_float, any_float, st.integers(-1, 12))
@example(0.0028, 0.0, "1", 1.0, 0.0, -1.0, 1.0, 4)
@example(0.004, 0.0, "1", 1e160, 0.0, 0.0, 1.0, 4)
@example(1.0, 0.0, "1", 0.0, 0.0, 0.0, 1e300, 4)
def test_fuzz_ode_contract(a, b, sigma, r0, r0p, lo, hi, steps):
    # both ode modes: exit codes 0-4 only, no traceback, and a table
    # that is printed holds finite numbers only
    span = ["--range", repr(lo), repr(hi), "--steps", str(steps)]
    code, out = _main("ode", f"--a={a!r}", f"--b={b!r}", "--sigma", sigma,
                      *span)
    _assert_ode_table(code, out)
    code, out = _main("ode", f"--r0={r0!r}", f"--r0p={r0p!r}", *span)
    _assert_ode_table(code, out)
