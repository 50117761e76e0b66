import collections
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from biorthopoly.biorthogonality import BiorthogonalSystem, build_system
from biorthopoly.cli import main
from biorthopoly.errors import (BiorthopolyError, DegenerateInterpolant, IndexOutOfRange,
                                NuVanishes, PoleEvaluation, ZeroSampleValue)

F = Fraction

WORKED = {"nodes": ["0", "1", "2"], "values": ["1", "2", "5"], "mode": "exact"}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_interpolate_worked_example(tmp_path, capsys):
    path = write_problem(tmp_path, WORKED)
    code, report = run(capsys, ["interpolate", path, "--degree", "2"])
    assert code == 0
    assert report["passed"] is True
    assert report["outputs"]["newton"] == ["1", "0", "1"]
    assert report["outputs"]["lagrange"] == ["1", "0", "1"]
    names = [c["name"] for c in report["checks"]]
    assert names == ["newton_lagrange_equal", "interpolation_conditions"]


def test_interpolate_constant_data(tmp_path, capsys):
    path = write_problem(tmp_path, {"nodes": ["4"], "values": ["-7/3"]})
    code, report = run(capsys, ["interpolate", path, "--degree", "0"])
    assert code == 0
    assert report["outputs"]["newton"] == ["-7/3"]


def test_serialized_polynomials_reparse(tmp_path, capsys):
    path = write_problem(tmp_path, WORKED)
    _, report = run(capsys, ["interpolate", path, "--degree", "2"])
    coeffs = [F(text) for text in report["outputs"]["newton"]]
    assert coeffs == [F(1), F(0), F(1)]


def test_mismatched_lengths_is_parse_error(tmp_path, capsys):
    path = write_problem(tmp_path, {"nodes": ["0", "1"], "values": ["1"]})
    code, _ = run(capsys, ["interpolate", path, "--degree", "1"])
    assert code == 2


def test_unparsable_scalar_is_parse_error(tmp_path, capsys):
    path = write_problem(tmp_path, {"nodes": ["0", "oops"], "values": ["1", "2"]})
    code, _ = run(capsys, ["interpolate", path, "--degree", "1"])
    assert code == 2


def test_duplicate_nodes_is_parse_error(tmp_path, capsys):
    path = write_problem(tmp_path, {"nodes": ["0", "0"], "values": ["1", "2"]})
    code, _ = run(capsys, ["interpolate", path, "--degree", "1"])
    assert code == 2


def test_degree_out_of_range(tmp_path, capsys):
    path = write_problem(tmp_path, {"nodes": ["0", "1"], "values": ["1", "2"]})
    code, _ = run(capsys, ["interpolate", path, "--degree", "5"])
    assert code == 3


def test_stdin_problem(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(WORKED)))
    code, report = run(capsys, ["interpolate", "-", "--degree", "2"])
    assert code == 0
    assert report["outputs"]["newton"] == ["1", "0", "1"]


def test_mode_override(tmp_path, capsys):
    payload = dict(WORKED, mode="float")
    path = write_problem(tmp_path, payload)
    code, report = run(capsys, ["interpolate", path, "--mode", "exact",
                                "--degree", "2"])
    assert code == 0
    assert report["mode"] == "exact"
    assert report["outputs"]["newton"] == ["1", "0", "1"]


def test_float_mode_report(tmp_path, capsys):
    payload = {"nodes": ["0", "0.5", "1"], "values": ["1", "2", "5"],
               "mode": "float"}
    path = write_problem(tmp_path, payload)
    code, report = run(capsys, ["interpolate", path, "--degree", "2"])
    assert code == 0
    assert report["mode"] == "float"
    assert float(report["outputs"]["newton"][0]) == 1.0


def test_recurrence_round_trip(tmp_path, capsys):
    path = write_problem(tmp_path, WORKED)
    code, report = run(capsys, ["recurrence", path])
    assert code == 0
    assert [c["name"] for c in report["checks"]] == [
        "recurrence_consistency", "nodal_difference_identity",
        "values_roundtrip", "phats_roundtrip"]
    assert all(c["pass"] for c in report["checks"])
    assert report["outputs"]["alphas"] == ["1", "1", "1"]
    assert report["outputs"]["implied_values"] == ["1", "2", "5"]


def test_check_biortho_worked_example(tmp_path, capsys):
    path = write_problem(tmp_path, WORKED)
    code, report = run(capsys, ["check-biortho", path, "--n-max", "1"])
    assert code == 0
    assert report["outputs"]["matrix"] == [["-1/2", "0"], ["0", "-1"]]
    assert report["outputs"]["diagonal"] == ["-1/2", "-1"]
    assert all(c["pass"] for c in report["checks"])
    # the report must document the normalization deviations it relies on
    notes = " ".join(report["notes"])
    assert "-1/(nu_n*alpha_n)" in notes
    assert "+1/alpha_n" in notes
    assert "weight" in notes


def test_check_biortho_fails_a_doubled_nu(tmp_path, capsys, monkeypatch):
    """A system whose nu_n are twice the true ones, with its diagonal and columns scaled to
    match: -1/(nu_n alpha_n) must take nu_n from leading_nu, where the stored nus cancel."""
    import biorthopoly.biorthogonality as biorthogonality

    def doubled(family, n_max):
        system = build_system(family, n_max)
        return BiorthogonalSystem(family, system.t_rows, tuple(2 * nu for nu in system.nus),
                                  tuple(d / 2 for d in system.diagonal),
                                  tuple((c, 2 * l) for c, l in system.columns), system.node_rows)

    monkeypatch.setattr(biorthogonality, "build_system", doubled)
    path = write_problem(tmp_path, {"nodes": ["0", "1", "2", "3"], "values": ["1", "2", "5", "3"]})
    code, report = run(capsys, ["check-biortho", path, "--n-max", "2"])
    assert code == 1
    assert report["outputs"]["nus"] == ["4", "2", "-12/7"]
    assert report["outputs"]["diagonal"] == ["-1/4", "-1/2", "7/12"]
    assert report["checks"] == [
        {"name": "off_diagonal_zero", "pass": True, "residual": "0"},
        {"name": "diagonal_matches_formula", "pass": False, "residual": "7/12"},
        {"name": "nus_match_formula", "pass": False, "residual": "2"}]


def test_check_biortho_fails_a_doubled_stored_nu_1(tmp_path, capsys, monkeypatch):
    """The nus a report prints are the ones it judges: a stored nu_1 doubled, and nothing else
    changed, fails nus_match_formula, which compares each stored nu_n with leading_nu exactly."""
    import biorthopoly.biorthogonality as biorthogonality

    def doubled_nu_1(family, n_max):
        system = build_system(family, n_max)
        system.nus = (system.nus[0], 2 * system.nus[1], *system.nus[2:])
        return system

    monkeypatch.setattr(biorthogonality, "build_system", doubled_nu_1)
    path = write_problem(tmp_path, {"nodes": ["0", "1", "2", "3"], "values": ["1", "2", "5", "3"]})
    code, report = run(capsys, ["check-biortho", path, "--n-max", "2"])
    assert code == 1
    assert report["outputs"]["nus"] == ["2", "2", "-6/7"]
    assert report["checks"] == [
        {"name": "off_diagonal_zero", "pass": True, "residual": "0"},
        {"name": "diagonal_matches_formula", "pass": True, "residual": "0"},
        {"name": "nus_match_formula", "pass": False, "residual": "1"}]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_check_biortho_prints_the_diagonal_it_judges(mode, tmp_path, capsys, monkeypatch):
    """A doubled stored d_1 leaves the report byte-identical: its diagonal is the matrix's."""
    import biorthopoly.biorthogonality as biorthogonality

    def doubled_d1(family, n_max):
        system = build_system(family, n_max)
        system.diagonal = (system.diagonal[0], 2 * system.diagonal[1], *system.diagonal[2:])
        return system

    path = write_problem(tmp_path, GOLDEN_PROBLEM)
    argv = ["check-biortho", path, "--n-max", "2", "--mode", mode]
    code = main(argv)
    report = capsys.readouterr().out
    monkeypatch.setattr(biorthogonality, "build_system", doubled_d1)
    assert main(argv) == code == 0
    assert capsys.readouterr().out == report


def test_float_check_biortho_passes_at_n_12(tmp_path, capsys):
    """Nodes k/4 and random rational values at N = 12: the node values from the
    three-term recurrence keep both float checks within the default 1e-9
    (Horner at the nodes gave 1.8e-8 on the diagonal and 5.3e-7 off it)."""
    values = ["6/9", "6/8", "8/4", "-4/9", "7/3", "-6/8", "1/3", "-7/9", "-8/7", "6/3",
              "-9/9", "-7/1", "-8/4", "-2/1"]
    payload = {"nodes": [f"{k}/4" for k in range(14)], "values": values, "mode": "float"}
    code, report = run(capsys, ["check-biortho", write_problem(tmp_path, payload),
                                "--n-max", "12"])
    assert code == 0
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [
        ("off_diagonal_zero", True), ("diagonal_matches_formula", True),
        ("nus_match_formula", True)]


def test_float_residual_is_judged_by_the_width_alone(tmp_path, capsys):
    """Float check-biortho at N = 22 on nodes 0..25: both residuals are millions, so they fail
    at the fixed width (which once grew with |r|), while the nus agree."""
    values = ["2", "8", "5", "1", "1", "3", "8", "6", "6", "1", "5", "8", "4", "7", "9", "9",
              "2", "4", "9", "5", "2", "7", "6", "2", "6", "7"]
    payload = {"nodes": [str(s) for s in range(26)], "values": values, "mode": "float"}
    code, report = run(capsys, ["check-biortho", write_problem(tmp_path, payload), "--n-max", "22"])
    assert code == 1
    assert [c["pass"] for c in report["checks"]] == [False, False, True]  # nus agree
    assert all(float(c["residual"]) > 1e6 for c in report["checks"][:2])


def test_check_biortho_constant_data(tmp_path, capsys):
    path = write_problem(tmp_path, {"nodes": ["0", "1", "2"],
                                    "values": ["3", "3", "3"]})
    code, _ = run(capsys, ["check-biortho", path, "--n-max", "1"])
    assert code == 4


def test_check_biortho_zero_value(tmp_path, capsys):
    path = write_problem(tmp_path, {"nodes": ["0", "1", "2"],
                                    "values": ["1", "0", "5"]})
    code, _ = run(capsys, ["check-biortho", path, "--n-max", "1"])
    assert code == 4


def test_expand_reconstructs(tmp_path, capsys):
    payload = {"nodes": ["0", "1", "2", "3"], "values": ["1", "2", "5", "11"]}
    path = write_problem(tmp_path, payload)
    code, report = run(capsys, ["expand", path, "--poly", '["0", "0", "1"]'])
    assert code == 0
    assert report["outputs"]["coefficients"] == ["-1", "0", "1"]
    assert report["checks"][0]["name"] == "reconstruction"
    assert report["checks"][0]["pass"]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("poly", ["[]", '["0"]', '["0", "0"]'])
def test_expand_zero_poly(tmp_path, capsys, poly, mode):
    path = write_problem(tmp_path, dict(WORKED, mode=mode))
    code, report = run(capsys, ["expand", path, "--poly", poly])
    assert code == 0
    assert report["outputs"] == {"coefficients": [], "basis": []}
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("reconstruction", True)]


def test_expand_needs_enough_samples(tmp_path, capsys):
    path = write_problem(tmp_path, WORKED)
    code, _ = run(capsys, ["expand", path, "--poly", '["0", "0", "1"]'])
    assert code == 3


def test_expand_bad_poly_json(tmp_path, capsys):
    path = write_problem(tmp_path, WORKED)
    code, _ = run(capsys, ["expand", path, "--poly", "not json"])
    assert code == 2


def test_expand_deeply_nested_poly_is_parse_error(tmp_path, capsys):
    path = write_problem(tmp_path, WORKED)
    code = main(["expand", path, "--poly", "[" * 100_000 + "]" * 100_000])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ParseError:")


def test_exp_example_all_checks_pass(capsys):
    code, report = run(capsys, ["exp-example", "--q", "2", "--n-max", "4"])
    assert code == 0
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"interpolant_closed_form", "alpha_closed_form", "nu_closed_form",
            "t_closed_form", "v_routes_agree", "grid_power_values"} <= names


def test_exp_example_rational_q(capsys):
    code, report = run(capsys, ["exp-example", "--q", "5/3", "--n-max", "3"])
    assert code == 0
    assert report["outputs"]["nus"][0] == "5/2"  # q/(q-1) at q = 5/3


def test_exp_example_rejects_degenerate_q(capsys):
    for q in ("0", "1"):
        code, _ = run(capsys, ["exp-example", "--q", q])
        assert code == 2


def test_exp_example_with_contour(capsys):
    code, report = run(capsys, ["exp-example", "--q", "2", "--n-max", "2",
                                "--with-contour"])
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["contour_hermite"]["pass"]
    assert by_name["contour_biortho"]["pass"]
    assert float(by_name["contour_hermite"]["residual"]) < 1e-8


def test_exp_example_contour_family_degenerating_in_floats_fails_the_check(capsys):
    """At q = 1e-308 the exact nu_0 = q/(q-1) is nonzero, but the contour check's float family
    of e**(h z) cancels it to 0: that check fails with an inf residual and a note; the exact
    outputs and checks are those of the same call without --with-contour."""
    argv = ["exp-example", "--q", "1e-308", "--n-max", "0", "--contour", "0.6/16"]
    code, report = run(capsys, [*argv, "--with-contour"])
    plain_code, plain = run(capsys, argv)
    assert (code, plain_code) == (1, 0)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name.pop("contour_biortho") == {"name": "contour_biortho", "pass": False,
                                              "residual": "inf"}
    assert not by_name.pop("contour_hermite")["pass"]
    assert list(by_name.values()) == plain["checks"]
    assert {k: v for k, v in report["outputs"].items() if k != "contour_h"} == plain["outputs"]
    assert report["notes"] == plain["notes"] + [
        "contour_biortho: the float family of e**(h z) degenerated: "
        "nu_0 = 0: T_0 degenerates below degree 0"]


def test_exp_example_negative_q_needs_explicit_h(capsys):
    code, _ = run(capsys, ["exp-example", "--q", "-1", "--with-contour"])
    assert code == 2


def test_hermite_command(capsys):
    code, report = run(capsys, ["hermite", "--h", repr(math.log(2.0)),
                                "--k", "3"])
    assert code == 0
    assert abs(float(report["outputs"]["estimate_real"]) - 1 / 6) < 1e-8
    assert all(c["pass"] for c in report["checks"])


def test_hermite_contour_override(capsys):
    code, report = run(capsys, ["hermite", "--h", "0.1", "--k", "2",
                                "--contour", "9.5/1024"])
    assert code == 0
    assert report["outputs"]["circle"]["radius"] == 9.5
    assert report["outputs"]["circle"]["sample_count"] == 1024


def test_hermite_bad_contour_spec(capsys):
    code, _ = run(capsys, ["hermite", "--h", "0.1", "--k", "2",
                           "--contour", "wide"])
    assert code == 2


@pytest.mark.parametrize("with_contour", [[], ["--with-contour"]])
@pytest.mark.parametrize("spec, message", [
    ("garbage", "--contour expects RADIUS/SAMPLES, got 'garbage'"),
    ("6/100", "sample_count must be a power of two from 16 to 65536"),
    ("-6/256", "circle radius must be positive and finite"),
    ("inf/16", "circle radius must be positive and finite"),
])
def test_exp_example_rejects_a_malformed_contour_spec(with_contour, spec, message, capsys):
    """The --contour spec is parsed and checked once, after --n-max's range check, whether or
    not --with-contour asks for the circles: a malformed one exits 2 with the message it had."""
    assert main(["exp-example", "--q", "2", "--n-max", "1", *with_contour, "--contour", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: InvalidParameter: {message}\n"
    assert main(["exp-example", "--q", "2", "--n-max", "41", "--contour", spec]) == 3
    assert capsys.readouterr().err.startswith("error: IndexOutOfRange:")


def test_check_biortho_negative_n_max_is_out_of_range(tmp_path, capsys):
    path = write_problem(tmp_path, WORKED)
    code, report = run(capsys, ["check-biortho", path, "--n-max", "-1"])
    assert code == 3
    assert report is None


@pytest.mark.parametrize("n_max", ["41", "100000", "-1"])
def test_exp_example_n_max_outside_zero_to_forty_is_out_of_range(capsys, n_max):
    # 40 takes about 25 ms in process; the checks on integer rows grow about as n_max**2
    code = main(["exp-example", "--q", "2", "--n-max", n_max])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: IndexOutOfRange:")


@pytest.fixture
def no_quadrature(monkeypatch):
    """The quadrature refuses to run at all: a call that reaches it fails the test."""
    import biorthopoly.contour as contour

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature reached")

    for name in ("hermite_divided_difference", "contour_biortho_check"):
        monkeypatch.setattr(contour, name, refuse)
    monkeypatch.setattr(contour.Circle, "points", refuse)


HUGE_CONTOUR = "5/1099511627776"  # 2**40 samples: about 10**12 complex numbers if built


@pytest.mark.parametrize("argv, code", [
    (["hermite", "--h", "1", "--k", "201"], 3),
    (["hermite", "--h", "1", "--k", "1000000000000"], 3),
    (["hermite", "--h", "1", "--k", "1000000000000", "--contour", HUGE_CONTOUR], 3),
    (["hermite", "--h", "1", "--k", "2", "--contour", HUGE_CONTOUR], 2),
    (["hermite", "--h", "1", "--k", "2", "--contour", "5/131072"], 2),
    (["exp-example", "--q", "2", "--n-max", "2", "--with-contour", "--contour", HUGE_CONTOUR], 2),
    (["hermite", "--h", "1", "--k", "-1"], 3),
    (["hermite", "--h", "1", "--k", "2", "--contour", "inf/16"], 2),
])
def test_huge_contour_sizes_are_rejected_before_allocation(argv, code, capsys, no_quadrature):
    """hermite --k below 0 or above HERMITE_MAX_K exits 3, and a --contour of more than 65536
    samples or an infinite radius exits 2, before any node list or sample is built."""
    import biorthopoly.cli as cli
    assert cli.HERMITE_MAX_K == 200
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: IndexOutOfRange:" if code == 3
                                   else "error: InvalidParameter:")


def test_hermite_circle_that_misses_a_node_is_rejected_before_the_quadrature(capsys,
                                                                             no_quadrature):
    """hermite --contour with a radius that leaves nodes 0..k outside the circle about their
    midpoint exits 2 before any sample is built; so does exp-example --with-contour, whose
    circles are all checked before its first quadrature, naming the first circle its loops
    would meet (here the hermite loop's k = 21)."""
    for argv, top in [(["hermite", "--h", "0.05", "--k", "60", "--contour", "20.5/65536"], 60),
                      (["exp-example", "--q", "2", "--n-max", "40", "--with-contour",
                        "--contour", "10.3/65536"], 21)]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: InvalidParameter: nodes 0..{top} are not all inside the circle\n"


@pytest.mark.parametrize("argv, message", [
    (["--q", "2", "--n-max", "40", "--contour", "10.3/65536"],
     "InvalidParameter: nodes 0..21 are not all inside the circle"),
    (["--q", "2", "--n-max", "1", "--contour", "1/16"],
     "InvalidParameter: nodes 0..2 are not all inside the circle"),
    (["--q", "1", "--n-max", "40", "--contour", "10.3/65536"],
     "InvalidParameter: q must differ from 0 and 1"),
], ids=["radius-misses-node-21", "node-on-circle", "q-checked-first"])
def test_exp_example_refuses_a_bad_circle_before_any_exact_work(argv, message, capsys,
                                                                monkeypatch):
    """exp-example --with-contour checks its circles after q's own checks and before it builds
    the family: a refused call never reaches monic_family."""
    import biorthopoly.interpolation as interpolation

    def refuse(*args, **kwargs):
        raise AssertionError("monic_family reached")

    monkeypatch.setattr(interpolation, "monic_family", refuse)
    assert main(["exp-example", "--with-contour", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("k", ["199", "200"])
def test_hermite_k_up_to_the_bound_keeps_its_exit_code(k, capsys):
    """Below and at HERMITE_MAX_K nothing changes: omega_{k+1} overflows at the first sample."""
    assert main(["hermite", "--h", "1", "--k", k]) == 2
    assert capsys.readouterr().err.startswith("error: NonFiniteSample:")


def test_exp_example_failed_closed_form_reports_its_residual(capsys, monkeypatch):
    import biorthopoly.exponential as exponential
    closed = exponential.exp_alpha_closed
    monkeypatch.setattr(exponential, "exp_alpha_closed",
                        lambda problem, n: closed(problem, n) + F(1, 2))
    code, report = run(capsys, ["exp-example", "--q", "2", "--n-max", "2"])
    assert code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["alpha_closed_form"] == {"name": "alpha_closed_form", "pass": False,
                                            "residual": "1/2"}
    # the diagonal's closed form -1/(nu alpha_n) reads the same alpha_n
    assert [c["name"] for c in report["checks"] if not c["pass"]] == [
        "alpha_closed_form", "diagonal_closed_form"]


def _doubled_d_1(system):
    system.diagonal = (system.diagonal[0], 2 * system.diagonal[1], *system.diagonal[2:])
    return system


def _a_2_plus_1(family):
    values = (*family.values[:2], family.values[2] + 1, *family.values[3:])
    return type(family)(family.grid, values, family.alphas, rows=family.rows)


@pytest.mark.parametrize("module, name, mutant", [
    ("biorthogonality", "build_system", _doubled_d_1),  # stored d_1 doubled
    ("interpolation", "monic_family", _a_2_plus_1),  # family value A_2 + 1
])
def test_exp_example_fails_a_wrong_printed_diagonal(module, name, mutant, capsys, monkeypatch):
    """exp-example judges the diagonal it prints: each planted defect, applied to what the
    library function returns, changes the printed d_n, and diagonal_closed_form (d_n against
    -1/(nu alpha_n), nu = q/(q-1)) is the one check that fails."""
    argv = ["exp-example", "--q", "2", "--n-max", "2"]
    _, clean = run(capsys, argv)
    target = importlib.import_module(f"biorthopoly.{module}")
    original = getattr(target, name)
    monkeypatch.setattr(target, name, lambda *args: mutant(original(*args)))
    code, report = run(capsys, argv)
    assert code == 1
    assert report["outputs"]["diagonal"] != clean["outputs"]["diagonal"]
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["diagonal_closed_form"]


@pytest.mark.parametrize("argv", [
    # float(q) overflows, and underflows to 0 under ln
    ["exp-example", "--q", "1e400", "--n-max", "1", "--with-contour"],
    ["exp-example", "--q", "1e-400", "--n-max", "1", "--with-contour"],
    # h = ln q = 690.8 and -713.8: e**(h zeta) overflows on the circle (NonFiniteSample) before
    # alpha_2 = (q-1)**2/2 or the diagonal -1/(nu_0 alpha_0) would overflow as a reference value
    ["exp-example", "--q", "1e300", "--n-max", "2", "--with-contour"],
    ["exp-example", "--q", "1e-310", "--n-max", "0", "--with-contour"],
    # q <= 0 has no real h = ln q
    ["exp-example", "--q", "-2", "--with-contour"],
    ["exp-example", "--q", "0", "--n-max", "1", "--with-contour"],
])
def test_exp_example_contour_out_of_double_range_is_bad_parameter(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error = "NonFiniteSample" if argv[2] in ("1e300", "1e-310") else "InvalidParameter"
    assert captured.err.startswith(f"error: {error}:")


@pytest.mark.parametrize("argv", [
    ["hermite", "--h", "0.1", "--k", "2", "--contour-tolerance", "1e-6"],
    ["hermite", "--h", "nan", "--k", "2"],
    ["hermite", "--h", "inf", "--k", "2"],
    ["exp-example", "--q", "2", "--with-contour", "--contour-tolerance", "1e-6"],
    ["check-biortho", "PROBLEM", "--n-max", "1", "--tolerance", "1e-6"],
])
def test_non_finite_contour_parameters_rejected(argv, tmp_path, capsys):
    """argparse refuses a non-finite --h, and --contour-tolerance and --tolerance, which are no
    options: the checks compare with the fixed widths CONTOUR_TOLERANCE and TOLERANCE."""
    path = write_problem(tmp_path, WORKED)
    with pytest.raises(SystemExit) as exc:
        main([path if a == "PROBLEM" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for option in ("--contour-tolerance", "--tolerance"):
        if option in argv:
            assert f"unrecognized arguments: {option} 1e-6" in captured.err


def test_hermite_overflowing_h_is_bad_parameter(capsys):
    # e**(800 zeta) overflows on the circle: a typed error, exit 2, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["hermite", "--h", "800", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: NonFiniteSample:")


@pytest.mark.parametrize("argv, top", [
    # nodes 0 and 2 lie on the circle about 1 that the pairing loop's max(n, m + 1) = 2 takes
    (["exp-example", "--q", "2", "--n-max", "1", "--with-contour", "--contour", "1/16"], 2),
    # nodes 0 and 1 lie on the circle about 1/2
    (["hermite", "--h", "0.5", "--k", "1", "--contour", "0.5/16"], 1),
    # nodes 0 and 21 lie on the circle about 21/2 that the hermite loop's k = 21 takes
    (["exp-example", "--q", "2", "--n-max", "40", "--with-contour", "--contour", "10.5/65536"],
     21),
])
def test_contour_through_a_node_or_pole_is_bad_parameter(argv, top, capsys, no_quadrature):
    """A circle through a node, a pole of every integrand, is refused before the first
    quadrature: samples 0 and M/2 would hit nodes top and 0 exactly (centre and radius top/2)."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        f"error: InvalidParameter: nodes 0..{top} are not all inside the circle\n"


def contour_grid():
    """hermite at h = +-j/4 (j = 1..8) and k = 0..4, the cli-mix benchmark's grid, and
    exp-example --with-contour at six q and cli-mix's n_max = 1..4."""
    for j in range(1, 9):
        for h in (j / 4, -j / 4):
            for k in range(5):
                yield ["hermite", "--h", repr(h), "--k", str(k)]
    for q in ("2", "3", "1/2", "7/3", "1/6", "5/6"):
        for n_max in range(1, 5):
            yield ["exp-example", "--q", q, "--n-max", str(n_max), "--with-contour"]


def test_contour_reports_are_pinned():
    """sha256 over argv, exit code and report of every contour_grid call, captured while the
    contour checks still took a --contour-tolerance: fixing the width at CONTOUR_TOLERANCE and
    checking every circle up front moved no report and no exit code (q = 1/6 at n_max 3 and 4
    exits 1: contour_biortho is about 1e-7)."""
    digest, codes = hashlib.sha256(), collections.Counter()
    for argv in contour_grid():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        digest.update(json.dumps([argv, code, out.getvalue()]).encode() + b"\0")
        codes[code] += 1
    assert codes == {0: 102, 1: 2}
    assert digest.hexdigest() == \
        "b3bab37c6c747a3e29da9ec18a5da78163a1a8969b7c76e4f6493e266b8a683d"


def test_float_overflowing_scalar_is_parse_error(tmp_path, capsys):
    payload = {"nodes": ["0", "1", "2"], "values": ["1e400", "2", "3"], "mode": "float"}
    code = main(["interpolate", write_problem(tmp_path, payload), "--degree", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ParseError:")
    payload = {"nodes": ["0", "1", "2", "3"], "values": ["1", "2", "5", "11"], "mode": "float"}
    code = main(["expand", write_problem(tmp_path, payload), "--poly", '["1", "-1e400"]'])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ParseError:")


def test_cli_import_needs_no_numpy():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = "import sys, biorthopoly.cli; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_reflection_modules():
    """The CLI imports no dataclasses, inspect or typing. -I -S keep the environment and site's
    own imports out; -B keeps the child from writing bytecode into the source tree."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import biorthopoly.cli; "
            "loaded = {'dataclasses', 'inspect', 'typing'} & set(sys.modules); "
            "assert not loaded, sorted(loaded)")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_digest_needs_no_hashlib():
    """The inputs digest is the interpreter's own sha256 (_sha2 from 3.12, _sha256 before),
    so the CLI import loads neither hashlib nor OpenSSL's _hashlib; the digest is hashlib's."""
    import biorthopoly.cli as cli
    payload = {"q": "2", "n_max": 2, "with_contour": False}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert cli._digest(payload) == "sha256:" + hashlib.sha256(canonical).hexdigest()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import biorthopoly.cli; "
            "from importlib.util import find_spec; "
            "loaded = {'hashlib', '_hashlib'} & set(sys.modules); "
            "assert not loaded or not (find_spec('_sha2') or find_spec('_sha256')), loaded")
    # None in sys.modules makes an import fail: without both modules, hashlib steps in
    fallback = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
                "import hashlib, biorthopoly.cli as cli; assert cli.sha256 is hashlib.sha256; "
                f"assert cli._digest({payload!r}) == {cli._digest(payload)!r}")
    for child in (code, fallback):
        proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", child, src],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, expected", [
    (["hermite", "--h", "1", "--k", "3"], 0),
    # the known failing contour check, so the code to keep is 1
    (["exp-example", "--q", "1/6", "--n-max", "4", "--with-contour"], 1),
])
def test_closed_stdout_keeps_the_report_code_without_a_traceback(argv, expected):
    """A reader that has gone (`biorthopoly ... | head -c 10`) leaves the exit code at the
    report's own 0 or 1, with no BrokenPipeError traceback that would read as exit 1."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        proc = subprocess.run([sys.executable, "-m", "biorthopoly", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_PROBLEM = {"nodes": ["0", "1", "3", "-2", "1/2"], "values": ["1", "2", "5", "-3", "7/4"]}


GOLDEN_CASES = {  # golden file name -> (argv, exit code); exp-example-large shows degree 3 and up
    "interpolate": (["interpolate", "PROBLEM", "--degree", "3"], 0),
    "recurrence": (["recurrence", "PROBLEM"], 0),
    "check-biortho": (["check-biortho", "PROBLEM", "--n-max", "2"], 0),
    "expand": (["expand", "PROBLEM", "--poly", '["1", "-1/2", "2"]'], 0),
    "exp-example": (["exp-example", "--q", "2", "--n-max", "2"], 0),
    "exp-example-large": (["exp-example", "--q", "-7/3", "--n-max", "12"], 0),
    # float mode pins the verdict rule: rounding residuals up to about 1e-15 pass at TOLERANCE
    "interpolate-float": (["interpolate", "PROBLEM", "--degree", "3", "--mode", "float"], 0),
    "check-biortho-float": (["check-biortho", "PROBLEM", "--n-max", "2", "--mode", "float"], 0),
}


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_exact_report_matches_golden(name, tmp_path, capsys):
    # the whole text pins key order, every output and the inputs_digest value
    path = write_problem(tmp_path, GOLDEN_PROBLEM)
    argv, code = GOLDEN_CASES[name]
    assert main([path if a == "PROBLEM" else a for a in argv]) == code
    with open(os.path.join(GOLDEN, name + ".json")) as handle:
        assert capsys.readouterr().out == handle.read()


def _readme_check_rows():
    """(subcommand, check, outputs covered) per row of README's "What each report checks"."""
    with open(os.path.join(os.path.dirname(GOLDEN), "..", "README.md")) as handle:
        section = handle.read().partition("### What each report checks")[2].partition("\n#")[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    return [(command.strip(" `"), check.strip(" `"),
             {key.strip(" `") for key in covered.split(",") if key.strip()})
            for command, check, _, _, covered in rows]


def test_readme_check_table_matches_the_reports(tmp_path, capsys):
    """README's table lists exactly the checks each report runs, in order, and names every key
    under outputs in some row (a row whose check is *echo* only echoes a parameter)."""
    path = write_problem(tmp_path, GOLDEN_PROBLEM)
    calls = [GOLDEN_CASES[name][0]
             for name in ("interpolate", "recurrence", "check-biortho", "expand", "exp-example")]
    calls += [[*calls[-1], "--with-contour"], ["hermite", "--h", "1", "--k", "3"]]
    checks, outputs = {}, {}
    for argv in calls:
        _, report = run(capsys, [path if a == "PROBLEM" else a for a in argv])
        checks[argv[0]] = [c["name"] for c in report["checks"]]  # the longer exp-example last
        outputs.setdefault(argv[0], set()).update(report["outputs"])
    rows = _readme_check_rows()
    table = {}
    for command, check, _ in rows:
        if check != "*echo*":
            table.setdefault(command, []).append(check)
    assert table == checks
    covered = {}
    for command, _, keys in rows:
        covered.setdefault(command, set()).update(keys)
    assert covered == outputs


_BASE = {"biorthopoly", "biorthopoly.cli", "biorthopoly.errors", "biorthopoly.numerics",
         "biorthopoly.polynomials"}
_FAMILY = _BASE | {"biorthopoly.interpolation"}
_PAIRING = _FAMILY | {"biorthopoly.biorthogonality"}


@pytest.mark.parametrize("argv, loaded", [
    (GOLDEN_CASES["interpolate"][0], _FAMILY),
    (GOLDEN_CASES["recurrence"][0], _FAMILY),
    (GOLDEN_CASES["check-biortho"][0], _PAIRING),
    (GOLDEN_CASES["expand"][0], _PAIRING),
    (GOLDEN_CASES["exp-example"][0], _PAIRING | {"biorthopoly.exponential"}),
    ([*GOLDEN_CASES["exp-example"][0], "--with-contour"],
     _PAIRING | {"biorthopoly.exponential", "biorthopoly.contour"}),
    (["hermite", "--h", "1", "--k", "3"], _BASE | {"biorthopoly.contour"}),
    (None, {"biorthopoly"}),  # a bare `import biorthopoly`
])
def test_a_call_loads_only_its_subcommands_modules(argv, loaded, tmp_path):
    """A fresh interpreter running one subcommand through cli.main imports exactly these
    biorthopoly modules: hermite runs no family code.  -I -S -B as in
    test_cli_import_loads_no_reflection_modules."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = write_problem(tmp_path, GOLDEN_PROBLEM)
    run_main = ("import biorthopoly.cli; assert biorthopoly.cli.main(json.loads(sys.argv[2])) == 0"
                if argv else "import biorthopoly")
    code = (f"import json, sys; sys.path.insert(0, sys.argv[1]); {run_main}; print(json.dumps("
            "sorted(m for m in sys.modules if m.partition('.')[0] == 'biorthopoly')), "
            "file=sys.stderr)")
    argv = [path if a == "PROBLEM" else a for a in argv or ()]
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, src, json.dumps(argv)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == sorted(loaded)


def test_reports_echo_command_and_digest(tmp_path, capsys):
    path = write_problem(tmp_path, WORKED)
    _, first = run(capsys, ["interpolate", path, "--degree", "2"])
    _, second = run(capsys, ["interpolate", path, "--degree", "2"])
    assert first["command"] == "interpolate"
    assert first["inputs_digest"].startswith("sha256:")
    assert first["inputs_digest"] == second["inputs_digest"]


def test_float_nan_residual_fails_its_check(tmp_path, capsys):
    # the Newton coefficients overflow to nan/inf; a nan difference must not
    # be skipped by the residual's max
    payload = {"nodes": ["0", "1e-200", "1"], "values": ["1e300", "-1e300", "1e300"],
               "mode": "float"}
    code, report = run(capsys, ["interpolate", write_problem(tmp_path, payload),
                                "--degree", "2"])
    assert code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["interpolation_conditions"] == {
        "name": "interpolation_conditions", "pass": False, "residual": "nan"}


def test_underflowing_nodal_weight_is_bad_parameter(tmp_path, capsys):
    payload = {"nodes": ["0", "1e-300", "2e-300"], "values": ["1", "2", "3"], "mode": "float"}
    code = main(["interpolate", write_problem(tmp_path, payload), "--degree", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidParameter:")


def test_exp_example_past_the_old_sample_point(capsys):
    # z = 10 is a pole of V_9; no V-route sample point lies on the integer grid
    code, report = run(capsys, ["exp-example", "--q", "2", "--n-max", "9"])
    assert code == 0
    assert report["passed"] is True


@pytest.mark.parametrize("problem, argv, message", [
    # alpha_1 overflows to inf, so every P-hat_n with n >= 1 comes out nan
    (("0 1e-150 2e-150 1", "1 1e300 -1e300 1", "float"), ["check-biortho", "--n-max", "1"],
     "InvalidParameter: alpha_1 = inf is not finite"),
    (("0 1e-150 2e-150 1", "1 1e300 -1e300 1", "float"), ["recurrence"],
     "InvalidParameter: alpha_1 = inf is not finite"),
    # nu_0 = a_1 - a_0 + alpha_0/alpha_1 overflows to inf
    (("-1e300 1.7e308", "-1 -7/2", "float"), ["check-biortho", "--n-max", "0"],
     "InvalidParameter: nu_0 = inf is not finite"),
    # A_s * omega'(a_s) underflows to 0 in the residue terms
    (("0 1e-20 2e-20 3e-20", "1e-300 2e-300 5e-300 1e-299", "float"),
     ["check-biortho", "--n-max", "1"], "InvalidParameter: A_s omega'(a_s) underflows"),
    # nu_0 * alpha_0 underflows to 0 under the diagonal formula
    (("0.5 5e-324", "3e-20 1e-150", "float"), ["check-biortho", "--n-max", "0"],
     "InvalidParameter: nu_n alpha_n underflows"),
    # the two residue terms of d_0, 1/A_1 - 1/A_0 in the subnormal range, cancel to 0,
    # and expand divides by d_0
    (("0 1", "1.7e308 1.7000000000000001e308", "float"), ["expand", "--poly", '["3e-20"]'],
     "InvalidParameter: d_0 rounds to 0"),
    # A_0 omega'(a_0) = 1.7e308 * -1e300 overflows, which would make d_0 = -0.0
    (("-1e300 3e-20", "1.7e308 -1e300", "float"), ["expand", "--poly", '["3e-20"]'],
     "InvalidParameter: A_s omega'(a_s) = -inf is not finite at s = 0"),
    # the same overflow would turn the term into 0 and pass off_diagonal_zero
    (("-1e300 3e-20 1 2", "1.7e308 -1e300 1 1", "float"), ["check-biortho", "--n-max", "1"],
     "InvalidParameter: A_s omega'(a_s) = -inf is not finite at s = 0"),
    # alphas and nus are finite, but the recurrence step to P-hat_2(a_1) overflows
    (("0 1e150 -1e300", "-1 1e150 1.7e308", "float"), ["check-biortho", "--n-max", "1"],
     "InvalidParameter: P-hat_2(a_1) = inf is not finite"),
    # the implied values run past the interpreter's int-to-string digit limit
    (("-1 2e-20 1e200 -7/2 1.7e308 5e-324", "2e-20 2 1e-20 -1 1e-300 1", "exact"),
     ["recurrence"], "InvalidParameter: an exact value exceeds"),
    # e**(300 * 3) at the last node of the biorthogonality check overflows
    (None, ["exp-example", "--q", "1e300", "--n-max", "0", "--with-contour", "--contour", "1/16"],
     "NonFiniteSample: e**(h a) overflows"),
    # a radius-0.5 circle keeps e**(h zeta) finite, but the reference e**h overflows
    (None, ["hermite", "--h", "800", "--k", "0", "--contour", "0.5/16"],
     "InvalidParameter: (e**h - 1)**k / k! overflows"),
    # the reference's k-th power would overflow (h k > 709.78), but a circle enclosing the nodes
    # reaches Re zeta >= k, where e**(h zeta) overflows first: the enclosure check comes first
    (None, ["hermite", "--h", "100", "--k", "8", "--contour", "0.5/16"],
     "InvalidParameter: nodes 0..8 are not all inside the circle"),
], ids=["alpha-inf-check", "alpha-inf-recurrence", "nu-inf", "residue-underflow",
        "diagonal-formula-underflow", "expand-zero-diagonal", "residue-overflow-expand",
        "residue-overflow-check", "node-value-overflow", "exact-too-long",
        "contour-node-samples", "hermite-reference-exp", "hermite-enclosure-first"])
def test_overflow_and_underflow_exit_2_with_a_typed_error(problem, argv, message, tmp_path,
                                                           capsys):
    if problem:
        nodes, values, mode = problem
        payload = {"nodes": nodes.split(), "values": values.split(), "mode": mode}
        argv = [argv[0], write_problem(tmp_path, payload), *argv[1:]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
                         ids=["bad-utf8", "deep-nesting"])
def test_unreadable_problem_file_is_parse_error(content, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    code = main(["interpolate", str(path), "--degree", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ParseError:")


@pytest.mark.parametrize("problem, extra", [
    ([["0"], ["1"]], []),
    ({"nodes": ["0"]}, []),
    ({"nodes": "0", "values": ["1"]}, []),
    ({"nodes": ["0"], "values": {"0": "1"}}, []),
    ({"nodes": [], "values": []}, []),
    ({"nodes": ["0"], "values": ["1"], "mode": "complex"}, []),
    (WORKED, ["--poly", '{"0": "1"}']),
], ids=["not-an-object", "missing-values", "nodes-not-array", "values-not-array", "empty",
        "unknown-mode", "poly-not-array"])
def test_malformed_problem_is_parse_error(problem, extra, tmp_path, capsys):
    path = write_problem(tmp_path, problem)
    code = main(["expand", path, *(extra or ["--poly", '["1"]'])])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ParseError:")


def _error_classes(cls=BiorthopolyError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_every_error_class_sets_its_exit_code(capsys, monkeypatch):
    import biorthopoly.cli as cli
    import biorthopoly.errors as errors
    classes = list(_error_classes())
    assert PoleEvaluation in classes and len(classes) >= 9
    not_two = {IndexOutOfRange: 3, DegenerateInterpolant: 4, NuVanishes: 4, ZeroSampleValue: 4,
               errors._Degeneracy: 4}  # their private base
    for cls in classes:
        assert cls.exit_code == not_two.get(cls, 2), cls

        def handler(args, cls=cls):
            raise cls(0)

        monkeypatch.setattr(cli, "cmd_exp_example", handler)
        assert main(["exp-example", "--q", "2"]) == cls.exit_code, cls
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cls.__name__}:")


FUZZ_SCALARS = ["0", "1", "-1", "2", "1/3", "-7/2", "1e-300", "-1e-300", "1e300", "-1e300",
                "1e-20", "2e-20", "3e-20", "1e200", "0.5", "1e-150", "1e150", "5e-324",
                "1.7e308"]


@st.composite
def problem_calls(draw):
    count = draw(st.integers(1, 6))
    scalars = st.lists(st.sampled_from(FUZZ_SCALARS), min_size=count, max_size=count)
    problem = {"nodes": draw(scalars), "values": draw(scalars),
               "mode": draw(st.sampled_from(["exact", "float"]))}
    command = draw(st.sampled_from(["interpolate", "recurrence", "check-biortho", "expand"]))
    n = str(draw(st.integers(0, count)))
    poly = json.dumps(draw(st.lists(st.sampled_from(FUZZ_SCALARS), min_size=1, max_size=count)))
    options = {"interpolate": ["--degree", n],
               "recurrence": draw(st.sampled_from([[], ["--n-max", n]])),
               "check-biortho": ["--n-max", n],
               "expand": ["--poly", poly]}[command]
    return problem, [command, "-", *options]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(problem_calls())
def test_problem_calls_exit_zero_to_four(call):
    problem, argv = call
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(problem))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 1, 2, 3, 4}
    assert (out.getvalue() == "") == (code >= 2)


Q_TEXTS = ["2", "1/6", "5/3", "-2", "-1/3", "3/7", "0", "1", "-1", "abc", "1/0", "", "2/", "1e40",
           "-1e40", "1e-40", "9" * 5000]
H_TEXTS = ["0.5", "1", "-1", "0", "2.5", "-0.25", "nan", "inf", "-inf", "1e308", "-1e308", "800",
           "1e-300", "x"]
CONTOURS = ["5/16", "1/16", "0.5/16", "1.5/64", "2/4096", "30/1024", "0/64", "-2/64", "nan/64",
            "inf/64", "1e308/64", "5/48", "5/0", "5/-16", "5/8", "5/", "/64", "3", "r/16", "5/16/2",
            "5/1e3", "", "5/1099511627776"]


@st.composite
def contour_calls(draw):
    """exp-example and hermite argv: valid, junk and extreme --q, --n-max, --h, --k, --contour,
    in the "--q=-1/3" form."""
    if draw(st.booleans()):
        argv = ["exp-example", "--q=" + draw(st.sampled_from(Q_TEXTS)),
                "--n-max", str(draw(st.sampled_from([*range(-3, 13), 41])))]
        argv += draw(st.sampled_from([[], [], ["--with-contour"]]))  # a third: contours cost most
    else:
        argv = ["hermite", "--h=" + draw(st.sampled_from(H_TEXTS)),
                "--k", str(draw(st.sampled_from([*range(-2, 13), 10**12])))]
    return argv + draw(st.sampled_from([[], ["--contour=" + draw(st.sampled_from(CONTOURS))]]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(contour_calls())
def test_contour_calls_exit_zero_to_four(argv):
    """Every exp-example and hermite call exits 0 to 4 with no traceback; argparse's
    rejection counts as its exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in {0, 1, 2, 3, 4}, argv
    assert (out.getvalue() == "") == (code >= 2), argv


@pytest.mark.parametrize("spaced, joined", [
    (["exp-example", "--q", "-1/3", "--n-max", "2"], ["exp-example", "--q=-1/3", "--n-max", "2"]),
    (["hermite", "--h", "-1e-3", "--k", "2"], ["hermite", "--h=-1e-3", "--k", "2"]),
    (["hermite", "--h", "-.5", "--k", "1"], ["hermite", "--h=-.5", "--k", "1"]),
])
def test_negative_option_values_read_in_both_spellings(spaced, joined, capsys):
    """A value that starts with "-" and a digit is a value, not an option, in either spelling."""
    code, report = run(capsys, spaced)
    assert code == 0
    assert (code, report) == run(capsys, joined)


@pytest.mark.parametrize("argv", [
    ["hermite", "--h", "1", "--k", "2", "--bogus"],
    ["hermite", "--h", "1", "--k", "2", "-x"],
    ["exp-example", "--q", "-x"],
    ["exp-example", "--q", "--n-max", "2"],
    # options are spelled in full: exp-example takes h = ln q, and --h is no prefix of --help
    ["exp-example", "--q", "2", "--h", "0.5"],
    ["exp-example", "--q", "2", "--h=0.5"],
    ["exp-example", "--q", "2", "--with"],
    ["check-biortho", "-", "--n-max", "1", "--tol", "1e-3"],
    ["check-biortho", "-", "--n", "1"],
])
def test_unknown_options_still_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["hermite", "--h", "0.5", "--k", "3", "--contour", "0.3/64"],
    ["exp-example", "--q", "2", "--n-max", "3", "--with-contour", "--contour", "1.4/64"],
])
def test_contour_circle_leaving_a_node_outside_is_bad_parameter(argv, capsys):
    """Such a circle used to give a finite, wrong integral and a failed check (exit 1)."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidParameter: nodes 0..3 are not all inside")
