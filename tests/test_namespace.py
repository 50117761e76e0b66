"""The package namespace: every public name resolves, on first access, to the very object of
its home module, and the star and submodule imports keep working."""

import importlib
import os
import subprocess
import sys

import pytest

import biorthopoly

PUBLIC = {  # home module -> the names that `biorthopoly` has always exported from it
    "biorthogonality": ["BiorthogonalSystem", "RationalInterpolant", "biorthogonality_matrix",
                        "build_system", "expand_in_interpolants", "leading_nu",
                        "orthogonality_moment", "pairing", "t_polynomial"],
    "contour": ["Circle", "contour_biortho_check", "contour_integral", "default_circle",
                "hermite_divided_difference"],
    "errors": ["BiorthopolyError", "DegenerateInterpolant", "IndexOutOfRange", "InvalidParameter",
               "NonFiniteSample", "NuVanishes", "ParseError", "PoleEvaluation", "ZeroSampleValue"],
    "exponential": ["ExpGridProblem", "exp_alpha_closed", "exp_interpolant_closed",
                    "exp_t_closed", "exp_v_alt_eval", "pochhammer", "terminating_2f1"],
    "interpolation": ["DividedDifferenceTable", "MonicInterpolantFamily", "Samples",
                      "divided_difference_sum", "divided_differences_recursive",
                      "family_from_recurrence", "lagrange_interpolant", "monic_family",
                      "newton_interpolant", "recurrence_step"],
    "numerics": ["EXACT", "FLOAT", "approx_equal", "format_scalar", "parse_scalar"],
    "polynomials": ["Grid", "Polynomial", "nodal_derivative_at", "nodal_polynomial"],
}
HOMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", HOMES)
def test_public_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"biorthopoly.{module}")
    assert getattr(biorthopoly, name) is getattr(home, name)
    assert name in dir(biorthopoly)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from biorthopoly import *", namespace)
    for module, name in HOMES:
        assert namespace[name] is getattr(importlib.import_module(f"biorthopoly.{module}"), name)
    assert sorted(biorthopoly.__all__) == sorted(name for _, name in HOMES)


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'biorthopoly' has no attribute 'nope'$"):
        biorthopoly.nope


def test_submodules_import_from_a_fresh_package():
    """`from biorthopoly import biorthogonality, contour`, as the benchmark writes it, still
    yields the modules when nothing has loaded them yet."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from biorthopoly import biorthogonality, contour, build_system; "
            "assert biorthogonality.__name__ == 'biorthopoly.biorthogonality'; "
            "assert contour.__name__ == 'biorthopoly.contour'; "
            "assert build_system is biorthogonality.build_system")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
