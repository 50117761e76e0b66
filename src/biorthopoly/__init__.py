"""Newton/Lagrange interpolation and the rational functions biorthogonal to
the monic interpolants, with an exact-rational core and a floating contour
cross-check.

The public names load with their home module on first access (PEP 562), so
`import biorthopoly` and a CLI call import only the modules they use."""

from importlib import import_module

_HOMES = {
    "biorthogonality": "BiorthogonalSystem RationalInterpolant biorthogonality_matrix "
                       "build_system expand_in_interpolants leading_nu orthogonality_moment "
                       "pairing t_polynomial",
    "contour": "Circle contour_biortho_check contour_integral default_circle "
               "hermite_divided_difference",
    "errors": "BiorthopolyError DegenerateInterpolant IndexOutOfRange InvalidParameter "
              "NonFiniteSample NuVanishes ParseError PoleEvaluation ZeroSampleValue",
    "exponential": "ExpGridProblem exp_alpha_closed exp_interpolant_closed exp_t_closed "
                   "exp_v_alt_eval pochhammer terminating_2f1",
    "interpolation": "DividedDifferenceTable MonicInterpolantFamily Samples "
                     "divided_difference_sum divided_differences_recursive "
                     "family_from_recurrence lagrange_interpolant monic_family "
                     "newton_interpolant recurrence_step",
    "numerics": "EXACT FLOAT approx_equal format_scalar parse_scalar",
    "polynomials": "Grid Polynomial nodal_derivative_at nodal_polynomial",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
