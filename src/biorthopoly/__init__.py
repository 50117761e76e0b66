"""Newton/Lagrange interpolation and the rational functions biorthogonal to
the monic interpolants, with an exact-rational core and a floating contour
cross-check."""

from .biorthogonality import (
    BiorthogonalSystem,
    RationalInterpolant,
    biorthogonality_matrix,
    build_system,
    expand_in_interpolants,
    leading_nu,
    orthogonality_moment,
    pairing,
    t_polynomial,
)
from .contour import (
    Circle,
    contour_biortho_check,
    contour_integral,
    default_circle,
    hermite_divided_difference,
)
from .divided_differences import (
    DividedDifferenceTable,
    Samples,
    divided_difference_sum,
    divided_differences_recursive,
    newton_interpolant,
)
from .errors import (
    BiorthopolyError,
    DegenerateInterpolant,
    IndexOutOfRange,
    InvalidParameter,
    LowerParameterPole,
    NonFiniteSample,
    NuVanishes,
    ParseError,
    PoleEvaluation,
    ZeroDenominator,
    ZeroSampleValue,
)
from .exponential import (
    ExpGridProblem,
    exp_alpha_closed,
    exp_interpolant_closed,
    exp_t_closed,
    exp_v_alt_eval,
    pochhammer,
    terminating_2f1,
)
from .interpolation import (
    MonicInterpolantFamily,
    family_from_recurrence,
    lagrange_interpolant,
    monic_family,
    recurrence_step,
)
from .numerics import (
    EXACT,
    FLOAT,
    approx_equal,
    format_scalar,
    parse_scalar,
)
from .polynomials import Grid, Polynomial, nodal_derivative_at, nodal_polynomial

__version__ = "0.1.0"
