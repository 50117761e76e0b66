import math
from fractions import Fraction

import pytest

from biorthopoly import contour
from biorthopoly.biorthogonality import build_system
from biorthopoly.contour import (
    Circle,
    contour_biortho_check,
    contour_integral,
    default_circle,
    hermite_divided_difference,
)
from biorthopoly.errors import InvalidParameter, NonFiniteSample
from biorthopoly.exponential import ExpGridProblem, exp_alpha_closed
from biorthopoly.interpolation import monic_family

F = Fraction
LN2 = math.log(2.0)


def exact_diagonal(q, n_max):
    prob = ExpGridProblem(q, n_max)
    family = monic_family(prob.samples, n_max + 1)
    return build_system(family, n_max).diagonal


def test_circle_validation():
    with pytest.raises(InvalidParameter):
        Circle(center=0j, radius=-1.0)
    with pytest.raises(InvalidParameter):
        Circle(center=0j, radius=1.0, sample_count=24)
    with pytest.raises(InvalidParameter):
        Circle(center=0j, radius=1.0, sample_count=8)


@pytest.mark.parametrize("count", [2 ** 17, 2 ** 40])
def test_circle_rejects_sample_counts_above_65536(count):
    """A huge power of two is refused when the circle is made, before points() builds samples."""
    assert Circle(center=0j, radius=1.0, sample_count=2 ** 16).sample_count == 65536
    with pytest.raises(InvalidParameter, match="16 to 65536"):
        Circle(center=0j, radius=1.0, sample_count=count)


def test_default_circle_geometry():
    c = default_circle(3)
    assert c.center == 1.5 + 0j
    assert c.radius == 8.0
    assert c.sample_count == 2048


def test_residue_of_reciprocal():
    circle = Circle(center=0j, radius=1.0, sample_count=64)
    value = contour_integral(lambda z: 1 / z, circle)
    assert abs(value - 1) < 1e-14


def test_no_pole_no_residue():
    circle = Circle(center=0.3 + 0.1j, radius=2.0, sample_count=64)
    assert abs(contour_integral(lambda z: 1 + 0j, circle)) < 1e-14


def test_second_order_pole_has_zero_residue():
    circle = Circle(center=0j, radius=1.0, sample_count=64)
    assert abs(contour_integral(lambda z: 1 / z ** 2, circle)) < 1e-13


def test_non_finite_sample_rejected():
    circle = Circle(center=0j, radius=1.0, sample_count=16)
    with pytest.raises(NonFiniteSample):
        contour_integral(lambda z: complex(float("inf"), 0.0), circle)


def test_hermite_matches_exact_difference():
    circle = Circle(center=1.5 + 0j, radius=10.0, sample_count=2048)
    value = hermite_divided_difference(LN2, 3, circle)
    assert abs(value - 1 / 6) < 1e-8
    assert abs(value.imag) < 1e-8


def test_hermite_single_node():
    assert abs(hermite_divided_difference(0.37, 0) - 1.0) < 1e-10


def test_hermite_trapezoid_converges():
    """Once the pole cluster is resolved, doubling the sample count must
    shrink the error (geometric trapezoid convergence on circles).  The
    circle hugs the poles 0, 1, 2 so that 64 samples are still above
    round-off (errors about 4e-3, 6e-6, 1e-11)."""
    errors = []
    for count in (16, 32, 64):
        circle = Circle(center=1.0 + 0j, radius=1.5, sample_count=count)
        value = hermite_divided_difference(LN2, 2, circle)
        errors.append(abs(value - 0.5))
    assert errors[1] < errors[0]
    assert errors[2] < errors[1]


@pytest.mark.parametrize("h", [LN2, 0.1])
def test_hermite_across_degrees(h):
    q = math.exp(h)
    for k in range(6):
        value = hermite_divided_difference(h, k)
        expected = (q - 1.0) ** k / math.factorial(k)
        assert abs(value - expected) < 1e-8


@pytest.mark.parametrize("h, q", [(LN2, F(2)), (0.1, F(math.exp(0.1)))])
def test_contour_biortho_matches_residue_oracle(h, q):
    diag = exact_diagonal(q, 3)
    for n in range(4):
        for m in range(4):
            value = contour_biortho_check(h, n, m)
            expected = float(diag[n]) if n == m else 0.0
            assert abs(value - expected) < 1e-8
            assert abs(value.imag) < 1e-8


def test_contour_independence():
    """Two admissible circles must give the same integral."""
    for n, m in ((0, 0), (1, 1), (0, 1), (2, 1)):
        top = max(n, m + 1)
        a = default_circle(top)
        b = Circle(center=complex(top / 2 + 0.25, 0.0),
                   radius=a.radius + 3.0, sample_count=4096)
        va = contour_biortho_check(LN2, n, m, a)
        vb = contour_biortho_check(LN2, n, m, b)
        assert abs(va - vb) < 1e-8


@pytest.mark.parametrize("call", [lambda h: hermite_divided_difference(h, 2),
                                  lambda h: contour_biortho_check(h, 1, 1)],
                         ids=["hermite", "biortho"])
def test_complex_h_is_rejected(call):
    """The quadrature mirrors conjugate samples, which needs an integrand real on the real axis."""
    with pytest.raises(InvalidParameter, match=r"h must be real, got \(0\.5\+0\.2j\)"):
        call(0.5 + 0.2j)


def outcome(call, *args):
    """repr of call(*args), or the type and message of the NonFiniteSample it raises."""
    try:
        return repr(call(*args))
    except NonFiniteSample as exc:
        return f"NonFiniteSample: {exc}"


def mirrored_and_full(call, *args):
    """The library quadrature call(*args), and its own integrand on its own circle
    through the public, unmirrored contour_integral."""
    seen, trapezoid = [], contour._trapezoid

    def spy(integrand, circle, mirror):
        seen.append((integrand, circle))
        return trapezoid(integrand, circle, mirror)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contour, "_trapezoid", spy)
        mirrored = outcome(call, *args)
    (integrand, circle), = seen
    return mirrored, outcome(contour_integral, integrand, circle)


def oracle_cases(count):
    """(function, args) of each library quadrature on the oracle grid.  h = 200 and
    h = 150 overflow the integrand on every circle; 150 keeps e**(h a) finite for a <= 4."""
    for h in (0.05, LN2, -0.7, 1.3, 200.0):
        for k in range(5):
            for center in (default_circle(k).center, 1.0 + 0.2j):
                yield hermite_divided_difference, (h, k, Circle(center, k + 6.0, count))
    for h in (0.05, LN2, -0.7, 1.3, 150.0):
        for n in range(3):
            for m in range(3):
                top = max(n, m + 1)
                for center in (default_circle(top).center, 1.0 + 0.2j):
                    yield contour_biortho_check, (h, n, m, Circle(center, top + 6.0, count))


@pytest.mark.parametrize("count", [16, 64, 2048, 8192])
def test_mirrored_quadrature_matches_full_circle_by_repr(count):
    """Evaluating samples 0..M/2 and conjugating the rest gives the full loop's
    result bit for bit, NonFiniteSample messages included; an off-axis centre
    runs the full loop."""
    results = [mirrored_and_full(call, *args) for call, args in oracle_cases(count)]
    assert all(mirrored == full for mirrored, full in results)
    assert sum(full.startswith("NonFiniteSample: integrand non-finite at zeta = ")
               for _, full in results) == 10 + 18  # h = 200 and h = 150, both centres


@pytest.mark.parametrize("center, calls", [(1.5 + 0j, 33), (1.5, 33), (1.0 + 0.2j, 64)])
def test_mirror_evaluates_half_the_samples_on_a_real_centre(center, calls):
    """M/2+1 integrand calls on a real centre, float or complex; M off the axis."""
    seen = []

    def integrand(zeta):
        seen.append(zeta)
        return 1 / (zeta - 1.5)

    circle = Circle(center, 2.0, 64)
    assert contour._trapezoid(integrand, circle, mirror=True) == contour_integral(integrand, circle)
    assert len(seen) == calls + 64
