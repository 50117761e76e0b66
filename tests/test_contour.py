import collections
import hashlib
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
from biorthopoly.errors import (BiorthopolyError, InvalidParameter, NonFiniteSample,
                               PoleEvaluation)
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
    """repr of call(*args), or the type and message of the NonFiniteSample or PoleEvaluation
    it raises."""
    try:
        return repr(call(*args))
    except (NonFiniteSample, PoleEvaluation) as exc:
        return f"{type(exc).__name__}: {exc}"


def one_sample(integrand):
    """A library integrand, which takes the list of samples, as a per-sample one."""
    return lambda zeta: next(iter(integrand([zeta])))


def batched_and_full(call, *args):
    """The library quadrature call(*args), and its own integrand on its own circle
    through the public, per-sample, full-circle contour_integral."""
    seen, trapezoid = [], contour._trapezoid

    def spy(integrand, circle):
        seen.append((integrand, circle))
        return trapezoid(integrand, circle)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contour, "_trapezoid", spy)
        batched = outcome(call, *args)
    (integrand, circle), = seen
    return batched, outcome(contour_integral, one_sample(integrand), circle)


FLOAT_SWEEP_H = tuple(sign * k / 4 for k in range(1, 9) for sign in (1, -1))
# real centres as default_circle makes them, as a float, with imaginary part 0.0 and -0.0
CENTERS = (None, 1.5, 1.5 + 0j, complex(1.5, -0.0), 1.0 + 0.2j)


def oracle_cases(count, hs=(0.05, LN2, -0.7, 1.3), centers=CENTERS):
    """(function, args) of each library quadrature on the oracle grid, plus a circle through
    the nodes 0 and 3.  h = 200 and h = 140 overflow the integrand on every circle; 140 keeps
    e**(h a) finite for a <= 5."""
    for h in (*hs, 200.0):
        for k in range(6):
            for center in centers:
                circle = Circle(default_circle(k).center if center is None else center,
                                k + 6.0, count)
                yield hermite_divided_difference, (h, k, circle)
            yield hermite_divided_difference, (h, k, Circle(1.5, 1.5, count))
    for h in (*hs, 140.0):
        for n in range(4):
            for m in range(4):
                top = max(n, m + 1)
                for center in centers:
                    circle = Circle(default_circle(top).center if center is None else center,
                                    top + 6.0, count)
                    yield contour_biortho_check, (h, n, m, circle)
                yield contour_biortho_check, (h, n, m, Circle(1.5, 1.5, count))


@pytest.mark.parametrize("count, hs, centers", [
    (16, FLOAT_SWEEP_H, CENTERS), (64, FLOAT_SWEEP_H, CENTERS),
    (2048, (-2.0, -0.75, 0.25, LN2, 1.3), CENTERS), (8192, (-0.7,), (None, 1.0 + 0.2j))],
    ids=["16", "64", "2048", "8192"])
def test_mirrored_quadrature_matches_full_circle_by_repr(count, hs, centers):
    """The batched quadrature, samples 0..M/2 with the rest mirrored, gives the per-sample
    full loop's result bit for bit, NonFiniteSample and PoleEvaluation messages included; an
    off-axis centre runs its batch on all M samples.  At 16 and 64 samples the grid takes the
    float-sweep benchmark's h = +-k/4."""
    results = [batched_and_full(call, *args)
               for call, args in oracle_cases(count, (*hs, 0.05), centers)]
    assert all(batched == full for batched, full in results)
    kinds = collections.Counter(full.partition(":")[0] for _, full in results)
    h_count = len(hs) + 2  # with 0.05 and the overflowing h
    # the circle through 0 and 3 for every h, and h = 200 and 140 on every other circle
    assert kinds["NonFiniteSample"] == 6 * h_count + (6 + 16) * len(centers)
    assert kinds["PoleEvaluation"] == 16 * h_count  # biortho on the circle through 0 and 3


PARENT_OUTCOMES = [  # captured before the quadrature was batched
    (hermite_divided_difference, (LN2, 3), "(0.16666666666666666+0j)"),
    (hermite_divided_difference, (-0.25, 5, Circle(1.0 + 0.2j, 11.0, 64)),
     "(-4.413027968202759e-06-5.248460986648961e-22j)"),
    (hermite_divided_difference, (200.0, 2),
     "NonFiniteSample: integrand non-finite at zeta = (8+0j)"),
    (hermite_divided_difference, (0.5, 4, Circle(1.5, 1.5, 16)),
     "NonFiniteSample: integrand non-finite at zeta = (3+0j)"),
    # omega_161 overflows to inf with no exception, and the batch's sum comes out nan
    (hermite_divided_difference, (0.05, 160, Circle(80.0, 85.0, 64)),
     "NonFiniteSample: integrand non-finite at zeta = (150.67491704571634+47.22346980666619j)"),
    (contour_biortho_check, (LN2, 1, 1), "(-0.5+0j)"),
    (contour_biortho_check, (-2.0, 2, 1, Circle(complex(1.5, -0.0), 9.0, 2048)),
     "(3.567207763403667e-08+0j)"),
    (contour_biortho_check, (1.3, 3, 0, Circle(1.5, 10.0, 16)), "(611802.906384701+0j)"),
    (contour_biortho_check, (0.75, 2, 2, Circle(1.5 + 0j, 1.5, 16)),
     "PoleEvaluation: z = (3+0j) is a pole of V_2"),
]


@pytest.mark.parametrize("call, args, expected", PARENT_OUTCOMES)
def test_quadrature_outcomes_are_pinned(call, args, expected):
    """Literal outcomes, so that the batched route and its oracle cannot drift together."""
    assert outcome(call, *args) == expected


@pytest.mark.parametrize("center, calls", [(1.5 + 0j, 33), (1.5, 33), (1.0 + 0.2j, 64)])
def test_mirror_evaluates_half_the_samples_on_a_real_centre(center, calls):
    """One integrand call on the M/2+1 samples of a real centre, float or complex; off the
    axis, no batch: the M samples one at a time, as the oracle takes them."""
    seen = []

    def integrand(zetas):
        seen.append(len(zetas))
        return [1 / (zeta - 1.5) for zeta in zetas]

    circle = Circle(center, 2.0, 64)
    value = contour._trapezoid(integrand, circle)
    assert seen == ([calls] if center.imag == 0 else [1] * calls)
    assert value == contour_integral(one_sample(integrand), circle)


def test_failing_batch_is_redone_one_sample_at_a_time():
    """An integrand that fails anywhere in its batch is redone per sample: the first failing
    sample in angle order decides, whatever the batch raised."""
    calls = []

    def integrand(zetas):
        calls.append(len(zetas))
        if len(zetas) > 1:
            raise OverflowError("a batch failure the per-sample pass does not repeat")
        return [1 / (zetas[0] - 1.5)]

    circle = Circle(1.5, 2.0, 64)
    assert contour._trapezoid(integrand, circle) == contour_integral(one_sample(integrand), circle)
    assert calls[0] == 33 and len(calls) == 1 + 64 + 64


POINT_DIGESTS = {  # sha256 of repr(circle.points()), captured before the half-circle cache
    (0j, 1.0, 16): "059ed12077b456d95aef0b2b496e63b1efa18dcac5d1e9c179db13b365d727da",
    (1.5, 8.0, 16): "ca87dbbec546eef6c716fc9e941be55dbcc2aac80008b7b8925a13ad98c38676",
    (complex(1.5, -0.0), 8.0, 16):
        "ca87dbbec546eef6c716fc9e941be55dbcc2aac80008b7b8925a13ad98c38676",
    (1.0 + 0.2j, 6.0, 64): "de2f3ca89fc054e29650b721367511476da3e63950fe595e6b49487d2ac8f18d",
    (2.5 + 0j, 10.0, 2048): "b3b07e83464d73b22ed5ba9406048d3ae3ca9807b4cc62171cba45e41c437702",
    (-0.75, 3.0, 2048): "bdad1684aee9d03744ede485f8a30d6cedea2b3d97a8ec5de03c03cfbbd2c75f",
    (2.0 + 0j, 65.0, 65536): "26953e54bf4174ebe64722e4cbab3d200540c0d6f447643a9133c1a70654cb5e",
}


@pytest.mark.parametrize("center, radius, count", POINT_DIGESTS)
def test_points_are_unchanged_and_fresh(center, radius, count):
    circle = Circle(center, radius, count)
    points = circle.points()
    assert len(points) == count
    assert hashlib.sha256(repr(points).encode()).hexdigest() == \
        POINT_DIGESTS[center, radius, count]
    assert circle.points() is not points


def test_mutating_points_leaves_later_quadratures_alone():
    for center in (1.5 + 0j, 1.0 + 0.2j):
        circle = Circle(center, 9.0, 2048)
        before = outcome(contour_biortho_check, LN2, 2, 1, circle)
        points = circle.points()
        points[:] = [0j] * len(points)
        assert outcome(contour_biortho_check, LN2, 2, 1, circle) == before
        assert circle.points() != points


@pytest.mark.parametrize("call", [lambda c: hermite_divided_difference(-0.25, 3, c),
                                  lambda c: contour_biortho_check(1.3, 2, 1, c)],
                         ids=["hermite", "biortho"])
def test_equal_circles_with_other_bits_share_one_cache_entry(call):
    """1.5, 1.5+0j and 1.5-0j compare equal and give the same samples and offsets bit for bit,
    so they share one cache entry; each circle still gives what it gives uncached."""
    centers = (1.5, 1.5 + 0j, complex(1.5, -0.0))
    uncached = []
    for center in centers:
        contour._half_circle.cache_clear()
        uncached.append(repr(call(Circle(center, 9.0, 256))))
    contour._half_circle.cache_clear()
    for _ in range(2):
        assert [repr(call(Circle(center, 9.0, 256))) for center in centers] == uncached
    info = contour._half_circle.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 5)


def test_half_circle_cache_has_a_fixed_bound():
    contour._half_circle.cache_clear()
    for radius in range(5, 25):
        hermite_divided_difference(0.5, 2, Circle(1.0, float(radius), 16))
    info = contour._half_circle.cache_info()
    assert info.maxsize == 8
    assert info.currsize == 8


def overflow_edge_cases():
    """(function, args) whose exponential is e**(709.78 + d), d from -30 to 0.7, at the far
    edge of the circle, so that its terms pass 2**1000 and the end of double range: hermite's
    e**(h zeta) with the edge at 1.1 or -1.1, and the biortho check's e**(-h zeta) with the edge
    at -2.2 (h > 0: at h < 0 its float nu_0 is 0).  Radii 0.5 to 2, each circle 0.1 away from
    the nearest node; M = 16 to 2048; the centre a float, +0j or -0j in turn."""
    count = 0
    for d in (-30.0, -22.0, -18.0, -15.0, -10.0, -6.0, -4.0, -3.0, -2.5, -2.0, -1.5, -1.0, -0.5,
              -0.2, -0.05, -0.005, 0.002, 0.7):
        for radius in (0.5, 1.0, 1.5, 2.0):
            for m in (16, 64, 256, 2048):
                for call, edge, args in ((hermite_divided_difference, 1.1, (0,)),
                                         (hermite_divided_difference, 1.1, (1,)),
                                         (hermite_divided_difference, 1.1, (2,)),
                                         (hermite_divided_difference, -1.1, (0,)),
                                         (hermite_divided_difference, -1.1, (1,)),
                                         (hermite_divided_difference, -1.1, (2,)),
                                         (contour_biortho_check, -2.2, (0, 0)),
                                         (contour_biortho_check, -2.2, (1, 0))):
                    count += 1
                    h = (709.78 + d) / edge * (1.0 if call is hermite_divided_difference else -1.0)
                    c = edge - math.copysign(radius, edge)
                    c = (c, complex(c, 0.0), complex(c, -0.0))[count % 3]
                    yield call, (h, *args, Circle(c, radius, m))


def test_quadrature_outcomes_at_the_overflow_edge_are_pinned():
    """sha256 over the outcomes of overflow_edge_cases, captured before the mirrored sums were
    halved: every value and every typed error stays the same."""
    digest, kinds = hashlib.sha256(), collections.Counter()
    for call, args in overflow_edge_cases():
        try:
            text = repr(call(*args))
        except BiorthopolyError as exc:
            text = f"{type(exc).__name__}: {exc}"
        digest.update(text.encode() + b"\0")
        kinds[text.partition(":")[0] if ":" in text else "value"] += 1
    assert kinds == {"value": 1815, "NonFiniteSample": 489}
    assert digest.hexdigest() == \
        "32da5698cfee1837bf99dc6c7956e0a692fa40131127b05f2ab103c105ca79e3"
