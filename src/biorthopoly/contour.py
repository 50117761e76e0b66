"""Floating-point contour quadrature on circles.

Connects the residue-sum definitions to their contour-integral forms for
exponential data F(zeta) = e**(h zeta) on the integer grid.  All integrals
are reported with the (2 pi i)**-1 normalization: for a circle of center c
and radius r sampled at M equispaced points zeta_j,

    (2 pi i)**-1 contour-integral f  ~=  (1/M) sum_j f(zeta_j) (zeta_j - c),

which for integrands analytic in an annulus around the circle converges
geometrically in M (trapezoid rule on a periodic analytic function).
The real and imaginary parts are each summed with math.fsum, which is
correctly rounded in any order, so results are reproducible bit-for-bit for
a fixed sample count.  Both library integrands are real on the real axis, so
f(conj zeta) == conj f(zeta) holds bit for bit (conjugation only flips signs):
on a real-centred circle their quadratures evaluate samples 0..M/2 and take
terms M/2+1..M-1 as the conjugates of terms M/2-1..1, the very same terms.
This module never runs in exact mode; complex arithmetic stays private to it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable

from .biorthogonality import build_system
from .divided_differences import Samples
from .errors import InvalidParameter, NonFiniteSample
from .interpolation import monic_family
from .numerics import slots_repr


class Circle:
    """Quadrature contour: |zeta - center| = radius, sampled at a power of
    two points."""

    __slots__ = ("center", "radius", "sample_count")
    __repr__ = slots_repr

    def __init__(self, center: complex, radius: float, sample_count: int = 2048):
        if not radius > 0:
            raise InvalidParameter("circle radius must be positive")
        m = sample_count
        if not 16 <= m <= 2 ** 16 or m & (m - 1):  # 2**16 complex samples take a few MB
            raise InvalidParameter("sample_count must be a power of two from 16 to 65536")
        self.center, self.radius, self.sample_count = center, radius, sample_count

    def points(self) -> list[complex]:
        """Samples in angle order, one octant computed and mirrored: the eightfold symmetry
        is exact, so symmetric terms cancel and a real centre gives zeta_{M-j} == conj zeta_j."""
        m = self.sample_count
        ws = [cmath.rect(self.radius, 2.0 * math.pi * j / m) for j in range(m // 8 + 1)]
        ws += [complex(w.imag, w.real) for w in reversed(ws[:-1])]
        ws += [complex(-w.real, w.imag) for w in reversed(ws[:-1])]
        ws += [w.conjugate() for w in reversed(ws[1:-1])]
        return [self.center + w for w in ws]


def default_circle(max_node: int) -> Circle:
    """Circle centered on the midpoint of the real node span 0..max_node,
    radius span + 5: all poles comfortably inside."""
    span = float(max_node)
    return Circle(center=complex(span / 2.0, 0.0), radius=span + 5.0)


def contour_integral(integrand: Callable[[complex], complex], circle: Circle) -> complex:
    """(2 pi i)**-1 times the circle integral; an integrand that overflows,
    divides by zero or is non-finite at a sample raises NonFiniteSample."""
    return _trapezoid(integrand, circle, mirror=False)


def _trapezoid(integrand: Callable[[complex], complex], circle: Circle, mirror: bool) -> complex:
    """contour_integral; mirror evaluates 0..M/2 on a real centre (module docstring)."""
    m = circle.sample_count
    mirror = mirror and circle.center.imag == 0
    terms = []
    for zeta in circle.points()[: m // 2 + 1] if mirror else circle.points():
        try:
            term = complex(integrand(zeta)) * (zeta - circle.center)
        except (OverflowError, ZeroDivisionError, ValueError):  # ValueError: exp of a nan
            term = complex(math.inf)
        if not cmath.isfinite(term):  # the first one in angle order lies in the upper half
            raise NonFiniteSample(f"integrand non-finite at zeta = {zeta}")
        terms.append(term)
    terms += [t.conjugate() for t in reversed(terms[1:-1])] if mirror else []
    try:
        return complex(math.fsum(t.real for t in terms) / m, math.fsum(t.imag for t in terms) / m)
    except OverflowError:
        raise NonFiniteSample("integrand samples overflow their sum")


def hermite_divided_difference(h: float, k: int, circle: Circle | None = None) -> complex:
    """Divided difference [0, 1, ..., k] of e**(h z) as a contour integral.

    (2 pi i)**-1 contour-integral e**(h zeta) / omega_{k+1}(zeta): the
    real part approximates (e**h - 1)**k / k!, the imaginary part vanishes.
    """
    if k < 0:
        raise InvalidParameter("k must be nonnegative")
    if isinstance(h, complex):  # the conjugate mirror needs an integrand real on the real axis
        raise InvalidParameter(f"h must be real, got {h!r}")
    if circle is None:
        circle = default_circle(k)
    nodes = [float(i) for i in range(k + 1)]

    def integrand(zeta: complex) -> complex:
        omega = 1.0 + 0.0j
        for a in nodes:
            omega *= zeta - a
        return cmath.exp(h * zeta) / omega

    return _trapezoid(integrand, circle, mirror=True)


def contour_biortho_check(h: float, n: int, m: int, circle: Circle | None = None) -> complex:
    """(2 pi i)**-1 contour-integral of P-hat_n(zeta) V_m(zeta) e**(-h zeta).

    The float-mode family for F = e**(h z) on nodes 0..max(n, m+1) is built
    through the same code paths as the exact one; the result approximates
    the exact residue pairing: 0 off the diagonal, d_n = -1/(nu_n alpha_n)
    on it.
    """
    if n < 0 or m < 0:
        raise InvalidParameter("indices must be nonnegative")
    if isinstance(h, complex):
        raise InvalidParameter(f"h must be real, got {h!r}")
    top = max(n, m + 1)
    if circle is None:
        circle = default_circle(top)
    count = top + 2  # one spare node so the family reaches index top
    nodes = [float(i) for i in range(count)]
    try:
        values = [math.exp(h * i) for i in range(count)]
    except OverflowError:
        raise NonFiniteSample(f"e**(h a) overflows on the nodes 0..{count - 1}") from None
    samples = Samples.from_pairs(nodes, values)
    family = monic_family(samples, top)
    system = build_system(family, m)
    phat = family.phats[n]
    v_m = system.vs[m]

    def integrand(zeta: complex) -> complex:
        return phat(zeta) * v_m(zeta) * cmath.exp(-h * zeta)

    return _trapezoid(integrand, circle, mirror=True)
