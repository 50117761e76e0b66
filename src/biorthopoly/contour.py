"""Floating-point contour quadrature on circles.

Connects the residue-sum definitions to their contour-integral forms for exponential data
F(zeta) = e**(h zeta) on the integer grid.  All integrals are reported with the (2 pi i)**-1
normalization: for a circle of center c and radius r sampled at M equispaced points zeta_j,

    (2 pi i)**-1 contour-integral f  ~=  (1/M) sum_j f(zeta_j) (zeta_j - c),

which for integrands analytic in an annulus around the circle converges
geometrically in M (trapezoid rule on a periodic analytic function).
The real and imaginary parts are each summed with math.fsum, which is
correctly rounded in any order, so results are reproducible bit-for-bit for
a fixed sample count.  Both library integrands are real on the real axis, so
f(conj zeta) == conj f(zeta) holds bit for bit (conjugation only flips signs):
on a real-centred circle their quadratures evaluate samples 0..M/2.  Once a sum
of |t_j| below 2**1000 shows that no sum overflows, terms 1..M/2-1 count twice
in the real sum, and their imaginary parts cancel their conjugates' exactly.
Each library integrand is called once per real-centred circle, on samples
0..M/2; a batch that raises or fails that bound is redone one sample at a time
by contour_integral, whose full-circle fsum gives the same value or error.  Any
other circle goes to contour_integral directly.  _half_circle caches samples
0..M/2 and offsets zeta - c of 8 circles: 2 x 32769 complex numbers, about
2.6 MB each at M = 65536.  Centres equal in value share an entry: 1.5, 1.5+0j,
1.5-0j and a -0.0 real part give the same samples and offsets bit for bit.
This module never runs in exact mode; complex arithmetic stays private to it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from itertools import chain
from operator import add, attrgetter, mul

from .errors import IndexOutOfRange, InvalidParameter
from .numerics import slots_repr

_real, _imag = attrgetter("real"), attrgetter("imag")


class Circle:
    """Quadrature contour: |zeta - center| = radius, sampled at a power of two points."""

    __slots__ = ("center", "radius", "sample_count")
    __repr__ = slots_repr

    def __init__(self, center: complex, radius: float, sample_count: int = 2048):
        if not 0 < radius < math.inf:
            raise InvalidParameter("circle radius must be positive and finite")
        m = sample_count
        if not 16 <= m <= 2 ** 16 or m & (m - 1):  # 2**16 complex samples take a few MB
            raise InvalidParameter("sample_count must be a power of two from 16 to 65536")
        self.center, self.radius, self.sample_count = center, radius, sample_count

    def points(self) -> list[complex]:
        """Samples in angle order, one octant computed and mirrored: the eightfold symmetry
        is exact, so symmetric terms cancel and a real centre gives zeta_{M-j} == conj zeta_j."""
        ws = _upper_half(self.radius, self.sample_count)
        ws += [w.conjugate() for w in reversed(ws[1:-1])]
        return [self.center + w for w in ws]


def _upper_half(radius: float, m: int) -> list[complex]:
    """zeta_j - c for j = 0..M/2 (angles 0..pi)."""
    ws = [cmath.rect(radius, 2.0 * math.pi * j / m) for j in range(m // 8 + 1)]
    ws += [complex(w.imag, w.real) for w in reversed(ws[:-1])]
    ws += [complex(-w.real, w.imag) for w in reversed(ws[:-1])]
    return ws


@lru_cache(maxsize=8)
def _half_circle(center: complex, radius: float, m: int) -> tuple[tuple, tuple]:
    """Samples 0..M/2 of a real-centred circle and their offsets zeta - c, as tuples that no
    caller can change."""
    zetas = tuple([center + w for w in _upper_half(radius, m)])
    return zetas, tuple([zeta - center for zeta in zetas])


def default_circle(max_node: int) -> Circle:
    """Circle centred mid-span of the nodes 0..max_node, radius span + 5: poles well inside."""
    span = float(max_node)
    return Circle(center=complex(span / 2.0, 0.0), radius=span + 5.0)


def contour_integral(integrand: Callable[[complex], complex], circle: Circle) -> complex:
    """(2 pi i)**-1 times the circle integral; an integrand that overflows,
    divides by zero or is non-finite at a sample raises InvalidParameter."""
    m, terms = circle.sample_count, []
    for zeta in circle.points():
        try:
            term = complex(integrand(zeta)) * (zeta - circle.center)
        except (OverflowError, ZeroDivisionError, ValueError):  # ValueError: exp of a nan
            term = complex(math.inf)
        if not cmath.isfinite(term):
            raise InvalidParameter(f"integrand non-finite at zeta = {zeta}")
        terms.append(term)
    try:
        return complex(math.fsum(t.real for t in terms) / m, math.fsum(t.imag for t in terms) / m)
    except OverflowError:
        raise InvalidParameter("integrand samples overflow their sum")


def _trapezoid(integrand: Callable[[Sequence[complex]], Iterable[complex]],
               circle: Circle) -> complex:
    """contour_integral of an integrand called once on a real-centred circle's half (module
    docstring), or sample by sample on any other circle."""
    m, center = circle.sample_count, circle.center
    if center.imag == 0:
        zetas, offsets = _half_circle(center, circle.radius, m)
        try:
            terms = list(map(mul, integrand(zetas), offsets))
            if sum(map(abs, terms)) < 2.0 ** 1000:  # all finite, and no sum overflows
                ends, inner = (terms[0], terms[-1]), list(map(_real, terms[1:-1]))
                return complex(math.fsum(chain(map(_real, ends), map(add, inner, inner))) / m,
                               math.fsum(map(_imag, ends)) / m)
        except (ArithmeticError, ValueError, InvalidParameter):  # what contour_integral reports
            pass  # redone below, where the first failing sample (upper half first) decides
    return contour_integral(lambda zeta: next(iter(integrand([zeta]))), circle)


def hermite_divided_difference(h: float, k: int, circle: Circle | None = None) -> complex:
    """Divided difference [0, 1, ..., k] of e**(h z) as a contour integral.

    (2 pi i)**-1 contour-integral e**(h zeta) / omega_{k+1}(zeta): the real part approximates
    (e**h - 1)**k / k!, the imaginary part vanishes.
    """
    if k < 0:
        raise IndexOutOfRange("k must be nonnegative")
    if isinstance(h, complex):  # the conjugate mirror needs an integrand real on the real axis
        raise InvalidParameter(f"h must be real, got {h!r}")
    if circle is None:
        circle = default_circle(k)
    nodes = [float(i) for i in range(k + 1)]

    def integrand(zetas: Sequence[complex]) -> Iterable[complex]:
        for zeta in zetas:
            omega = 1.0 + 0.0j
            for a in nodes:
                omega *= zeta - a
            yield cmath.exp(h * zeta) / omega

    return _trapezoid(integrand, circle)


def contour_biortho_check(h: float, n: int, m: int, circle: Circle | None = None) -> complex:
    """(2 pi i)**-1 contour-integral of P-hat_n(zeta) V_m(zeta) e**(-h zeta).

    The float-mode family for F = e**(h z) on nodes 0..max(n, m+1) is built
    through the same code paths as the exact one; the result approximates
    the exact residue pairing: 0 off the diagonal, d_n = -1/(nu_n alpha_n)
    on it.  The family modules load here, so that hermite_divided_difference needs none of them.
    """
    from .biorthogonality import build_system
    from .interpolation import Samples, monic_family

    if n < 0 or m < 0:
        raise IndexOutOfRange("indices must be nonnegative")
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
        raise InvalidParameter(f"e**(h a) overflows on the nodes 0..{count - 1}") from None
    samples = Samples.from_pairs(nodes, values)
    family = monic_family(samples, top)
    system = build_system(family, m)
    phat, v_m = family.phats[n].coeffs[::-1], system.vs[m]  # Horner order
    poles, t_hat = v_m.pole_nodes, v_m.numerator.coeffs[::-1]

    def integrand(zetas: Sequence[complex]) -> Iterable[complex]:
        for zeta in zetas:  # the operations of phat(zeta) * v_m(zeta) * cmath.exp(-h * zeta)
            p = t = 0 * zeta
            for c in phat:
                p = p * zeta + c
            for c in t_hat:
                t = t * zeta + c
            denom = 1 * zeta ** 0
            for a in poles:
                if (factor := zeta - a) == 0:
                    raise InvalidParameter(f"z = {zeta} is a pole of V_{m}")
                denom = denom * factor
            yield p * (t / denom) * cmath.exp(-h * zeta)

    return _trapezoid(integrand, circle)
