"""Closed forms for exponential data on the integer grid.

For F(z) = q**z sampled at a_k = k (q any rational except 0 and 1, playing
the role of e**h) everything in the construction has a hypergeometric
closed form:

    P_n(z)   = sum_{k<=n} (-z)_k / k! * (1 - q)**k
    alpha_n  = (q - 1)**n / n!
    nu_n     = q / (q - 1)
    T-hat_n  = (n+1)!/(q-1)**n * 2F1(-n, -z; -1-n; 1-q)
    V_n(z)   = 1/((1-q)**n z(z-1)) * 2F1(-n, -z; 2-z; q)

with (b)_k the rising factorial.  With q = p/r, P_n, T-hat_n and V_n(z) are built as
integer rows over one known denominator, Fractions only at the end; pochhammer and
terminating_2f1 are their generic oracles.  Each closed form is checked against the
generic machinery coefficient-for-coefficient; the two V_n routes meeting at off-grid
points is the numerical witness for the underlying 2F1 transformation.  q < 0 is
allowed: only q enters the identities, never a logarithm of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import InvalidParameter, PoleEvaluation
from .interpolation import Samples
from .numerics import Scalar, is_exact, slots_repr
from .polynomials import Polynomial


class ExpGridProblem:
    """Exponential samples A_k = q**k on the integer grid 0..n_max+2."""

    __slots__ = ("q", "n_max", "samples")
    __repr__ = slots_repr

    def __init__(self, q: int | Fraction, n_max: int):
        if not is_exact(q):
            raise InvalidParameter(f"q must be an int or a Fraction, got {q!r}")
        q = Fraction(q)
        if q == 0 or q == 1:
            raise InvalidParameter("q must differ from 0 and 1")
        if n_max < 0:
            raise InvalidParameter("n_max must be nonnegative")
        count = n_max + 3
        samples = Samples.from_pairs(range(count), [q ** k for k in range(count)])
        self.q, self.n_max, self.samples = q, n_max, samples


def pochhammer(b: Scalar, k: int) -> Scalar:
    """Rising factorial (b)_k = b (b+1) ... (b+k-1); (b)_0 = 1."""
    prod: Scalar = 1
    for j in range(k):
        prod = prod * (b + j)
    return prod


def terminating_2f1(n: int, b: Scalar, c: Scalar, x: Scalar) -> Scalar:
    """2F1(-n, b; c; x) summed exactly over its n+1 terms.

    Term k is (-n)_k (b)_k x^k / ((c)_k k!), numerator and denominator each carried from
    term k-1 by one factor.  Terms with a vanishing numerator are dropped; a vanishing
    lower-parameter factor under a nonzero numerator is a pole of the series in c: PoleEvaluation.
    """
    total: Scalar = 0
    numerator, denominator = x ** 0, 1  # not int 1: term 0 stays in x's arithmetic (1 / 1 is 1.0)
    for k in range(n + 1):
        if denominator != 0:
            total = total + numerator / denominator
        elif numerator != 0:
            raise PoleEvaluation(f"(c)_{k} = 0 with c = {c}")
        numerator, denominator = numerator * (k - n) * (b + k) * x, denominator * (c + k) * (k + 1)
    return total


def exp_closed_row(problem: ExpGridProblem, n: int, t_hat: bool = False) -> tuple[list, int]:
    """P_n, or T-hat_n if t_hat, as (row, den): integer coefficients over a known denominator.

    With q = p/r and w_k = 1 (n+1-k for T-hat_n), C_0 = n! r**n P_n (= (p-r)**n T-hat_n) =
    sum_{k<=n} w_k (n!/k!) r**(n-k) (r-p)**k (-z)_k by Horner, (-z)_{k+1} = (-z)_k (k - z):
    C_n = 1, C_k = w_k (n!/k!) r**(n-k) + (r-p) (k - z) C_{k+1}."""
    (p, r), e, row = problem.q.as_integer_ratio(), 1, [1]
    for k in range(n - 1, -1, -1):
        e = e * r * (k + 1)  # (n!/k!) r**(n-k)
        row = [(n + 1 - k if t_hat else 1) * e + (r - p) * k * row[0],
               *((r - p) * (k * c - lower) for c, lower in zip([*row[1:], 0], row))]
    return row, (p - r) ** n if t_hat else e


def _closed_form(problem: ExpGridProblem, n: int, t_hat: bool) -> Polynomial:
    row, den = exp_closed_row(problem, n, t_hat)
    return Polynomial([Fraction(c, den) for c in row])


def exp_interpolant_closed(problem: ExpGridProblem, n: int) -> Polynomial:
    """P_n in closed form; equals the Newton interpolant on the derived samples."""
    return _closed_form(problem, n, t_hat=False)


def exp_alpha_closed(problem: ExpGridProblem, n: int) -> Scalar:
    """alpha_n = (q - 1)**n / n!."""
    return (problem.q - 1) ** n / factorial(n)


def exp_t_closed(problem: ExpGridProblem, n: int) -> Polynomial:
    """Monic T-hat_n = (n+1)!/(q-1)**n 2F1(-n, -z; -1-n; 1-q), (-z)_k expanded: the 2F1's
    (-n)_k / (-1-n)_k is (n+1-k)/(n+1), so (p-r)**n T-hat_n is an integer row (exp_closed_row)."""
    return _closed_form(problem, n, t_hat=True)


def exp_v_alt_eval(problem: ExpGridProblem, n: int, z: Scalar) -> Scalar:
    """V_n(z) through the transformed 2F1 route, 1/((1-q)**n z(z-1)) * 2F1(-n, -z; 2-z; q).

    Admissible z excludes the integers 0..n+1 (the poles, and the zeros of (2-z)_k).  With
    q = p/r and z = x/y the series is top / bottom on integers, by Horner on its term ratios
    (k-n) (k y - x) p / (((k+2) y - x) (k+1) r); the one division comes last.
    """
    if z in range(n + 2):
        raise PoleEvaluation(f"z = {z} is excluded for V_{n}")
    (p, r), (x, y), top, bottom = problem.q.as_integer_ratio(), z.as_integer_ratio(), 1, 1
    for k in range(n - 1, -1, -1):
        step = ((k + 2) * y - x) * (k + 1) * r
        top, bottom = bottom * step + (k - n) * (k * y - x) * p * top, bottom * step
    num, den = top * r ** n * y * y, bottom * (r - p) ** n * x * (x - y)
    return Fraction(num, den) if is_exact(z) else num / den
