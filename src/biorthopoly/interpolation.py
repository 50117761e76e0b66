"""Divided differences, the Newton and Lagrange interpolants, and the monic interpolant family
with its three-term recurrence.

The divided differences alpha_n = [a_0..a_n] come by two independent routes: the recursive
triangle, which feeds the family, and the residue-style sum over omega', which the residue
pairings reuse; the tests hold them equal on exact input.  The monic interpolants
P-hat_n = P_n / alpha_n satisfy

    P-hat_{n+1} = (z - a_n + alpha_n/alpha_{n+1}) P-hat_n
                  - (alpha_{n-1}/alpha_n) (z - a_n) P-hat_{n-1}

with P-hat_{-1} = 0, P-hat_0 = 1 and the convention alpha_{-1} = 0.  The recurrence runs in both
directions here: `monic_family` derives the family from data, `family_from_recurrence` rebuilds
data from coefficients, and the two are exact inverses (which the tests pin down).  On exact data
the triangle and both directions run on integer rows over one common denominator, and the family
makes its Fraction P-hats when they are first read; `newton_interpolant`, `lagrange_interpolant`
and `recurrence_step` keep the Fraction arithmetic that the tests compare with.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import chain, combinations, repeat

from .errors import DegenerateInterpolant, IndexOutOfRange, InvalidParameter
from .numerics import (Scalar, check_finite, exact_if_int, is_exact, over_lcm, reduced,
                       slots_repr)
from .polynomials import Grid, Polynomial, nodal_polynomial, nodal_weights


class Samples:
    """Interpolation data: distinct nodes a_k and values A_k (int as Fraction)."""

    __slots__ = ("grid", "values")
    __repr__ = slots_repr

    def __init__(self, grid: Grid, values: tuple[Scalar, ...]):
        self.grid, self.values = grid, tuple(map(exact_if_int, values))
        if len(grid) != len(self.values):
            raise ValueError(f"{len(grid)} nodes but {len(self.values)} values")

    @classmethod
    def from_pairs(cls, nodes: Sequence[Scalar], values: Sequence[Scalar]) -> "Samples":
        return cls(Grid(nodes), tuple(values))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last_index(self) -> int:
        """N, the largest usable index."""
        return len(self.values) - 1

    def extended(self, node: Scalar, value: Scalar) -> "Samples":
        """New Samples with one more (node, value) pair appended."""
        return Samples(Grid(self.grid.nodes + (node,)), self.values + (value,))


class DividedDifferenceTable:
    """Top edge of the divided-difference triangle: diffs[k] is [a_0,...,a_k]."""

    __slots__ = ("samples", "diffs")
    __repr__ = slots_repr

    def __init__(self, samples: Samples, diffs: tuple[Scalar, ...]):
        self.samples, self.diffs = samples, diffs


def divided_differences_recursive(samples: Samples) -> DividedDifferenceTable:
    """Full table [a_0..a_k], k = 0..N, by the recursive triangle.

    Column j of the triangle holds [a_i..a_{i+j}] = ([a_{i+1}..a_{i+j}] -
    [a_i..a_{i+j-1}]) / (a_{i+j} - a_i); only the i = 0 edge is retained.
    On exact data, a_s = b_s / D, column j is integers c_i over C_j, and column j+1
    is D (c_{i+1} - c_i) (L / (b_{i+j+1} - b_i)) over C_j L, L the gaps' lcm.
    """
    if len(samples) == 0:
        raise IndexOutOfRange("divided differences need at least one sample")
    nodes, column = samples.grid, list(samples.values)
    top = [column[0]]
    if all(map(is_exact, chain(nodes.nodes, column))):
        (b, big_d), (c, common) = over_lcm(nodes.nodes), over_lcm(column)
        for j in range(1, len(c)):
            gaps = [hi - lo for lo, hi in zip(b, b[j:])]
            lcm = math.lcm(*gaps)
            c, common = reduced([big_d * (y - x) * (lcm // gap) for x, y, gap
                                 in zip(c, c[1:], gaps)], common * lcm)
            top.append(Fraction(c[0], common))
        return DividedDifferenceTable(samples, tuple(top))
    try:
        for j in range(1, len(column)):
            column = [(column[i + 1] - column[i]) / (nodes[i + j] - nodes[i])
                      for i in range(len(column) - 1)]
            top.append(column[0])
    except ZeroDivisionError:  # distinct numbers, such as Fraction(3, 7) and 3/7, equal as floats
        i, j = next((i, j) for i, j in combinations(range(len(nodes)), 2)
                    if nodes[j] - nodes[i] == 0)
        raise InvalidParameter(f"nodes a_{i} = {nodes[i]} and a_{j} = {nodes[j]} are equal as "
                               "floats") from None
    return DividedDifferenceTable(samples, tuple(top))


def divided_difference_sum(samples: Samples, k: int) -> Scalar:
    """[a_0..a_k] as the residue-style sum over s of A_s / omega'_{k+1}(a_s)."""
    if k < 0 or k > samples.last_index:
        raise IndexOutOfRange(f"k = {k} outside 0..{samples.last_index}")
    total: Scalar = 0
    for value, weight in zip(samples.values, nodal_weights(samples.grid.nodes[: k + 1])):
        total = total + value / weight
    return total


def newton_interpolant(samples: Samples, n: int) -> Polynomial:
    """Degree-<=n interpolant sum_k [a_0..a_k] omega_k(z) as monomials: P_n(a_k) = A_k, k <= n."""
    if n < 0 or n > samples.last_index:
        raise IndexOutOfRange(f"degree {n} outside 0..{samples.last_index}")
    table = divided_differences_recursive(samples)
    acc, omega = Polynomial.zero(), Polynomial.constant(1)
    for k in range(n + 1):
        acc = acc + omega.scale(table.diffs[k])
        omega = omega * Polynomial((-samples.grid[k], 1))
    return acc


def lagrange_interpolant(samples: Samples, n: int) -> Polynomial:
    """Interpolant assembled Lagrange-style, as an exact coefficient sequence.

    omega_{n+1}(z) * sum_k A_k / ((z - a_k) omega'_{n+1}(a_k)), with each quotient
    omega_{n+1}/(z - a_k) produced by synthetic division (remainder zero by construction).
    Equals the Newton route coefficient-for-coefficient in exact arithmetic.
    """
    if n < 0 or n > samples.last_index:
        raise IndexOutOfRange(f"degree {n} outside 0..{samples.last_index}")
    nodes = samples.grid.nodes[: n + 1]
    omega = nodal_polynomial(samples.grid, n + 1)
    acc = Polynomial.zero()
    for a_k, value, weight in zip(nodes, samples.values, nodal_weights(nodes)):
        cofactor, _ = omega.deflate(a_k)
        acc = acc + cofactor.scale(value / weight)
    return acc


class MonicInterpolantFamily:
    """Aligned sequences alpha_0..alpha_n and monic P-hat_0..P-hat_n over a grid.

    Invariants: every alpha is nonzero, P-hat_n is monic of degree exactly n,
    and alpha_n * P-hat_n(a_k) = A_k for k <= n.  Give exactly one of phats (float, mixed or built
    by hand; rows is None) and rows, the builders' integer rows on exact data: rows[n] = (U_n, k_n)
    in lowest terms with k_n = U_n[-1] > 0, and the first read of phats makes P-hat_n = U_n / k_n
    in Fractions and keeps them.  Int alphas are held as Fractions.  The constructor checks the
    lengths and the rows' shape, in O(N), not their gcds.
    """

    __slots__ = ("grid", "values", "alphas", "_phats", "rows")

    def __init__(self, grid: Grid, values: tuple[Scalar, ...], alphas: tuple[Scalar, ...],
                 phats: Sequence[Polynomial] | None = None, *, rows: Sequence | None = None):
        if (phats is None) == (rows is None):
            raise ValueError("give exactly one of phats and rows")
        self.grid = grid
        self.values = tuple(values)
        self.alphas = tuple(map(exact_if_int, alphas))
        self.rows = None if rows is None else tuple((tuple(u), k) for u, k in rows)
        self._phats = None if phats is None else tuple(phats)
        if len(self.alphas) != len(self._phats if rows is None else self.rows):
            raise ValueError("alphas and phats must align")
        if len(self.alphas) > len(self.values) or len(self.values) != len(grid):
            raise ValueError("family data lengths inconsistent")
        if rows is not None and any(len(u) != n + 1 or u[-1] != k or k <= 0
                                    for n, (u, k) in enumerate(self.rows)):
            raise ValueError("rows[n] must be (U_n, k_n) with n + 1 entries and k_n = U_n[-1] > 0")

    @property
    def phats(self) -> tuple[Polynomial, ...]:
        if self._phats is None:
            self._phats = tuple(Polynomial([Fraction(c, k) for c in u]) for u, k in self.rows)
        return self._phats

    @property
    def n_max(self) -> int:
        return len(self.alphas) - 1

    def alpha_ratio(self, n: int) -> Scalar:
        """alpha_{n-1}/alpha_n with the alpha_{-1} = 0 convention."""
        if n == 0:
            return 0
        return self.alphas[n - 1] / self.alphas[n]


def _check_alphas(alphas: Sequence[Scalar]) -> None:
    """DegenerateInterpolant(n) or InvalidParameter for the first alpha_n that is 0, or a float
    inf or nan."""
    for n, alpha in enumerate(alphas):
        if alpha == 0:
            raise DegenerateInterpolant(n)
        if not (is_exact(alpha) or math.isfinite(alpha)):
            raise InvalidParameter(f"alpha_{n} = {alpha} is not finite")


def monic_family(samples: Samples, n_max: int) -> MonicInterpolantFamily:
    """Divided differences plus monic interpolants up to degree n_max.

    One table and one Newton pass (P_n = P_{n-1} + alpha_n omega_n) cost O(N^2).
    On float data each P-hat_n repeats newton_interpolant(samples, n).divide(alpha_n)
    operation for operation; on exact data, a_s = b_s / D, the pass runs on the
    integer rows D^n omega_n and P_n = s U_n / M_n: one content gcd of each new row gives the
    family row U_n, P-hat_n = U_n / U_n[-1], and a scalar gcd gives s / M_n in lowest terms.
    _check_alphas names the first alpha_n = p_n / q_n that is zero (alpha_0 = A_0 too: the
    residue pairing divides by the values) or a float inf or nan.
    """
    if n_max < 0 or n_max > samples.last_index:
        raise IndexOutOfRange(f"n_max = {n_max} outside 0..{samples.last_index}")
    table = divided_differences_recursive(samples)
    alphas, nodes = table.diffs[: n_max + 1], samples.grid.nodes[:n_max]
    _check_alphas(alphas)
    if all(map(is_exact, chain(nodes, alphas))):
        (b, big_d), u, s, m, omega, rows = over_lcm(nodes), [], 1, 1, [1], []
        for n, alpha in enumerate(alphas):  # P_{n-1} = s u / m, P-hat_{n-1} = u / u[-1]
            if n:  # D^n omega_n = D^(n-1) omega_{n-1} (D z - b_{n-1})
                omega = [big_d * lo - b[n - 1] * hi for lo, hi in zip([0, *omega], omega + [0])]
            p, q = alpha.numerator, alpha.denominator  # P_n = P_{n-1} + p D^n omega_n / (q D^n)
            common, sign = math.lcm(m, q * big_d ** n), 1 if p > 0 else -1
            x, y = common // m * s * sign, abs(p) * (common // (q * big_d ** n))
            v = [x * c + y * w for c, w in zip(u + [0], omega)]  # sign(alpha_n) common P_n
            u, k = reduced(v, v[-1])  # P-hat_n = v / v[-1], with v's content gcd(v) = v[-1] / k
            (s,), m = reduced([sign * v[-1] // k], common)  # P_n = s u / m in lowest terms
            rows.append((u, k))
        return MonicInterpolantFamily(samples.grid, samples.values, alphas, rows=rows)
    phats, interpolant, omega = [], [], [1]  # P_n and omega_n as Polynomial's coefficient lists
    for n, alpha in enumerate(alphas):
        interpolant = [alpha * c + p for c, p in zip(omega, interpolant)] + [alpha]  # + alpha * 1
        phats.append(Polynomial([c / alpha for c in interpolant]))
        neg = -samples.grid[n]  # omega_n (z - a_n) by Polynomial.__mul__'s sums, 0 + x included
        omega = [0 + omega[0] * neg, *(0 + lo + hi * neg for lo, hi in zip(omega, omega[1:])), 1]
    return MonicInterpolantFamily(samples.grid, samples.values, alphas, tuple(phats))


def recurrence_step(phat_n: Polynomial, phat_nm1: Polynomial, a_n: Scalar,
                    ratio_n: Scalar, ratio_nm1: Scalar) -> Polynomial:
    """One forward step of the three-term recurrence.

    ratio_n = alpha_n/alpha_{n+1} and ratio_nm1 = alpha_{n-1}/alpha_n are
    supplied by the caller (0 for the n = 0 step).
    """
    shifted = Polynomial((-a_n, a_n ** 0))  # the 1 in a_n's arithmetic: 1.0 on a float grid
    first = (shifted + Polynomial.constant(ratio_n)) * phat_n
    second = (shifted * phat_nm1).scale(ratio_nm1)
    return first - second


def integer_step(row: tuple, prev: tuple, ratio: Fraction, ratio_prev: Scalar, big_d: int,
                 b_n: int, lanes: Callable[[Sequence[int], Sequence[int]], Iterable[tuple]]
                 ) -> tuple[list[int], int]:
    """recurrence_step on integer rows (u, m), P-hat = u / m: P-hat_{n+1}'s row in lowest terms.

    row and prev are P-hat_n's and P-hat_{n-1}'s rows, ratio and ratio_prev are alpha_n/alpha_{n+1}
    and alpha_{n-1}/alpha_n (0 at n = 0), and a_n = b_n / D.  With common = lcm(m
    ratio.denominator, m_prev ratio_prev.denominator), on integers

        D common P-hat_{n+1} = (D z - b_n) (x u - w u_prev) + y u
                             = D z (x u - w u_prev) + (y - b_n x) u + b_n w u_prev,

    built in one pass and reduced once.  lanes(u, u_prev) gives that pass one tuple (g, p, q, r,
    t) per entry, on the rows' kind: D z (x u - w u_prev) is g (x p - w q), and (r, t) are the
    entries of (u, u_prev).  Coefficient rows take g = D and (p, q) one power down, all
    zero-padded; node values at a_s = b_s / D take g = b_s and (p, q) = (r, t) = (u_s, u_prev_s).
    """
    (u, m), (u_prev, m_prev) = row, prev
    common = math.lcm(ratio.denominator * m, ratio_prev.denominator * m_prev)
    x, w = common // m, ratio_prev.numerator * (common // (ratio_prev.denominator * m_prev))
    y, bw = ratio.numerator * big_d * (x // ratio.denominator) - b_n * x, b_n * w
    return reduced([g * (x * p - w * q) + y * r + bw * t for g, p, q, r, t in lanes(u, u_prev)],
                   big_d * common)


def family_from_recurrence(grid: Grid, alphas: Sequence[Scalar],
                           n_max: int | None = None) -> MonicInterpolantFamily:
    """Rebuild the family, and the data it interpolates, from (grid, alphas).

    Iterates the recurrence from P-hat_{-1} = 0, P-hat_0 = 1, then recovers
    the implied values A_n = sum_{s<=n} alpha_s omega_s(a_n).  The returned
    family's grid and values are truncated to indices 0..n_max, which is all
    the given alphas determine.  _check_alphas names the first bad alpha, and InvalidParameter
    a float P-hat coefficient or implied value that overflowed.
    """
    alphas = tuple(alphas)
    if n_max is None:
        n_max = len(alphas) - 1
    if n_max < 0 or n_max >= len(alphas):
        raise IndexOutOfRange(f"n_max = {n_max} outside 0..{len(alphas) - 1}")
    if n_max + 1 > len(grid):
        raise IndexOutOfRange(f"need nodes a_0..a_{n_max}, grid has {len(grid)}")
    alphas, sub_grid = alphas[: n_max + 1], Grid(grid.nodes[: n_max + 1])
    _check_alphas(alphas)
    nodes = sub_grid.nodes
    exact = all(map(is_exact, chain(nodes, alphas)))
    if exact:  # coefficient rows P-hat_n = u / m, a_s = b_s / D, shifted by D z - b_n
        (b, big_d), (c, big_q) = over_lcm(nodes), over_lcm(alphas)
        rows, ratios = [((), 1), ((1,), 1)], [0, *map(Fraction, alphas, alphas[1:])]  # P-hat_-1 = 0
        for n in range(n_max):
            rows.append(integer_step(rows[-1], rows[-2], ratios[n + 1], ratios[n], big_d, b[n], (
                lambda u, v: zip(repeat(big_d), [0, *u], [0, *v, 0], [*u, 0], [*v, 0, 0]))))
    else:
        (b, big_d), (c, big_q) = (nodes, 1), (alphas, 1)  # then the sum below is the plain one
        phats = [Polynomial.constant(alphas[0] / alphas[0])]  # as monic_family's P-hat_0
        for n in range(n_max):  # P-hat_{n-1} and alpha_{n-1} / alpha_n are 0 at n = 0
            phats.append(recurrence_step(phats[-1], phats[-2] if n else Polynomial.zero(),
                                         grid[n], alphas[n] / alphas[n + 1],
                                         n and alphas[n - 1] / alphas[n]))

    # alpha_s = c_s / Q: Q D^n A_n = sum_s c_s (D^s omega_s(a_n)) D^(n-s), by Horner in D
    values = []
    for n in range(n_max + 1):
        total, omega = 0, 1
        for c_s, b_s in zip(c[: n + 1], b):
            total, omega = total * big_d + c_s * omega, omega * (b[n] - b_s)
        values.append(Fraction(total, big_q * big_d ** n) if exact else total)
    if exact:
        return MonicInterpolantFamily(sub_grid, values, alphas, rows=rows[1:])
    for n, p in enumerate(phats):  # finite float alphas can still overflow
        check_finite(p.coeffs, lambda k, x: f"P-hat_{n} coefficient {k} = {x} is not finite")
    check_finite(values, lambda n, x: f"implied value A_{n} = {x} is not finite")
    return MonicInterpolantFamily(sub_grid, values, alphas, tuple(phats))
