"""Rational functions biorthogonal to the monic interpolants.

From a monic interpolant family build the auxiliary polynomials

    T_n = P-hat_{n+1} - (z - a_{n+1}) P-hat_n,      deg T_n <= n,

whose degree-n coefficient is nu_n = a_{n+1} - a_n + alpha_n/alpha_{n+1} - alpha_{n-1}/alpha_n.
When nu_n != 0, the monic T-hat_n = T_n/nu_n and the rational functions V_n = T-hat_n / omega_{n+2}
(simple poles exactly at a_0..a_{n+1}) pair with the interpolants through the residue sum

    <p, V_m> = sum_{s=0}^{m+1} p(a_s) T-hat_m(a_s) / (A_s omega'_{m+2}(a_s)),

the sum of residues of p(zeta) V_m(zeta) / F(zeta) over the finite poles.
The matrix <P-hat_n, V_m> is diagonal with entries -1/(nu_n alpha_n).  The pipeline reads
P-hat_n(a_s) off the three-term recurrence and stores them and each V_m's residue column once; one
kernel sums d_n, the matrix and the expansion over them.  On exact data T-hat_n, the node values,
the columns and q(a_s) are integer rows over one denominator each.  `pairing` (Horner,
nodal_derivative_at, Fraction loop) and `t_polynomial` are the oracles that they match bit for bit.

Normalization note: the diagonal is -1/(nu_n alpha_n), not the +1/alpha_n sometimes quoted for
this construction; exact rational arithmetic on nodes (0, 1, 2) with values (1, 2, 5) settles
the constant (see README, "Normalization notes").
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from .errors import IndexOutOfRange, InvalidParameter, NuVanishes, PoleEvaluation, ZeroSampleValue
from .interpolation import MonicInterpolantFamily, Samples, integer_step
from .numerics import Scalar, check_finite, is_exact, over_lcm, reduced, slots_repr
from .polynomials import Polynomial, nodal_derivative_at, nodal_weights

ZERO = Fraction(0)  # every zero residue sum on integers: the same value with no gcd to take


class RationalInterpolant:
    """V_n = T-hat_n / omega_{n+2}: monic degree-n numerator over the poles a_0..a_{n+1}."""

    __slots__ = ("index", "numerator", "pole_nodes")

    def __init__(self, index: int, numerator: Polynomial, pole_nodes: tuple[Scalar, ...]):
        self.index = index
        self.numerator = numerator
        self.pole_nodes = tuple(pole_nodes)
        if numerator.degree != index:
            raise ValueError(f"numerator must have degree {index}, got {numerator.degree}")
        if numerator.leading_coefficient() != 1:
            raise ValueError("numerator must be monic")
        if len(self.pole_nodes) != index + 2:
            raise ValueError(f"expected {index + 2} poles, got {len(self.pole_nodes)}")

    def __call__(self, z):
        """Evaluate at z (any scalar, or complex); z must avoid the poles."""
        denom = 1 * z ** 0  # one, in z's arithmetic
        for a in self.pole_nodes:
            factor = z - a
            if factor == 0:
                raise PoleEvaluation(f"z = {z} is a pole of V_{self.index}")
            denom = denom * factor
        return self.numerator(z) / denom

    def __repr__(self):
        return f"RationalInterpolant(index={self.index}, numerator={self.numerator!r})"


class BiorthogonalSystem:
    """The family with its T-hats, leading coefficients nu_n, rational functions V_n, diagonal
    pairings d_n (not compared with -1/(nu_n alpha_n) here), each V_m's residue column, built and
    checked once: integers (c, L), c_s / L = T-hat_m(a_s) / (A_s omega'_{m+2}(a_s)), on exact data,
    else (pairs (T-hat_m(a_s), A_s omega'_{m+2}(a_s)), None), s = 0..m+1; node_rows[n] likewise,
    P-hat_n(a_s) = u_s / M_n for s = 0..n_max+1, and t_rows[n] = (t, t_n), T-hat_n = t / t_n, or
    (T-hat_n's coefficients, None).  The first read of ts or vs builds them from t_rows, once."""

    __slots__ = ("family", "_ts", "nus", "_vs", "diagonal", "columns", "node_rows", "t_rows")
    __repr__ = slots_repr

    def __init__(self, family: MonicInterpolantFamily, t_rows: tuple[tuple[tuple, int | None], ...],
                 nus: tuple[Scalar, ...], diagonal: tuple[Scalar, ...],
                 columns: tuple[tuple[tuple, int | None], ...],
                 node_rows: tuple[tuple[tuple, int | None], ...]):
        self.family, self.t_rows, self.nus, self._ts, self._vs = family, t_rows, nus, None, None
        self.diagonal, self.columns, self.node_rows = diagonal, columns, node_rows

    @property
    def ts(self) -> tuple[Polynomial, ...]:
        if self._ts is None:
            self._ts = tuple(Polynomial(t if t_n is None else [Fraction(t_j, t_n) for t_j in t])
                             for t, t_n in self.t_rows)
        return self._ts

    @property
    def vs(self) -> tuple[RationalInterpolant, ...]:
        if self._vs is None:
            self._vs = tuple(RationalInterpolant(n, t, self.family.grid.nodes[: n + 2])
                             for n, t in enumerate(self.ts))
        return self._vs

    @property
    def n_max(self) -> int:
        return len(self.nus) - 1


def t_polynomial(family: MonicInterpolantFamily, n: int) -> Polynomial:
    """T_n = P-hat_{n+1} - (z - a_{n+1}) P-hat_n; degree <= n by cancellation."""
    if n + 1 > family.n_max:  # then the grid has a_{n+1} too
        raise IndexOutOfRange(f"T_{n} needs P-hat_{n + 1}; family stops at {family.n_max}")
    minus_a, p0, p1 = -family.grid[n + 1], family.phats[n].coeffs, family.phats[n + 1].coeffs
    # coefficient k: p1[k] - (-a_{n+1} p0[k] + p0[k-1]); the z^{n+1} terms cancel (both monic)
    return Polynomial([p1[0] - minus_a * p0[0], *(c1 - (minus_a * c0 + below) for c1, c0, below
                                                  in zip(p1[1:], p0[1:], p0))])


def leading_nu(family: MonicInterpolantFamily, n: int) -> Scalar:
    """Closed formula for the degree-n coefficient of T_n.

    nu_n = a_{n+1} - a_n + alpha_n/alpha_{n+1} - alpha_{n-1}/alpha_n, with alpha_{-1} = 0 at
    n = 0.  Cross-checked against the subtraction route in the tests.
    """
    if n + 1 > family.n_max:
        raise IndexOutOfRange(f"nu_{n} needs alpha_{n + 1}; family stops at {family.n_max}")
    return (family.grid[n + 1] - family.grid[n]
            + family.alpha_ratio(n + 1) - family.alpha_ratio(n))


def build_system(family: MonicInterpolantFamily, n_max: int) -> BiorthogonalSystem:
    """Assemble T-hat_n, V_n, their residue columns and the diagonal d_n, which it does not check.

    Raises NuVanishes(n) when T_n loses its degree-n term, then ZeroSampleValue(s) for the smallest
    zero A_s on V_n's poles, and InvalidParameter when a float nu_n, P-hat_n(a_s) or A_s
    omega'(a_s) is inf or nan, or the last is 0.  Node values are one recurrence step each, O(N^2)
    in all; V_n's column is built once from T-hat_n(a_s) = (P-hat_{n+1}(a_s) - (a_s - a_{n+1})
    P-hat_n(a_s)) / nu_n and omega'_{n+2}(a_s), extended from V_{n-1}'s in O(n), and d_n =
    <P-hat_n, V_n>, which check-biortho and the tests compare with -1/(nu_n alpha_n).  The route is
    the family's: when it has integer rows P-hat_n = U_n / k_n (a_s = b_s / D, A_s = e_s / E), T_n
    is t = D k_n k_{n+1} T_n from them, the node values u_s / M_n step by integer_step,
    T-hat_n(a_s) and the column c_s / L are integer rows over one denominator, the column and d_n =
    sum_s u_s c_s / (M_n L) in lowest terms: the column's scalar factors stay out of its row, which
    is reduced by its own gcd before one scalar gcd.  Only nu_n and d_n become Fractions, and T_n's
    row t is kept for the system's first read of ts and vs.  Without rows (float or mixed data, or
    built by hand) the same steps run on scalars and keep T-hat_n's coefficients for that first
    read.
    """
    if n_max < 0:
        raise IndexOutOfRange(f"system size n_max = {n_max} is negative")
    if n_max + 1 > family.n_max:
        raise IndexOutOfRange(f"system to {n_max} needs family to {n_max + 1}")
    nodes, alphas, values = family.grid.nodes[: n_max + 2], family.alphas, family.values
    rows = []  # (T_n's row, nu_n, d_n, column of V_n)
    weights: tuple[Scalar, ...] = ()
    exact = family.rows is not None
    table = [((1,) * len(nodes), 1) if exact else ((family.phats[0].coeffs[0],) * len(nodes), None)]
    # at n = 0, table[n - 1] is P-hat_0 in place of P-hat_{-1}, but alpha_{-1} / alpha_0 = 0
    if exact:  # P-hat_{n+1}(a_s) = u[s] / m and P-hat_n(a_s) = u_prev[s] / m_prev on integers
        (b, big_d), (e, big_e) = over_lcm(nodes), over_lcm(values[: n_max + 2])
        ratios = [0, *map(Fraction, alphas, alphas[1: n_max + 2])]
    for n in range(n_max + 1):
        if exact:  # D k k_next T_n = D k U_{n+1} - k_next (D z - b_{n+1}) U_n, P-hat_n = U_n / k
            (coeffs, k), (coeffs_next, k_next) = family.rows[n: n + 2]
            x, y, z = big_d * k, k_next * big_d, k_next * b[n + 1]
            t = [x * c1 - y * c + z * c0 for c1, c0, c in zip(coeffs_next, coeffs, [0, *coeffs])]
            if t[n] == 0:
                raise NuVanishes(n)
            nu_n, t_row = Fraction(t[n], big_d * k * k_next), (tuple(t), t[n])
            (u_prev, m_prev), (u, m) = table[n], integer_step(
                table[n], table[n - 1], ratios[n + 1], ratios[n], big_d, b[n],
                lambda u, v: zip(b, u, v, u, v))
            table.append((tuple(u), m))
            weights, dm = nodal_weights(b[: n + 2], weights), big_d * m_prev
            t = [p1 * dm - (b_s - b[n + 1]) * m * p0 for b_s, p0, p1 in zip(b[: n + 2], u_prev, u)]
            if 0 in e[: n + 2]:  # T-hat_n(a_s) = t_s nu_den / (D M_{n-1} M_n nu_num)
                raise ZeroSampleValue(e.index(0))
            scaled = [e_s * w_s for e_s, w_s in zip(e, weights)]  # A_s omega'(a_s) E D^(n+1)
            common = math.lcm(*scaled)  # c_s / L = r_s (E D^(n+1) nu_den) / (D M M nu_num common)
            r = [t_s * (common // d) for t_s, d in zip(t, scaled)]
            g = math.gcd(*r)  # the row's content; then one gcd puts the scalars in lowest terms
            (factor,), l = reduced([g * big_e * big_d ** (n + 1) * nu_n.denominator],
                                   dm * m * nu_n.numerator * common)
            c = [r_s // g * factor for r_s in r]
            column, d_n = (tuple(c), l), Fraction(sum(map(mul, u_prev, c)), m_prev * l)
        else:
            t_n = t_polynomial(family, n)
            nu_n = t_n.coefficient(n)
            if nu_n == 0:
                raise NuVanishes(n)
            check_finite((nu_n,), lambda _, x: f"nu_{n} = {x} is not finite")
            if t_n.degree != n:  # only a family built by hand: RationalInterpolant's check
                raise ValueError(f"numerator must have degree {n}, got {t_n.degree}")
            t_row, poles = (t_n.divide(nu_n).coeffs, None), nodes[: n + 2]
            a_n, ratio_n, ratio_nm1 = nodes[n], family.alpha_ratio(n + 1), family.alpha_ratio(n)
            table.append((tuple(((shift := x - a_n) + ratio_n) * p - ratio_nm1 * shift * q
                                for x, p, q in zip(nodes, table[n][0], table[n - 1][0])), None))
            (p_values, _), (p_next, _) = table[n:]
            check_finite(p_next, lambda s, x: f"P-hat_{n + 1}(a_{s}) = {x} is not finite")
            weights = nodal_weights(poles, weights)
            data = [((p1 - (a - nodes[n + 1]) * p0) / nu_n, weight) for a, p0, p1, weight
                    in zip(poles, p_values, p_next, weights)]
            column = (tuple(_residue_terms(data, values[: n + 2])), None)
            d_n = _residue_sum(p_values, column[0])
        rows.append((t_row, nu_n, d_n, column))
    return BiorthogonalSystem(family, *zip(*rows), tuple(table))


def _residue_terms(data: Sequence[tuple[Scalar, Scalar]],
                   values: Sequence[Scalar]) -> list[tuple[Scalar, Scalar]]:
    """(T-hat_m(a_s), A_s omega'_{m+2}(a_s)) for the poles s = 0..m+1 of V_m from its residue data
    and values A_0..A_{m+1}; ZeroSampleValue(s) names the smallest zero A_s, InvalidParameter an
    A_s omega'(a_s) that is 0 or not finite."""
    if 0 in values:
        raise ZeroSampleValue(values.index(0))
    scaled = [a_s * weight for (_, weight), a_s in zip(data, values)]
    if 0 in scaled:
        raise InvalidParameter(f"A_s omega'(a_s) underflows to 0 at s = {scaled.index(0)}")
    check_finite(scaled, lambda s, x: f"A_s omega'(a_s) = {x} is not finite at s = {s}")
    return [(t_value, d) for (t_value, _), d in zip(data, scaled)]


def _residue_sum(p_values: Sequence[Scalar], terms: list[tuple[Scalar, Scalar]]) -> Scalar:
    """sum_s p(a_s) t_s / d_s over the terms, in ascending s."""
    total: Scalar = 0
    for p_value, (t_value, d_value) in zip(p_values, terms):
        total = total + p_value * t_value / d_value
    return total


def _residue_sums(rows: Sequence[tuple], columns: Sequence[tuple]) -> list[list[Scalar]]:
    """[[<row, V_m> for V_m's stored column] for row in rows], ascending in s, rows shaped like the
    columns: (u, M), p(a_s) = u_s / M, or (values, None).  Fraction(sum_s u_s c_s, M L) or ZERO on
    integer rows, which come with integer columns, else the _residue_sum loop (Fraction(c_s, L))."""
    if all(m is not None for _, m in rows):
        return [[Fraction(total, m * l) if (total := sum(map(mul, u, c))) else ZERO
                 for c, l in columns] for u, m in rows]
    columns = [c if l is None else [(Fraction(c_s, l), 1) for c_s in c] for c, l in columns]
    return [[_residue_sum(row, terms) for terms in columns] for row, _ in rows]


def _check_samples(samples: Samples, poles: tuple[Scalar, ...],
                   values: tuple[Scalar, ...] | None = None) -> None:
    """Samples fit to pair with V_m, m = len(poles) - 2: else, in this order, IndexOutOfRange,
    ZeroSampleValue(smallest s with A_s = 0) or InvalidParameter, when their nodes on the poles,
    or their values there where values are given, differ."""
    count = len(poles)
    if count > len(samples):
        raise IndexOutOfRange(f"pairing with V_{count - 2} needs samples up to index {count - 1}")
    if 0 in samples.values[:count]:
        raise ZeroSampleValue(samples.values.index(0))
    if samples.grid.nodes[:count] != poles or (values is not None
                                               and samples.values[:count] != values):
        raise InvalidParameter(f"samples differ from V_{count - 2}'s data on its poles")


def pairing(p: Polynomial, v: RationalInterpolant, samples: Samples) -> Scalar:
    """Residue-sum pairing of a polynomial with V_m.

    sum_{s=0}^{m+1} p(a_s) T-hat_m(a_s) / (A_s omega'_{m+2}(a_s)): the sum
    of residues of p(zeta) V_m(zeta) / F(zeta).  Only the m+2 poles of V_m
    contribute, so extending the samples beyond index m+1 never changes the
    value.  It builds V_m's residue data with nodal_derivative_at, apart from build_system.
    """
    _check_samples(samples, v.pole_nodes)
    data = [(v.numerator(a), nodal_derivative_at(v.pole_nodes, len(v.pole_nodes), s))
            for s, a in enumerate(v.pole_nodes)]
    terms = _residue_terms(data, samples.values[: len(v.pole_nodes)])
    return _residue_sum([p(a) for a in v.pole_nodes], terms)


def orthogonality_moment(family: MonicInterpolantFamily, n: int, j: int) -> Scalar:
    """I_{nj} = sum_{s<=n} a_s^j P-hat_n(a_s) / (A_s omega'_{n+1}(a_s)).

    For j <= n this equals delta_{nj} / alpha_n: the monic interpolants are orthogonal to all
    lower powers under the 1/F residue weight.
    """
    if n > family.n_max:
        raise IndexOutOfRange(f"moment needs P-hat_{n}; family stops at {family.n_max}")
    if j < 0 or j > n:
        raise IndexOutOfRange(f"power {j} outside 0..{n}")
    if 0 in family.values[: n + 1]:
        raise ZeroSampleValue(family.values.index(0))
    nodes = family.grid.nodes[: n + 1]
    total: Scalar = 0
    for a_s, a_value, weight in zip(nodes, family.values, nodal_weights(nodes)):
        total = total + a_s ** j * family.phats[n](a_s) * (1 / (a_value * weight))
    return total


def biorthogonality_matrix(system: BiorthogonalSystem, samples: Samples,
                           n_max: int) -> list[list[Scalar]]:
    """Matrix of pairings <P-hat_n, V_m> for n, m <= n_max.

    Diagonal with entries -1/(nu_n alpha_n); every off-diagonal entry is
    exactly zero in exact arithmetic.  Every entry is still a computed residue sum in ascending
    s over P-hat_n's node values and V_m's stored column, O(N^3) in all, bit-identical to
    pairing's Fraction loop.  samples must be the system's on a_0..a_{n_max+1} (_check_samples).
    """
    if not 0 <= n_max <= system.n_max:  # n_max + 1 < 0 would slice the rows from the end
        raise IndexOutOfRange(f"matrix size {n_max} is outside 0..{system.n_max}")
    _check_samples(samples, system.family.grid.nodes[: n_max + 2],
                   system.family.values[: n_max + 2])
    return _residue_sums(system.node_rows[: n_max + 1], system.columns[: n_max + 1])


def expand_in_interpolants(q_poly: Polynomial, system: BiorthogonalSystem,
                           samples: Samples) -> tuple[Scalar, ...]:
    """Coefficients xi_k with q_poly = sum_k xi_k P-hat_k.

    xi_k = <q_poly, V_k> / d_k for k = 0..deg(q_poly), using the system's
    diagonal (not compared here with -1/(nu_k alpha_k)).  Exact reconstruction holds because the
    pairing annihilates every P-hat_j with j != k.  Each is summed as in the matrix, with q_poly
    read at the nodes once (Horner on integers over Q D^deg on a family with rows) and samples the
    system's on a_0..a_{deg+1} (_check_samples); a float q_poly there reads Fraction(c_s, L).
    """
    n = q_poly.degree
    if n > system.n_max:
        raise IndexOutOfRange(f"degree {n} exceeds system size {system.n_max}")
    if 0 in system.diagonal[: n + 1]:
        raise InvalidParameter(f"d_{system.diagonal.index(0)} rounds to 0 in floating point")
    nodes = system.family.grid.nodes[: n + 2]
    _check_samples(samples, nodes, system.family.values[: n + 2])
    exact = system.family.rows is not None and all(map(is_exact, q_poly.coeffs))
    if exact:  # q = sum_k c_k z^k / Q, a_s = b_s / D
        (c, big_q), (b, big_d) = over_lcm(q_poly.coeffs), over_lcm(nodes)
        h = Polynomial([c_k * big_d ** (n - k) for k, c_k in enumerate(c)])  # h(b_s) = Q D^n q(a_s)
        den = big_q * big_d ** max(n, 0)  # the zero q has n = -1 and h = 0
        row = ([h(b_s) for b_s in b], den)  # Horner on integers
    else:
        row = ([q_poly(a) for a in nodes], None)
    sums = _residue_sums([row], system.columns[: n + 1])[0]
    return tuple(Fraction(p.numerator * d.denominator, p.denominator * d.numerator)
                 if exact else p / d for p, d in zip(sums, system.diagonal))
