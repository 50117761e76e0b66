"""Newtonian divided differences, by two independent routes.

The recursive triangle is the numerically calmer route and feeds the monic interpolant family;
the residue-style sum over omega' is the route the residue pairings reuse.  Both are exposed and
must agree exactly on exact input, which the tests enforce.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, combinations

from .errors import IndexOutOfRange, InvalidParameter
from .numerics import Scalar, exact_if_int, is_exact, over_lcm, reduced, slots_repr
from .polynomials import Grid, Polynomial, nodal_weights


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
    """Top edge of the divided-difference triangle: entry k is [a_0,...,a_k]."""

    __slots__ = ("samples", "diffs")
    __repr__ = slots_repr

    def __init__(self, samples: Samples, diffs: tuple[Scalar, ...]):
        self.samples, self.diffs = samples, diffs

    def __getitem__(self, k: int) -> Scalar:
        return self.diffs[k]


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
        acc = acc + omega.scale(table[k])
        omega = omega * Polynomial((-samples.grid[k], 1))
    return acc
