"""Dense univariate polynomials and interpolation grids.

Coefficients live in whichever scalar field the caller chose (Fraction or
float); everything here is mode-agnostic.  The zero polynomial is the empty
coefficient tuple and reports degree -1.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations

from .errors import IndexOutOfRange, InvalidParameter
from .numerics import Scalar, exact_if_int


def _strip(coeffs: Sequence[Scalar]) -> tuple[Scalar, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Polynomial:
    """Immutable dense polynomial; coeffs[i] multiplies z**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        object.__setattr__(self, "coeffs", _strip(tuple(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Highest power with nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Scalar:
        """Coefficient of z**i, 0 beyond the stored length."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading_coefficient(self) -> Scalar:
        return self.coeffs[-1] if self.coeffs else 0

    def __call__(self, x):
        """Evaluate by Horner's scheme; x may be any scalar (or complex)."""
        acc = 0 * x  # zero in x's arithmetic so float/complex inputs stay closed
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial.zero()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Scalar) -> "Polynomial":
        return Polynomial(tuple(c * a for a in self.coeffs))

    def divide(self, c: Scalar) -> "Polynomial":
        # Divide rather than scale by 1/c: x/x is exactly 1 in floating point, x*(1/x) need
        # not be, and the monic invariants downstream need an exact leading coefficient.
        return Polynomial(tuple(a / c for a in self.coeffs))

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def deflate(self, root: Scalar) -> tuple["Polynomial", Scalar]:
        """Synthetic division by (z - root): (quotient, remainder), the remainder self(root),
        exactly zero whenever root really is a root in exact arithmetic."""
        if not self.coeffs:
            return Polynomial.zero(), 0
        quotient, acc = [0] * (len(self.coeffs) - 1), self.coeffs[-1]
        for i in range(len(self.coeffs) - 2, -1, -1):
            quotient[i] = acc
            acc = self.coeffs[i] + root * acc
        return Polynomial(quotient), acc

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


class Grid:
    """Ordered interpolation nodes a_0..a_N, pairwise distinct (int as Fraction)."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: Iterable[Scalar]):
        nodes = tuple(map(exact_if_int, nodes))
        if len(set(nodes)) < len(nodes):  # equal numbers hash alike: name the first equal pair
            for i, j in combinations(range(len(nodes)), 2):
                if nodes[i] == nodes[j]:
                    raise ValueError(f"grid nodes must be distinct: a_{i} == a_{j} == {nodes[i]}")
        object.__setattr__(self, "nodes", nodes)

    def __setattr__(self, name, value):
        raise AttributeError("Grid is immutable")

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, k: int) -> Scalar:
        return self.nodes[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and self.nodes == other.nodes

    def __hash__(self):
        return hash(self.nodes)

    def __repr__(self):
        return f"Grid({list(self.nodes)!r})"


def nodal_polynomial(grid: Grid, k: int) -> Polynomial:
    """omega_k(z) = (z - a_0)...(z - a_{k-1}); omega_0 = 1.  Monic of degree k."""
    if k < 0 or k > len(grid):
        raise IndexOutOfRange(f"omega_{k} needs {k} nodes, grid has {len(grid)}")
    poly = Polynomial.constant(1)
    for i in range(k):
        poly = poly * Polynomial((-grid[i], 1))
    return poly


def nodal_derivative_at(grid: Grid | Sequence[Scalar], k_plus_1: int, s: int) -> Scalar:
    """omega'_{k+1}(a_s) = prod_{i<=k, i!=s} (a_s - a_i); nonzero by distinctness."""
    if k_plus_1 < 1 or k_plus_1 > len(grid):
        raise IndexOutOfRange(f"omega'_{k_plus_1} needs {k_plus_1} nodes, grid has {len(grid)}")
    if s < 0 or s >= k_plus_1:
        raise IndexOutOfRange(f"node index {s} outside 0..{k_plus_1 - 1}")
    a_s = grid[s]
    prod: Scalar = 1
    for i in range(k_plus_1):
        if i != s:
            prod = prod * (a_s - grid[i])
    return prod


def nodal_weights(nodes: Sequence[Scalar], prefix: Sequence[Scalar] = ()) -> tuple[Scalar, ...]:
    """omega'_K(a_s), s < K = len(nodes), extending the weights `prefix` of nodes[:len(prefix)]:
    node a_k multiplies each w_s by (a_s - a_k) and appends prod_{i<k} (a_k - a_i), in O(k).
    nodal_derivative_at's fold in its order, so floats match it bit for bit.
    InvalidParameter on a zero weight, which only float underflow gives."""
    weights = list(prefix)
    for k in range(len(weights), len(nodes)):
        a_k, last = nodes[k], 1
        for s in range(k):
            weights[s] = weights[s] * (nodes[s] - a_k)
            last = last * (a_k - nodes[s])
        weights.append(last)
    if 0 in weights:
        raise InvalidParameter(f"omega'(a_{weights.index(0)}) underflows to 0")
    return tuple(weights)
