"""Reference values computed by routes independent of the code being timed.

Plain `Fraction` arithmetic on lists, with no import from `biorthopoly`.
Divided differences come from the sum route

    alpha_k = sum_{s<=k} A_s / omega'_{k+1}(a_s),

with the products omega'_{k+1}(a_s) updated once per added node, and
interpolant values from the Lagrange form evaluated at a point z:

    P_n(z) = omega_{n+1}(z) * sum_{s<=n} A_s / ((z - a_s) omega'_{n+1}(a_s)).

The library builds the family by the recursive triangle and Newton form, so
agreement of the two is a check, not a tautology.  A polynomial identity of
degree <= n that holds at a random point off the grid holds everywhere with
overwhelming likelihood, so two such points stand in for full coefficient
comparisons at O(N^2) cost.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import List, NamedTuple, Optional, Sequence, Tuple


class FamilyReference(NamedTuple):
    """Exact alphas, nus and diagonal of one data set, and P-hat_n, T-hat_n
    and P_n at each probe point (None past a vanishing alpha or nu)."""

    alphas: List[Fraction]
    nus: List[Optional[Fraction]]
    diagonal: List[Optional[Fraction]]
    phat_at: List[List[Optional[Fraction]]]
    that_at: List[List[Optional[Fraction]]]
    p_at: List[List[Fraction]]


def family_reference(nodes: Sequence[Fraction], values: Sequence[Fraction],
                     probes: Sequence[Fraction]) -> FamilyReference:
    """Sum-route alphas and Lagrange-form values for every prefix of the data."""
    count = len(nodes)
    dprod: List[Fraction] = []          # omega'_{k+1}(a_s) for s <= k
    omega_at = [Fraction(1)] * len(probes)  # omega_{k+1}(z) per probe
    alphas: List[Fraction] = []
    p_at: List[List[Fraction]] = [[] for _ in probes]
    for k in range(count):
        a_k = nodes[k]
        own = Fraction(1)
        for s in range(k):
            dprod[s] *= nodes[s] - a_k
            own *= a_k - nodes[s]
        dprod.append(own)
        alphas.append(sum((values[s] / dprod[s] for s in range(k + 1)), Fraction(0)))
        for j, z in enumerate(probes):
            omega_at[j] *= z - a_k
            weighted = sum((values[s] / ((z - nodes[s]) * dprod[s]) for s in range(k + 1)),
                           Fraction(0))
            p_at[j].append(omega_at[j] * weighted)

    nus: List[Optional[Fraction]] = []
    for n in range(count - 1):
        if alphas[n] == 0 or alphas[n + 1] == 0 or (n and alphas[n - 1] == 0):
            nus.append(None)
            continue
        previous = alphas[n - 1] / alphas[n] if n else 0
        nus.append(nodes[n + 1] - nodes[n] + alphas[n] / alphas[n + 1] - previous)
    diagonal = [None if nu is None or nu == 0 else -1 / (nu * alphas[n])
                for n, nu in enumerate(nus)]

    phat_at = [[None if alphas[n] == 0 else p_at[j][n] / alphas[n] for n in range(count)]
               for j in range(len(probes))]
    that_at = []
    for j, z in enumerate(probes):
        row = []
        for n, nu in enumerate(nus):
            upper, lower = phat_at[j][n + 1], phat_at[j][n]
            if nu is None or nu == 0 or upper is None or lower is None:
                row.append(None)
            else:
                row.append((upper - (z - nodes[n + 1]) * lower) / nu)
        that_at.append(row)
    return FamilyReference(alphas, nus, diagonal, phat_at, that_at, p_at)


def predicted_rejection(ref: FamilyReference, family_top: int,
                        system_top: Optional[int]) -> Optional[Tuple[str, int]]:
    """The typed error a pipeline must raise, or None.

    A pipeline that builds the monic family to `family_top` stops at the first
    vanishing alpha; one that then builds the system to `system_top` stops at
    the first vanishing nu.
    """
    for n in range(family_top + 1):
        if ref.alphas[n] == 0:
            return ("DegenerateInterpolant", n)
    if system_top is not None:
        for n in range(system_top + 1):
            if ref.nus[n] == 0:
                return ("NuVanishes", n)
    return None


def horner(coeffs: Sequence, z):
    """Value of sum_i coeffs[i] z**i."""
    acc = 0 * z
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def newton_coefficients(nodes: Sequence[Fraction], alphas: Sequence[Fraction],
                        degree: int) -> List[Fraction]:
    """Monomial coefficients of sum_{k<=degree} alpha_k omega_k(z), trailing
    zeros stripped."""
    acc = [Fraction(0)] * (degree + 1)
    omega = [Fraction(1)]
    for k in range(degree + 1):
        for i, c in enumerate(omega):
            acc[i] += alphas[k] * c
        shifted = [Fraction(0)] + omega
        for i, c in enumerate(omega):
            shifted[i] -= nodes[k] * c
        omega = shifted
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


def exp_grid_alpha(q: Fraction, n: int) -> Fraction:
    """alpha_n = (q - 1)**n / n! for q**z on the integer grid."""
    return (q - 1) ** n / factorial(n)


def exp_grid_diagonal(q: float, n: int) -> float:
    """d_n = -1/(nu_n alpha_n) = -n! / (q (q - 1)**(n - 1)) for e**(h z)."""
    return -factorial(n) / (q * (q - 1.0) ** (n - 1))
