"""Two routes to one interpolation polynomial.

The Newton form accumulates divided differences against nodal polynomials;
the Lagrange form distributes the data over cardinal functions.  Both are
assembled here as exact coefficient sequences and compared term by term,
along with the two independent ways of computing the divided differences
themselves.
"""

from fractions import Fraction as F

from biorthopoly import (
    Samples,
    divided_difference_sum,
    divided_differences_recursive,
    lagrange_interpolant,
    newton_interpolant,
)

samples = Samples.from_pairs(
    [F(0), F(1), F(2), F(3)], [F(1), F(2), F(4), F(8)])
print("data: 2^z sampled at z = 0, 1, 2, 3")
print()

table = divided_differences_recursive(samples)
print("divided differences, recursive triangle vs residue-style sum:")
for k in range(len(samples)):
    by_sum = divided_difference_sum(samples, k)
    print(f"  [a_0..a_{k}] = {table.diffs[k]}  (sum route: {by_sum})")
    assert table.diffs[k] == by_sum
print()

for n in range(len(samples)):
    newton = newton_interpolant(samples, n)
    lagrange = lagrange_interpolant(samples, n)
    assert newton == lagrange
    print(f"degree {n}: coefficients {newton.coeffs} (both routes)")

print()
p3 = newton_interpolant(samples, 3)
print("interpolation conditions for the cubic:")
for k in range(4):
    print(f"  P_3({samples.grid[k]}) = {p3(samples.grid[k])}")
