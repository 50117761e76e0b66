"""The residue pairing and its diagonal, on data small enough to do by hand.

Nodes (0, 1, 2), values (1, 2, 5).  All divided differences are 1, so the
monic interpolants are 1, z+1, z^2+1.  The auxiliary polynomials come out
T_0 = 2 and T_1 = z+3, giving nu = (2, 1) and rational functions

    V_0 = 1 / (z(z-1)),    V_1 = (z+3) / (z(z-1)(z-2)).

Each pairing <P-hat_n, V_m> is a residue sum with two or three rational
terms.  The script prints the full matrix, checks the diagonal against
-1/(nu_n alpha_n), and shows that appending extra data points changes
nothing (the residue set of V_m is fixed).
"""

from fractions import Fraction as F

from biorthopoly import (
    Samples,
    biorthogonality_matrix,
    build_system,
    expand_in_interpolants,
    monic_family,
    pairing,
)
from biorthopoly.polynomials import Polynomial

samples = Samples.from_pairs([F(0), F(1), F(2)], [F(1), F(2), F(5)])
family = monic_family(samples, 2)
system = build_system(family, 1)

print("T-hats:", [t.coeffs for t in system.ts])
print("nus:   ", system.nus)
print()

matrix = biorthogonality_matrix(system, samples, 1)
print("pairing matrix <P-hat_n, V_m>:")
for row in matrix:
    print("  ", row)
for n in range(2):
    assert matrix[n][n] == -1 / (system.nus[n] * family.alphas[n])
print("diagonal equals -1/(nu_n alpha_n); off-diagonal exactly zero")
print()

extended = Samples.from_pairs([*samples.grid.nodes, F(9)], [*samples.values, F(-4)])
moved = pairing(family.phats[1], system.vs[1], extended)
print(f"after appending node 9 with value -4: <P-hat_1, V_1> = {moved}")
assert moved == matrix[1][1]
print()

# expansion: the same pairing, divided by the diagonal, gives coordinates
# in the monic interpolant basis
four = Samples.from_pairs([*samples.grid.nodes, F(3)], [*samples.values, F(11)])
family4 = monic_family(four, 3)
system4 = build_system(family4, 2)
q = Polynomial([F(0), F(0), F(1)])  # z^2
xi = expand_in_interpolants(q, system4, four)
print(f"z^2 in the basis (1, z+1, z^2+1): coefficients {xi}")
recombined = Polynomial.zero()
for k, c in enumerate(xi):
    recombined = recombined + family4.phats[k].scale(c)
assert recombined == q
print("recombination exact")
