import collections
import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import biorthopoly.biorthogonality as biorthogonality
import biorthopoly.interpolation as interpolation
from biorthopoly.biorthogonality import (
    BiorthogonalSystem,
    RationalInterpolant,
    _residue_sum,
    _residue_terms,
    _residue_sums,
    biorthogonality_matrix,
    build_system,
    expand_in_interpolants,
    leading_nu,
    orthogonality_moment,
    pairing,
    t_polynomial,
)
from biorthopoly.errors import (
    BiorthopolyError,
    DegenerateInterpolant,
    IndexOutOfRange,
    InvalidParameter,
    NuVanishes,
    PoleEvaluation,
    ZeroSampleValue,
)
from biorthopoly.contour import contour_biortho_check, hermite_divided_difference
from biorthopoly.exponential import ExpGridProblem
from biorthopoly.interpolation import (MonicInterpolantFamily, Samples,
                                       divided_differences_recursive, family_from_recurrence,
                                       lagrange_interpolant, monic_family, newton_interpolant)
from biorthopoly.numerics import parse_scalar
from biorthopoly.polynomials import Grid, Polynomial, nodal_derivative_at

F = Fraction


def make_samples(nodes, values):
    return Samples.from_pairs([F(a) for a in nodes], [F(v) for v in values])


@pytest.fixture()
def worked():
    """Nodes (0,1,2), values (1,2,5): every quantity known by hand."""
    samples = make_samples([0, 1, 2], [1, 2, 5])
    family = monic_family(samples, 2)
    return samples, family


def usable_random_samples(rng, n_nodes):
    """Nonzero values and nonzero divided differences up to the last index."""
    while True:
        nodes = rng.sample(range(-10, 11), n_nodes)
        values = [rng.choice([v for v in range(-9, 10) if v != 0])
                  for _ in nodes]
        s = make_samples(nodes, values)
        if all(d != 0 for d in divided_differences_recursive(s).diffs):
            return s


def test_t_polynomial_worked_example(worked):
    _, family = worked
    assert t_polynomial(family, 0) == Polynomial.constant(F(2))
    assert t_polynomial(family, 1) == Polynomial([F(3), F(1)])


def test_t_polynomial_needs_next_phat(worked):
    _, family = worked
    with pytest.raises(IndexOutOfRange):
        t_polynomial(family, 2)


def test_leading_nu_worked_example(worked):
    _, family = worked
    assert leading_nu(family, 0) == 2
    assert leading_nu(family, 1) == 1


def test_leading_nu_matches_coefficient_random():
    """Closed formula vs the degree-n coefficient of the subtraction route."""
    rng = random.Random(29)
    for _ in range(20):
        s = usable_random_samples(rng, rng.randint(3, 9))
        family = monic_family(s, s.last_index)
        for n in range(s.last_index):
            assert t_polynomial(family, n).coefficient(n) == leading_nu(family, n)


def test_build_system_worked_example(worked):
    samples, family = worked
    system = build_system(family, 1)
    assert system.ts == (Polynomial.constant(F(1)), Polynomial([F(3), F(1)]))
    assert system.nus == (2, 1)
    # V_0 = 1/(z(z-1)) and V_1 = (z+3)/(z(z-1)(z-2)) at a probe point
    z = F(1, 2)
    assert system.vs[0](z) == 1 / (z * (z - 1))
    assert system.vs[1](z) == (z + 3) / (z * (z - 1) * (z - 2))
    assert system.diagonal == (F(-1, 2), F(-1))


def test_build_system_rejects_negative_size(worked):
    # an empty system would let check-biortho report an empty matrix as passed
    _, family = worked
    with pytest.raises(IndexOutOfRange):
        build_system(family, -1)


def test_build_system_nu_vanishes_before_zero_sample_value():
    # A_1 = 0 makes nu_0 = 0; the diagonal at n = 0 would also divide by A_1
    samples = make_samples([0, 1, 2], [1, 0, 5])
    family = monic_family(samples, 2)
    with pytest.raises(NuVanishes) as err:
        build_system(family, 1)
    assert err.value.index == 0


def test_build_system_zero_sample_value_smallest_index():
    # A_2 = A_3 = 0: the diagonal at n = 1 is the first to meet a zero
    samples = make_samples([0, 1, 2, 3, 4], [1, 3, 0, 0, 4])
    family = monic_family(samples, 4)
    with pytest.raises(ZeroSampleValue) as err:
        build_system(family, 3)
    assert err.value.index == 2


def test_build_system_nu_vanishes():
    # alphas (1, 2, -4) on grid (0,1,2,3) make nu_1 = 1 + 2/(-4) - 1/2 = 0
    samples = make_samples([0, 1, 2, 3], [1, 3, -3, 1])
    family = monic_family(samples, 2)
    assert leading_nu(family, 1) == 0
    with pytest.raises(NuVanishes) as err:
        build_system(family, 1)
    assert err.value.index == 1


@pytest.mark.parametrize("call, error, message", [
    (lambda s, f: leading_nu(f, f.n_max), IndexOutOfRange, "nu_2 needs alpha_3"),
    (lambda s, f: build_system(f, f.n_max), IndexOutOfRange, "system to 2 needs family to 3"),
    (lambda s, f: orthogonality_moment(f, 3, 0), IndexOutOfRange, "moment needs P-hat_3"),
    (lambda s, f: orthogonality_moment(f, 2, -1), IndexOutOfRange, r"power -1 outside 0\.\.2"),
    (lambda s, f: orthogonality_moment(f, 1, 2), IndexOutOfRange, r"power 2 outside 0\.\.1"),
    (lambda s, f: orthogonality_moment(monic_family(make_samples([0, 1, 2], [1, 0, 5]), 2), 2, 0),
     ZeroSampleValue, "A_1 = 0"),
    (lambda s, f: expand_in_interpolants(Polynomial([F(1)] * 3), build_system(f, 1), s),
     IndexOutOfRange, "degree 2 exceeds system size 1"),
    (lambda s, f: lagrange_interpolant(s, -1), IndexOutOfRange, r"degree -1 outside 0\.\.2"),
    (lambda s, f: lagrange_interpolant(s, 3), IndexOutOfRange, r"degree 3 outside 0\.\.2"),
    (lambda s, f: family_from_recurrence(s.grid, f.alphas, -1), IndexOutOfRange, "n_max = -1"),
    (lambda s, f: family_from_recurrence(s.grid, f.alphas, 3), IndexOutOfRange, "n_max = 3"),
    (lambda s, f: hermite_divided_difference(1.0, -1), InvalidParameter, "k must be nonnegative"),
    (lambda s, f: contour_biortho_check(1.0, -1, 0), InvalidParameter, "indices must be"),
    (lambda s, f: parse_scalar("1/2", "complex"), InvalidParameter, "unknown scalar mode"),
    (lambda s, f: MonicInterpolantFamily(f.grid, f.values, f.alphas[:2], f.phats), ValueError,
     "must align"),
    (lambda s, f: MonicInterpolantFamily(f.grid, f.values[:2], f.alphas, f.phats), ValueError,
     "lengths inconsistent"),
    (lambda s, f: MonicInterpolantFamily(f.grid, f.values, f.alphas), ValueError, "exactly one"),
    (lambda s, f: MonicInterpolantFamily(f.grid, f.values, f.alphas, f.phats, rows=f.rows),
     ValueError, "exactly one"),
], ids=["leading_nu", "build_system", "moment-n", "moment-j-low", "moment-j-high", "moment-zero",
        "expand-degree", "lagrange-low", "lagrange-high", "recurrence-low", "recurrence-high",
        "hermite-k", "contour-index", "scalar-mode", "family-align", "family-lengths",
        "family-neither", "family-both"])
def test_out_of_range_arguments_raise_typed_errors(call, error, message, worked):
    samples, family = worked
    with pytest.raises(error, match=message):
        call(samples, family)


def test_rational_interpolant_pole_evaluation(worked):
    _, family = worked
    system = build_system(family, 1)
    with pytest.raises(PoleEvaluation):
        system.vs[1](F(2))


def test_rational_interpolant_validates_numerator():
    with pytest.raises(ValueError):
        RationalInterpolant(1, Polynomial([F(1), F(2)]), (F(0), F(1), F(2)))


def test_pairing_worked_values(worked):
    samples, family = worked
    system = build_system(family, 1)
    assert pairing(family.phats[1], system.vs[1], samples) == -1
    assert pairing(family.phats[0], system.vs[1], samples) == 0
    assert pairing(family.phats[0], system.vs[0], samples) == F(-1, 2)


def test_pairing_rejects_zero_sample_value():
    samples = make_samples([0, 1, 2], [1, 2, 5])
    family = monic_family(samples, 2)
    system = build_system(family, 1)
    poisoned = make_samples([0, 1, 2], [1, 0, 5])
    with pytest.raises(ZeroSampleValue) as err:
        pairing(family.phats[0], system.vs[1], poisoned)
    assert err.value.index == 1


def test_pairing_reports_smallest_zero_index(worked):
    samples, family = worked
    system = build_system(family, 1)
    poisoned = make_samples([0, 1, 2], [1, 0, 0])
    with pytest.raises(ZeroSampleValue) as err:
        pairing(family.phats[0], system.vs[1], poisoned)
    assert err.value.index == 1
    with pytest.raises(ZeroSampleValue) as err:
        biorthogonality_matrix(system, poisoned, 1)
    assert err.value.index == 1


def test_pairing_needs_enough_samples(worked):
    samples, family = worked
    system = build_system(family, 1)
    short = make_samples([0, 1], [1, 2])
    with pytest.raises(IndexOutOfRange):
        pairing(family.phats[0], system.vs[1], short)


def test_pairing_ignores_extra_nodes(worked):
    """Only the m+2 poles of V_m contribute: extending the data beyond
    index m+1 must not move the value."""
    samples, family = worked
    system = build_system(family, 1)
    base = pairing(family.phats[1], system.vs[1], samples)
    extended = samples.extended(F(7), F(-3))
    assert pairing(family.phats[1], system.vs[1], extended) == base


def test_orthogonality_moment_worked(worked):
    _, family = worked
    assert orthogonality_moment(family, 1, 1) == 1
    assert orthogonality_moment(family, 1, 0) == 0
    assert orthogonality_moment(family, 0, 0) == 1  # 1/A_0 with A_0 = 1


def test_orthogonality_moment_random():
    rng = random.Random(31)
    for _ in range(15):
        s = usable_random_samples(rng, rng.randint(2, 9))
        family = monic_family(s, s.last_index)
        for n in range(s.last_index + 1):
            for j in range(n + 1):
                expected = 1 / family.alphas[n] if j == n else 0
                assert orthogonality_moment(family, n, j) == expected


def test_matrix_worked_example(worked):
    samples, family = worked
    system = build_system(family, 1)
    matrix = biorthogonality_matrix(system, samples, 1)
    assert matrix == [[F(-1, 2), 0], [0, F(-1)]]
    for n_max in (2, -1, -2):  # a negative size sliced the rows and columns from the end
        with pytest.raises(IndexOutOfRange):
            biorthogonality_matrix(system, samples, n_max)


def test_matrix_diagonal_random():
    rng = random.Random(37)
    checked = 0
    while checked < 10:
        s = usable_random_samples(rng, rng.randint(3, 9))
        n_max = s.last_index - 1
        family = monic_family(s, s.last_index)
        try:
            system = build_system(family, n_max)
        except NuVanishes:
            continue
        checked += 1
        matrix = biorthogonality_matrix(system, s, n_max)
        for n in range(n_max + 1):
            for m in range(n_max + 1):
                if n == m:
                    assert matrix[n][m] == -1 / (system.nus[n] * family.alphas[n])
                else:
                    assert matrix[n][m] == 0


def wide_systems():
    """(rng, samples, system) beyond random_systems' N <= 13: q**k data on
    0..22 with q = 5/3 at N = 20, and distinct random rational nodes, some
    negative, at N = 24."""
    problem = ExpGridProblem(F(5, 3), 20)
    yield random.Random(5), problem.samples, build_system(monic_family(problem.samples, 21), 20)
    rng = random.Random(24)
    while True:
        nodes = []
        while len(nodes) < 26:
            x = F(rng.randint(-40, 40), rng.randint(1, 9))
            if x not in nodes:
                nodes.append(x)
        values = [F(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9)) for _ in nodes]
        s = Samples.from_pairs(nodes, values)
        try:
            system = build_system(monic_family(s, 25), 24)
        except (DegenerateInterpolant, NuVanishes):
            continue
        assert min(nodes) < 0
        yield rng, s, system
        return


def test_matrix_entries_match_pairing_exact():
    """Exact mode: each matrix entry is pairing(P-hat_n, V_m) bit for bit."""
    for _, s, system in [*random_systems(47, 12), *wide_systems()]:
        n_max = system.n_max
        matrix = biorthogonality_matrix(system, s, n_max)
        for n in range(n_max + 1):
            for m in range(n_max + 1):
                expected = pairing(system.family.phats[n], system.vs[m], s)
                assert repr(matrix[n][m]) == repr(expected)


def test_scale_equivariance():
    """Scaling all values by c scales alphas by c, fixes P-hat, and scales
    the pairing by 1/c."""
    rng = random.Random(41)
    c = F(3, 7)
    while True:
        s = usable_random_samples(rng, 6)
        scaled = Samples.from_pairs(s.grid.nodes, [c * v for v in s.values])
        fam, fam_c = monic_family(s, 5), monic_family(scaled, 5)
        assert fam_c.alphas == tuple(c * a for a in fam.alphas)
        assert fam_c.phats == fam.phats
        try:
            sys_, sys_c = build_system(fam, 4), build_system(fam_c, 4)
        except NuVanishes:
            continue
        for n in range(5):
            assert sys_c.diagonal[n] == sys_.diagonal[n] / c
        break


NODE_POOL = sorted({F(a, d) for a in range(-40, 41) for d in range(1, 10)})


@st.composite
def affine_node_maps(draw):
    """(samples, c, b): N + 1 <= 11 nodes, distinct rationals in random order, 0..N or k/4;
    nonzero rational values, a nonzero c and any b."""
    count = draw(st.integers(2, 11))
    rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 9))
    step = draw(st.sampled_from(["random", 1, F(1, 4)]))
    nodes = (draw(st.randoms()).sample(NODE_POOL, count) if step == "random"
             else [k * step for k in range(count)])
    values = draw(st.lists(rationals.filter(bool), min_size=count, max_size=count))
    c = draw(rationals.filter(bool))
    return Samples.from_pairs(nodes, values), c, draw(rationals)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(affine_node_maps())
def test_affine_node_map(problem):
    """Nodes a -> c a + b, values kept: alpha_n -> c^-n alpha_n, nu_n -> c nu_n and
    d_n -> c^(n-1) d_n, exactly; a degenerate alpha_n or nu_n stays degenerate."""
    samples, c, b = problem
    mapped = Samples.from_pairs([c * a + b for a in samples.grid.nodes], samples.values)
    n_max = samples.last_index - 1
    try:
        family = monic_family(samples, n_max + 1)
        system = build_system(family, n_max)
    except (DegenerateInterpolant, NuVanishes) as err:
        with pytest.raises(type(err)) as mapped_err:
            build_system(monic_family(mapped, n_max + 1), n_max)
        assert mapped_err.value.index == err.index
        return
    family_c = monic_family(mapped, n_max + 1)
    system_c = build_system(family_c, n_max)
    assert family_c.alphas == tuple(a / c ** n for n, a in enumerate(family.alphas))
    assert system_c.nus == tuple(c * nu for nu in system.nus)
    assert system_c.diagonal == tuple(c ** (n - 1) * d for n, d in enumerate(system.diagonal))


def test_expand_basis_element(worked):
    samples, family = worked
    s4 = samples.extended(F(3), F(11))
    family = monic_family(s4, 3)
    system = build_system(family, 2)
    xi = expand_in_interpolants(family.phats[2], system, s4)
    assert xi == (0, 0, 1)


def test_expand_monomial(worked):
    samples, _ = worked
    s4 = samples.extended(F(3), F(11))
    family = monic_family(s4, 3)
    system = build_system(family, 2)
    xi = expand_in_interpolants(Polynomial([F(0), F(0), F(1)]), system, s4)
    assert xi == (-1, 0, 1)
    total = Polynomial.zero()
    for k, coeff in enumerate(xi):
        total = total + family.phats[k].scale(coeff)
    assert total == Polynomial([F(0), F(0), F(1)])


def test_expand_constant(worked):
    samples, family = worked
    system = build_system(family, 1)
    assert expand_in_interpolants(Polynomial.constant(F(5)), system, samples) == (5,)


def triangular_solve(q_poly, phats):
    """Independent expansion oracle: peel leading coefficients downward."""
    residue = q_poly
    xi = [F(0)] * (q_poly.degree + 1)
    for k in range(q_poly.degree, -1, -1):
        coeff = residue.coefficient(k)
        xi[k] = coeff
        residue = residue - phats[k].scale(coeff)
    assert not residue.coeffs
    return tuple(xi)


def test_expand_matches_triangular_solve():
    rng = random.Random(43)
    while True:
        s = usable_random_samples(rng, 8)
        family = monic_family(s, 7)
        try:
            system = build_system(family, 6)
        except NuVanishes:
            continue
        break
    for _ in range(10):
        degree = rng.randint(0, 6)
        coeffs = [F(rng.randint(-9, 9)) for _ in range(degree)]
        coeffs.append(F(rng.choice([v for v in range(-9, 10) if v != 0])))
        q_poly = Polynomial(coeffs)
        xi = expand_in_interpolants(q_poly, system, s)
        assert xi == triangular_solve(q_poly, family.phats)


def random_systems(seed, count, to_float=False, node_divisor=7):
    """(rng, samples, system) on N + 1 = 3..14 random nodes, with n_max = N - 1."""
    rng = random.Random(seed)
    while count:
        s = usable_random_samples(rng, rng.randint(3, 14))
        if to_float:
            # the default nodes a/7 are not dyadic, so products of their
            # differences round and the order of every fold shows in the last bits
            s = Samples.from_pairs([float(a) / node_divisor for a in s.grid.nodes],
                                   [float(v) / 3 for v in s.values])
        try:
            system = build_system(monic_family(s, s.last_index), s.last_index - 1)
        except NuVanishes:
            continue
        count -= 1
        yield rng, s, system


@pytest.mark.parametrize("to_float", [False, True], ids=["exact", "float"])
def test_stored_residue_data_matches_oracles(to_float):
    """Each V_m's stored column against the oracles: in exact mode every weight
    Fraction(c_s, L) is ts[m](a_s) / (A_s nodal_derivative_at(a_s)); in float mode every
    d_s is A_s nodal_derivative_at(a_s) bit for bit (T-hat_m(a_s) from the recurrence and
    from Horner round differently there; see the accuracy tests below)."""
    for _, s, system in random_systems(53, 8, to_float):
        for m, (column, common) in enumerate(system.columns):
            poles = s.grid.nodes[: m + 2]
            weights = [nodal_derivative_at(s.grid, m + 2, i) for i in range(m + 2)]
            if to_float:
                assert common is None
                scaled = [a_value * w for a_value, w in zip(s.values, weights)]
                assert repr([d for _, d in column]) == repr(scaled)
            else:
                assert all(type(c) is int for c in (*column, common))
                oracle = [system.ts[m](a) / (a_value * w)
                          for a, a_value, w in zip(poles, s.values, weights)]
                assert [F(c, common) for c in column] == oracle


def test_expand_matches_pairing_exact():
    """Exact mode: each xi_k is pairing(q, V_k) / d_k bit for bit."""
    for rng, s, system in [*random_systems(59, 12), *wide_systems()]:
        degree = rng.randint(0, system.n_max)
        q_poly = Polynomial([F(rng.randint(-9, 9), 7) for _ in range(degree)] + [F(3, 2)])
        xi = expand_in_interpolants(q_poly, system, s)
        expected = tuple(pairing(q_poly, system.vs[k], s) / system.diagonal[k]
                         for k in range(degree + 1))
        assert repr(xi) == repr(expected)


def matrix_error(matrix, samples):
    """Worst |M_nm - E_nm| against the exact matrix E of the float-rounded data,
    diagonal with -1/(nu_n alpha_n) there; a non-finite entry counts as inf."""
    exact = Samples.from_pairs([F(a) for a in samples.grid.nodes], [F(v) for v in samples.values])
    family = monic_family(exact, len(matrix))
    diagonal = [-1 / (leading_nu(family, n) * family.alphas[n]) for n in range(len(matrix))]
    if not all(math.isfinite(x) for row in matrix for x in row):
        return math.inf
    return float(max(abs(F(x) - (diagonal[n] if n == m else 0))
                     for n, row in enumerate(matrix) for m, x in enumerate(row)))


def route_errors(s, system):
    """(table route, pairing route) matrix errors of one float system."""
    family, indices = system.family, range(system.n_max + 1)
    by_pairing = [[pairing(family.phats[n], system.vs[m], s) for m in indices] for n in indices]
    return (matrix_error(biorthogonality_matrix(system, s, system.n_max), s),
            matrix_error(by_pairing, s))


def ascending_quarter_systems(n_max, count):
    """(samples, system) on nodes k/4, k = 0..n_max+1, with random rational values."""
    rng = random.Random(n_max)
    while count:
        values = [rng.choice([v for v in range(-9, 10) if v]) / rng.randint(1, 9)
                  for _ in range(n_max + 2)]
        s = Samples.from_pairs([k / 4 for k in range(n_max + 2)], values)
        try:
            system = build_system(monic_family(s, n_max + 1), n_max)
        except (DegenerateInterpolant, NuVanishes):
            continue
        count -= 1
        yield s, system


def test_float_matrix_no_worse_than_pairing_on_ascending_grids():
    """Nodes k/4, N = 3..24, five value sets each: a matrix from the
    recurrence's node values is never less accurate than the Horner and
    nodal_derivative_at route of pairing beyond round-off (a factor 2; one
    system at N = 6 is 1.14 times worse, 1.6e-12 against 1.4e-12), and from
    N = 9 on it is more accurate on every system."""
    for n_max in range(3, 25):
        for s, system in ascending_quarter_systems(n_max, 5):
            by_table, by_pairing = route_errors(s, system)
            assert by_table <= 2 * by_pairing, (n_max, s.values)
            assert n_max < 9 or by_table < by_pairing, (n_max, s.values)


def test_float_matrix_keeps_the_pairing_tolerance_on_random_grids():
    """On the random-order corpora (nodes a/4 and a/7, N <= 13), every system
    whose matrix meets the CLI's 1e-9 by pairing still meets it from the table."""
    corpora = [random_systems(47, 12, to_float=True, node_divisor=4),
               random_systems(53, 8, to_float=True), random_systems(59, 12, to_float=True)]
    met = 0
    for _, s, system in (item for corpus in corpora for item in corpus):
        by_table, by_pairing = route_errors(s, system)
        if by_pairing <= 1e-9:
            met += 1
            assert by_table <= 1e-9, (s, by_table, by_pairing)
    assert met >= 30


def test_node_values_are_the_interpolants_at_the_nodes():
    """Exact mode: node_values[n][s] = P-hat_n(a_s) for n, s = 0..n_max+1, on
    random rational nodes in random order."""
    rng = random.Random(67)
    checked = 0
    while checked < 10:
        size = rng.randint(2, 12)
        nodes = set()
        while len(nodes) < size:
            nodes.add(F(rng.randint(-40, 40), rng.randint(1, 9)))
        values = [F(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9)) for _ in nodes]
        s = Samples.from_pairs(rng.sample(sorted(nodes), size), values)
        try:
            family = monic_family(s, size - 1)
            system = build_system(family, size - 2)
        except (DegenerateInterpolant, NuVanishes):
            continue
        checked += 1
        assert len(node_values(system)) == size
        for n, row in enumerate(node_values(system)):
            assert row == tuple(family.phats[n](a) for a in s.grid.nodes)


def test_pairings_reject_samples_on_another_grid(worked):
    """The stored columns belong to the system's nodes and values: samples that differ
    there must not be paired with them.  The matrix, expand and pairing check, in this order,
    that the samples reach V's poles (IndexOutOfRange), hold no zero there (ZeroSampleValue) and
    match the system's nodes and values there (InvalidParameter; pairing knows V's nodes only),
    with one message for a mismatch."""
    samples, family = worked
    system = build_system(family, 1)
    q_poly = Polynomial([F(1), F(1)])
    moved = make_samples([0, 1, 3], [1, 2, 5])
    mismatch = "samples differ from V_1's data on its poles"
    with pytest.raises(InvalidParameter, match=mismatch):
        biorthogonality_matrix(system, moved, 1)
    with pytest.raises(InvalidParameter, match=mismatch):
        expand_in_interpolants(q_poly, system, moved)
    with pytest.raises(InvalidParameter, match=mismatch):
        pairing(family.phats[1], system.vs[1], moved)
    # the same nodes with other nonzero values would pair with weights that are not V's
    revalued = make_samples([0, 1, 2], [1, 3, 5])
    with pytest.raises(InvalidParameter):
        biorthogonality_matrix(system, revalued, 1)
    with pytest.raises(InvalidParameter):
        expand_in_interpolants(q_poly, system, revalued)
    short = make_samples([0, 1], [1, 2])
    with pytest.raises(IndexOutOfRange):
        biorthogonality_matrix(system, short, 1)
    with pytest.raises(IndexOutOfRange):
        expand_in_interpolants(q_poly, system, short)
    # a zero on the poles is named before the mismatch it also is, also on moved nodes
    for poisoned in (make_samples([0, 1, 2], [1, 0, 0]), make_samples([0, 1, 3], [1, 0, 5])):
        with pytest.raises(ZeroSampleValue) as err:
            biorthogonality_matrix(system, poisoned, 1)
        assert err.value.index == 1
        with pytest.raises(ZeroSampleValue) as err:
            expand_in_interpolants(q_poly, system, poisoned)
        assert err.value.index == 1
        with pytest.raises(ZeroSampleValue) as err:
            pairing(family.phats[1], system.vs[1], poisoned)
        assert err.value.index == 1
    # nodes and values beyond the poles of V_m may differ
    extended = samples.extended(F(9), F(4))
    assert biorthogonality_matrix(system, extended, 1) == [[F(-1, 2), 0], [0, F(-1)]]
    assert biorthogonality_matrix(system, make_samples([0, 1, 2, 7], [1, 2, 5, 3]), 1) == \
        [[F(-1, 2), 0], [0, F(-1)]]
    assert expand_in_interpolants(q_poly, system, extended) == \
        expand_in_interpolants(q_poly, system, samples)


@pytest.mark.parametrize("to_float", [False, True], ids=["exact", "float"])
def test_matrix_and_expand_build_no_column(monkeypatch, to_float):
    """build_system builds each V_m's column once: at N = 10 the matrix and expand call
    _residue_terms zero times, in exact and in float mode."""
    rng = random.Random(109)
    while True:
        s = usable_random_samples(rng, 12)
        if to_float:
            s = Samples.from_pairs([float(a) / 7 for a in s.grid.nodes], list(map(float, s.values)))
        try:
            system = build_system(monic_family(s, 11), 10)
        except (DegenerateInterpolant, NuVanishes):
            continue
        break
    calls = []

    def counted(*args):
        calls.append(args)
        return _residue_terms(*args)

    monkeypatch.setattr(biorthogonality, "_residue_terms", counted)
    q_poly = Polynomial([F(k - 4, 3) for k in range(11)])
    biorthogonality_matrix(system, s, 10)
    expand_in_interpolants(q_poly, system, s)
    assert calls == []
    pairing(system.family.phats[1], system.vs[1], s)  # the oracle route is what is counted
    assert len(calls) == 1


def test_float_q_on_an_exact_system_reads_fraction_weights():
    """A float q_poly on an exact system sums p(a_s) Fraction(c_s, L) in floats.  On random
    rational nodes, N = 8..14 with denominators up to 12, each xi_k is within 1e-11 relative
    of the exact xi_k of the same (dyadic) coefficients.  At N = 20 with denominators up to
    97, c_s and L pass 1,024 bits, so p(a_s) c_s / L on the integers raises OverflowError;
    there the float sum itself loses digits to cancellation, so the bound is 1e-7."""
    rng = random.Random(113)
    checked = 0
    cases = [*((big_n, 12, 30, 1e-11) for big_n in range(8, 15)), (20, 97, 60, 1e-7)]
    for big_n, den, height, tol in cases:
        for _ in range(4):
            nodes = rng.sample(sorted({F(rng.randint(-height, height), rng.randint(1, den))
                                       for _ in range(200)}), big_n + 1)
            values = [F(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, den))
                      for _ in nodes]
            s = Samples.from_pairs(nodes, values)
            try:
                system = build_system(monic_family(s, big_n), big_n - 1)
            except (DegenerateInterpolant, NuVanishes):
                continue
            coeffs = [rng.randint(-9, 9) / 7 for _ in range(big_n - 1)] + [1.5]
            xi = expand_in_interpolants(Polynomial(coeffs), system, s)
            exact = expand_in_interpolants(Polynomial(list(map(F, coeffs))), system, s)
            assert all(type(x) is float for x in xi)
            assert all(abs(F(x) - e) <= tol * abs(e) for x, e in zip(xi, exact))
            checked += 1
    assert checked >= 30


def test_pipeline_builds_weights_incrementally(monkeypatch):
    """build_system, the matrix and expand take every omega'(a_s) from the
    O(k)-per-node nodal_weights, never from the O(k)-per-weight oracle."""
    calls = []
    original = nodal_derivative_at

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("biorthopoly") and hasattr(module, "nodal_derivative_at"):
            monkeypatch.setattr(module, "nodal_derivative_at", counted)
    rng = random.Random(61)
    while True:
        s = usable_random_samples(rng, 11)
        family = monic_family(s, 10)
        try:
            system = build_system(family, 9)
        except NuVanishes:
            continue
        break
    biorthogonality_matrix(system, s, 9)
    expand_in_interpolants(Polynomial([F(k - 4) for k in range(10)]), system, s)
    assert calls == []
    pairing(family.phats[0], system.vs[0], s)  # the oracle route is what is counted
    assert len(calls) == 2


def test_pipeline_evaluates_no_polynomial_at_the_nodes(monkeypatch):
    """build_system and the matrix take every P-hat_n(a_s) and T-hat_m(a_s)
    from the recurrence's node values: no Horner evaluation at a node."""
    rng = random.Random(71)
    while True:
        s = usable_random_samples(rng, 11)
        family = monic_family(s, 10)
        try:
            build_system(family, 9)
        except NuVanishes:
            continue
        break
    calls = []
    original = Polynomial.__call__

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(Polynomial, "__call__", counted)
    system = build_system(family, 9)
    biorthogonality_matrix(system, s, 9)
    assert [x for x in calls if x in s.grid.nodes] == []
    pairing(family.phats[1], system.vs[1], s)  # the oracle route is what is counted
    assert len([x for x in calls if x in s.grid.nodes]) == 6


def node_values(system):
    """node_values(system)[n][s] = P-hat_n(a_s) from system.node_rows: Fraction(u_s, M_n) on
    exact data, the stored values otherwise."""
    return tuple(u if m is None else tuple(F(x, m) for x in u) for u, m in system.node_rows)


def scalars(item):
    """Every scalar in nested tuples and lists."""
    if isinstance(item, (tuple, list)):
        return [x for part in item for x in scalars(part)]
    return [item]


def test_int_samples_stay_exact():
    """Grid and Samples store int nodes and values as Fractions, so int data
    give the alphas, diagonal, matrix and xi of their Fraction twins, and no
    float appears anywhere (int / int in the divided differences gave floats)."""
    by_type = []
    for s in (Samples.from_pairs([0, 1, 2, 3], [1, 2, 5, 7]), make_samples([0, 1, 2, 3], [1, 2, 5, 7]),
              Samples.from_pairs([0, 1, 2], [1, 2, 5]).extended(3, 7)):
        family = monic_family(s, 3)
        system = build_system(family, 2)
        outputs = (s.grid.nodes, s.values, family.alphas, system.nus, system.diagonal,
                   node_values(system), biorthogonality_matrix(system, s, 2),
                   expand_in_interpolants(Polynomial([1, -2, 3]), system, s))
        assert [x for x in scalars(outputs) if type(x) is not Fraction] == []
        assert [x for x in scalars(system.columns) if type(x) is not int] == []  # c_s and L
        by_type.append(repr((outputs, system.columns)))
    assert by_type[0] == by_type[1] == by_type[2]


def test_exact_pipeline_sums_residues_on_integers(monkeypatch):
    """Exact build_system, matrix and expand at N = 10 take every residue sum
    from the integer kernel; the Fraction loop serves the oracle pairing and
    float data only."""
    rng = random.Random(79)
    while True:
        s = usable_random_samples(rng, 12)
        try:
            build_system(monic_family(s, 11), 10)
            float_s = Samples.from_pairs(list(map(float, s.grid.nodes)), list(map(float, s.values)))
            build_system(monic_family(float_s, 11), 10)
        except (DegenerateInterpolant, NuVanishes):
            continue
        break
    calls = []

    def counted(*args):
        calls.append(args)
        return _residue_sum(*args)

    monkeypatch.setattr(biorthogonality, "_residue_sum", counted)
    q_poly = Polynomial([F(k - 4, 3) for k in range(11)])
    family = monic_family(s, 11)
    system = build_system(family, 10)
    biorthogonality_matrix(system, s, 10)
    expand_in_interpolants(q_poly, system, s)
    assert calls == []
    pairing(family.phats[3], system.vs[2], s)  # the oracle route is what is counted
    assert len(calls) == 1
    system = build_system(monic_family(float_s, 11), 10)
    biorthogonality_matrix(system, float_s, 10)
    expand_in_interpolants(q_poly, system, float_s)
    assert len(calls) == 1 + 11 + 11 * 11 + 11


@pytest.mark.parametrize("size", [20, 40])
def test_exact_check_pipeline_builds_no_coefficient_fraction(monkeypatch, size):
    """Exact monic_family, build_system and the matrix at N = size construct N + 1 Fractions each
    for the alphas, the alpha ratios, the nus, the d_n and the matrix diagonal, and none for a
    P-hat or T-hat coefficient, nor for a zero entry.  The first read of phats, ts and vs builds
    them, equal by repr to the Fraction oracles; a second read returns the same objects."""
    rng = random.Random(7)
    while True:
        values = [F(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9))
                  for _ in range(size + 2)]
        s = Samples.from_pairs(range(size + 2), values)
        try:
            build_system(monic_family(s, size + 1), size)
        except (DegenerateInterpolant, NuVanishes):
            continue
        break
    built = []
    with monkeypatch.context() as m:
        for module in (interpolation, biorthogonality):
            m.setattr(module, "Fraction", lambda *args: built.append(args) or F(*args))
        family = monic_family(s, size + 1)
        system = build_system(family, size)
        matrix = biorthogonality_matrix(system, s, size)
    assert len(built) == 5 * (size + 1)
    assert [matrix[n][n] for n in range(size + 1)] == list(system.diagonal)
    assert repr(family.phats) == repr(tuple(newton_interpolant(s, n).divide(alpha)
                                            for n, alpha in enumerate(family.alphas)))
    assert repr(system.ts) == repr(tuple(t_polynomial(family, n).divide(nu)
                                         for n, nu in enumerate(system.nus)))
    assert [(v.index, v.numerator, v.pole_nodes) for v in system.vs] == [
        (n, t, s.grid.nodes[: n + 2]) for n, t in enumerate(system.ts)]
    assert family.phats is family.phats and system.ts is system.ts and system.vs is system.vs


@pytest.mark.parametrize("size", [1, 12])
def test_float_pipeline_builds_each_v_n_once_on_first_read(monkeypatch, size):
    """Float monic_family, build_system, the matrix and expand construct no RationalInterpolant.
    The first read of vs builds one per index, V_n = T-hat_n / omega_{n+2} as the oracle
    route t_polynomial(family, n).divide(nu_n) gives it; a second read returns the same."""
    s = Samples.from_pairs([k / 4 for k in range(size + 2)],
                           [2.0 ** k / (k + 3) for k in range(size + 2)])
    built = []

    class Counted(RationalInterpolant):
        def __init__(self, index, numerator, pole_nodes):
            built.append(index)
            super().__init__(index, numerator, pole_nodes)

    with monkeypatch.context() as m:
        m.setattr(biorthogonality, "RationalInterpolant", Counted)
        family = monic_family(s, size + 1)
        system = build_system(family, size)
        biorthogonality_matrix(system, s, size)
        expand_in_interpolants(Polynomial([0.5] * (size + 1)), system, s)
        assert built == []
        vs = system.vs
        assert built == list(range(size + 1))
        assert system.vs is vs and built == list(range(size + 1))
    oracle = [RationalInterpolant(n, t_polynomial(family, n).divide(nu), s.grid.nodes[: n + 2])
              for n, nu in enumerate(system.nus)]
    assert [(repr(v), v.pole_nodes) for v in vs] == [(repr(v), v.pole_nodes) for v in oracle]


def test_exact_matrix_and_expand_read_the_stored_integer_node_rows(monkeypatch):
    """Exact N = 10: build_system takes the family's integer P-hat rows as they are, so it calls
    no is_exact and over_lcm only on the nodes and the sample values.  It stores each row of node
    values as integers (u, M_n), so the matrix reads them with no over_lcm or is_exact call, and
    expand calls over_lcm only on q's coefficients and on the nodes, then sums its integer Horner
    row as it is.  Those rows read as Fractions are the same by repr for the family that
    family_from_recurrence rebuilds."""
    rng = random.Random(101)
    while True:
        s = usable_random_samples(rng, 12)
        family = monic_family(s, 11)
        try:
            build_system(family, 10)
        except NuVanishes:
            continue
        break
    calls = []
    for name in ("over_lcm", "is_exact"):
        original = getattr(biorthogonality, name)
        monkeypatch.setattr(biorthogonality, name, lambda *args, f=original, name=name:
                            calls.append((name, args)) or f(*args))
    system = build_system(family, 10)
    assert calls == [("over_lcm", (s.grid.nodes,)), ("over_lcm", (s.values,))]
    calls.clear()
    biorthogonality_matrix(system, s, 10)
    assert calls == []
    q_poly = Polynomial([F(k - 4, 3) for k in range(11)])
    expand_in_interpolants(q_poly, system, s)
    over_lcm_args = [args for name, args in calls if name == "over_lcm"]
    assert over_lcm_args == [(q_poly.coeffs,), (s.grid.nodes,)]
    assert len(system.node_rows) == 12
    assert [x for x in scalars(system.node_rows) if type(x) is not int] == []  # u_s and M_n
    rebuilt = build_system(family_from_recurrence(s.grid, system.family.alphas), 10)
    assert repr(node_values(rebuilt)) == repr(node_values(system))


def test_a_family_built_by_hand_takes_the_scalar_route_with_the_same_results():
    """MonicInterpolantFamily(grid, values, alphas, phats) carries no integer rows, so
    build_system and expand run on scalars: exact on Fractions, with the ts, nus, diagonal,
    node_values, matrix and xi of the builder's family by repr.  That holds for monic_family and
    for family_from_recurrence with Fraction and with int alphas (held as Fractions)."""
    checked = 0
    for rng, s, system in random_systems(107, 12):
        n_max = system.n_max
        alphas = [rng.choice([a for a in range(-9, 10) if a]) for _ in range(n_max + 2)]
        for family in (system.family, family_from_recurrence(s.grid, system.family.alphas),
                       family_from_recurrence(s.grid, alphas)):
            copy = MonicInterpolantFamily(family.grid, family.values, family.alphas, family.phats)
            assert family.rows is not None and copy.rows is None
            try:
                built = build_system(family, n_max)
            except (NuVanishes, ZeroSampleValue):
                continue
            by_hand = build_system(copy, n_max)
            assert all(common is None for _, common in by_hand.columns)
            samples = Samples(family.grid, family.values)
            q_poly = Polynomial([F(rng.randint(-9, 9), 7) for _ in range(n_max)] + [F(3, 2)])
            outputs = [([t.coeffs for t in x.ts], x.nus, x.diagonal, node_values(x),
                        biorthogonality_matrix(x, samples, n_max),
                        expand_in_interpolants(q_poly, x, samples)) for x in (built, by_hand)]
            assert repr(outputs[0]) == repr(outputs[1])
            assert [v for v in scalars(outputs[1]) if type(v) not in (int, Fraction)] == []
            checked += 1
    assert checked >= 24


def test_a_family_built_by_hand_beyond_float_range_keeps_its_exact_values():
    """Exact node values and weights beyond float range, which math.isfinite cannot convert,
    pass the scalar route's finiteness checks: the system equals the integer route's by repr."""
    big = 10 ** 400
    s = Samples.from_pairs([0, big, 3 * big, -7 * big, F(big, 3)], [1, 2, 5, 3, -4])
    family = monic_family(s, 4)
    copy = MonicInterpolantFamily(family.grid, family.values, family.alphas, family.phats)
    systems = [build_system(f, 3) for f in (family, copy)]
    assert copy.rows is None and all(common is None for _, common in systems[1].columns)
    assert len({repr((x.ts, x.nus, x.diagonal, node_values(x), [(v.numerator, v.pole_nodes)
                                                                for v in x.vs]))
                for x in systems}) == 1
    assert abs(node_values(systems[1])[3][4]) > big


@pytest.mark.parametrize("to_scalar", [F, float], ids=["exact", "float"])
def test_a_family_built_by_hand_with_a_p_hat_above_its_degree_fails_in_build_system(to_scalar):
    """P-hat_3 in place of P-hat_2 gives T_2 of degree 3.  build_system builds no V_n until vs is
    read, yet it raises the ValueError of RationalInterpolant's degree check at n = 2."""
    s = Samples.from_pairs([to_scalar(k) / 4 for k in range(5)],
                           [to_scalar(v) for v in (1, 2, 5, 3, -4)])
    family = monic_family(s, 4)
    copy = MonicInterpolantFamily(family.grid, family.values, family.alphas,
                                  [*family.phats[:2], family.phats[3], *family.phats[3:]])
    assert build_system(copy, 1).n_max == 1
    for build in (lambda: build_system(copy, 3),
                  lambda: RationalInterpolant(2, t_polynomial(copy, 2), s.grid.nodes[:4])):
        with pytest.raises(ValueError, match="numerator must have degree 2, got 3"):
            build()


@pytest.mark.parametrize("kind", ["float", "mixed"])
def test_float_and_mixed_systems_sum_by_the_loop(kind):
    """A system that holds a float takes every residue sum by the ascending
    loop: its matrix, diagonal and xi equal _residue_sum run directly over
    node_values and the stored (t_s, d_s) columns, by repr.  Mixed data are Fraction
    nodes with float values; its xi pair an exact q_poly with float terms."""
    for rng, exact, _ in random_systems(83, 8):
        nodes = [a / 7 for a in exact.grid.nodes]
        if kind == "float":
            nodes = list(map(float, nodes))
        s = Samples.from_pairs(nodes, [float(v) / 3 for v in exact.values])
        n_max = s.last_index - 1
        system = build_system(monic_family(s, n_max + 1), n_max)
        q_poly = Polynomial([F(rng.randint(-9, 9), 7) for _ in range(n_max)] + [F(3, 2)])
        if kind == "float":
            q_poly = Polynomial(list(map(float, q_poly.coeffs)))
        assert all(common is None for _, common in system.columns)
        terms = [column for column, _ in system.columns]
        rows = node_values(system)[: n_max + 1]
        q_values = [q_poly(a) for a in s.grid.nodes[: n_max + 2]]
        matrix = biorthogonality_matrix(system, s, n_max)
        assert repr(matrix) == repr([[_residue_sum(row, t) for t in terms] for row in rows])
        assert repr(system.diagonal) == repr(tuple(map(_residue_sum, rows, terms)))
        assert repr(expand_in_interpolants(q_poly, system, s)) == repr(tuple(
            _residue_sum(q_values, t) / d for t, d in zip(terms, system.diagonal)))
        assert all(type(x) is float for row in matrix for x in row)
    # a float row (values, None) reads an exact column (c, L) as the weights Fraction(c_s, L)
    sums = _residue_sums([([0.5, -2.0], None)], [((3, -7), 10)])
    assert repr(sums) == repr([[_residue_sum([0.5, -2.0], [(F(3, 10), 1), (F(-7, 10), 1)])]])


def test_t_polynomial_matches_the_polynomial_operator_route():
    """t_polynomial's one pass, p1[k] - (-a_{n+1} p0[k] + p0[k-1]), equals
    P-hat_{n+1} - (z - a_{n+1}) P-hat_n through Polynomial's operators by repr, in
    float and exact mode: nodes k/4 and random rationals in random order, N = 3..22."""
    rng = random.Random(89)
    checked = 0
    for size in range(5, 25):
        nodes = rng.sample(sorted({F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(60)}), size)
        values = [F(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9)) for _ in nodes]
        for grid in ([F(k, 4) for k in range(size)], nodes):
            for convert in (F, float):
                try:
                    family = monic_family(Samples.from_pairs(list(map(convert, grid)),
                                                             list(map(convert, values))), size - 1)
                except DegenerateInterpolant:
                    continue
                for n in range(size - 1):
                    shifted = Polynomial((-family.grid[n + 1], 1))
                    expected = family.phats[n + 1] - shifted * family.phats[n]
                    assert repr(t_polynomial(family, n)) == repr(expected), (grid, values, n)
                    checked += 1
    assert checked >= 1000


def oracle_corpus():
    """(name, samples) for the integer route's oracle test, at N = 1, 2, 8 and 24: random
    rational nodes in random order with denominators up to 97, some negative; int data;
    q**k data with q < 0 and with 0 < q < 1 (nu_n = q/(q-1) < 0); and nodes 0, 1, -1 with
    values 1, 2, so that P-hat_1(a_2) = 0."""
    rng = random.Random(97)
    for big_n in (1, 2, 8, 24):
        nodes = set()
        while len(nodes) < big_n + 1:
            nodes.add(F(rng.randint(-60, 60), rng.randint(1, 97)))
        values = [F(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 97)) for _ in nodes]
        yield "rational", Samples.from_pairs(rng.sample(sorted(nodes), big_n + 1), values)
        ints = rng.sample(range(-30, 31), big_n + 1)
        yield "int", Samples.from_pairs(ints, [rng.choice([v for v in range(-9, 10) if v])
                                               for _ in ints])
        for q in (F(-3, 2), F(2, 5)):
            yield f"q={q}", ExpGridProblem(q, big_n).samples
        extra = [2 + F(k, 7) for k in range(big_n)]
        yield "zero node value", Samples.from_pairs([0, 1, -1, *extra][: big_n + 1],
                                                    [1, 2, *(F(k % 5 + 1, 2) for k in range(big_n))][: big_n + 1])


def test_integer_route_matches_the_independent_oracles():
    """Every exact field of build_system is a Fraction, and every column entry an int, equal
    to its independent route: node values to Horner on P-hat_n, each column weight
    Fraction(c_s, L) to Horner on ts[m] over A_s nodal_derivative_at(a_s), and d_n to pairing
    (Fraction loop) and to -1/(nu_n alpha_n)."""
    built, negative_nu, zero_value = 0, False, False
    for name, s in oracle_corpus():
        size = len(s)
        try:
            family = monic_family(s, size - 1)
            system = build_system(family, size - 2)
        except (DegenerateInterpolant, NuVanishes):
            continue
        built += 1
        nodes = s.grid.nodes
        fields = (system.nus, system.diagonal, node_values(system), [t.coeffs for t in system.ts])
        assert [x for x in scalars(fields) if type(x) is not Fraction] == [], name
        assert [x for x in scalars(system.columns) if type(x) is not int] == [], name
        for n, row in enumerate(node_values(system)):
            assert row == tuple(family.phats[n](a) for a in nodes), (name, n)
            zero_value = zero_value or 0 in row
        for m, (column, common) in enumerate(system.columns):
            assert [F(c, common) for c in column] == [
                system.ts[m](nodes[i]) / (s.values[i] * nodal_derivative_at(nodes, m + 2, i))
                for i in range(m + 2)], (name, m)
            d_m = system.diagonal[m]
            assert d_m == pairing(family.phats[m], system.vs[m], s), (name, m)
            assert d_m == -1 / (system.nus[m] * family.alphas[m]), (name, m)
            negative_nu = negative_nu or system.nus[m] < 0
    assert built >= 18 and negative_nu and zero_value


def planted_nu_zero_samples():
    """N = 11: alphas chosen so that nu_5 = 0 and A_6 = 0, so n = 5 meets both."""
    nodes = [F(3), F(-1, 2), F(5, 3), F(0), F(7, 2), F(-2), F(1), F(9, 4), F(-5, 3), F(4), F(1, 3), F(-3)]
    alphas = [None, F(2), F(-1, 3), F(3, 2), F(1, 5), F(-2, 7), None, F(-1, 2), F(2, 3), F(3),
              F(-3, 4), F(5)]
    # nu_5 = a_6 - a_5 + alpha_5/alpha_6 - alpha_4/alpha_5 = 0 fixes alpha_6 ...
    alphas[6] = alphas[5] ** 2 / (alphas[4] - (nodes[6] - nodes[5]) * alphas[5])
    # ... and A_6 = sum_s alpha_s omega_s(a_6) = 0 fixes alpha_0, with omega_0 = 1
    omegas = [math.prod((nodes[6] - a for a in nodes[:s]), start=F(1)) for s in range(7)]
    alphas[0] = -sum(alpha * omega for alpha, omega in zip(alphas[1:7], omegas[1:]))
    return Samples.from_pairs(nodes, family_from_recurrence(Grid(nodes), alphas).values), alphas


def test_nu_vanishes_before_zero_sample_value_on_a_long_grid():
    """On planted_nu_zero_samples NuVanishes(5) wins, as on the N = 2 worked example."""
    samples, alphas = planted_nu_zero_samples()
    family = monic_family(samples, 11)
    assert family.alphas == tuple(alphas) and samples.values[6] == 0 and leading_nu(family, 5) == 0
    build_system(family, 4)
    with pytest.raises(NuVanishes) as err:
        build_system(family, 10)
    assert err.value.index == 5 and str(err.value) == "nu_5 = 0: T_5 degenerates below degree 5"


def test_zero_sample_value_names_the_smallest_index_on_a_long_grid():
    """N = 11, zeros at A_6 and A_9: exact and float systems both raise ZeroSampleValue(6) at
    n = 5, the first V_n with a zero on its poles, and build to n = 4."""
    rng = random.Random(101)
    while True:
        values = [F(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9)) for _ in range(12)]
        values[6] = values[9] = F(0)
        s = Samples.from_pairs([F(k, 3) for k in range(12)], values)
        try:
            family = monic_family(s, 11)
        except DegenerateInterpolant:
            continue
        if all(leading_nu(family, n) != 0 for n in range(11)):
            break
    float_s = Samples.from_pairs(list(map(float, s.grid.nodes)), list(map(float, values)))
    for family in (family, monic_family(float_s, 11)):
        build_system(family, 4)
        with pytest.raises(ZeroSampleValue) as err:
            build_system(family, 10)
        assert err.value.index == 6
        assert str(err.value) == "A_6 = 0: residue pairing divides by the sample values"


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__rpow__")


def test_exact_system_builds_no_node_data_with_fraction_operators(monkeypatch):
    """Counts calls of Fraction's arithmetic operators (+, -, *, /, **, unary minus and
    their reflected forms; not the constructor or comparisons).  Exact build_system at
    N = 10 and expand_in_interpolants of a degree-10 q with rational coefficients make none:
    T-hat_n, node values, T-hat_n(a_s), omega'(a_s), d_n, q(a_s) and xi_k are all built on
    integers.  The oracle routes, t_polynomial and pairing, make many."""
    rng = random.Random(103)
    while True:
        s = usable_random_samples(rng, 12)
        family = monic_family(s, 11)
        try:
            build_system(family, 10)
        except NuVanishes:
            continue
        break
    q = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(10)] + [F(3, 7)])
    calls = []
    for name in FRACTION_OPERATORS:
        def counted(*args, original=getattr(Fraction, name)):
            calls.append(original)
            return original(*args)
        monkeypatch.setattr(Fraction, name, counted)
    system = build_system(family, 10)
    built = len(calls)
    xi = expand_in_interpolants(q, system, s)
    assert (built, len(calls) - built) == (0, 0)
    pairing(family.phats[2], system.vs[2], s)  # the oracle routes are counted
    t_polynomial(family, 10)
    assert len(calls) > 10
    assert xi == tuple(pairing(q, system.vs[k], s) / system.diagonal[k] for k in range(11))


def test_exact_family_layers_make_no_fraction_operator_calls(monkeypatch):
    """Exact divided_differences_recursive, monic_family and family_from_recurrence at N = 14
    on rational nodes build every stored Fraction with the constructor and make no call of
    a Fraction arithmetic operator; newton_interpolant's Newton pass, the oracle, makes many."""
    rng = random.Random(107)
    while True:
        nodes = rng.sample(sorted({F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(60)}), 15)
        s = Samples.from_pairs(nodes, [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in nodes])
        if 0 not in divided_differences_recursive(s).diffs:
            break
    calls = []
    for name in FRACTION_OPERATORS:
        def counted(*args, original=getattr(Fraction, name)):
            calls.append(original)
            return original(*args)
        monkeypatch.setattr(Fraction, name, counted)
    divided_differences_recursive(s)
    family = monic_family(s, 14)
    family_from_recurrence(s.grid, family.alphas)
    assert calls == []
    newton_interpolant(s, 14)
    assert len(calls) > 14


@st.composite
def exact_problems(draw):
    """(samples, n_max, q) with n_max in 0..14: int nodes, rational nodes with denominators up
    to 9 or up to 1e12, q**k grids, or alphas with a planted nu_j = 0; q of degree <= n_max."""
    n_max = draw(st.integers(0, 14))
    kind = draw(st.sampled_from(["int", "den 9", "den 1e12", "q**k", "nu = 0"]))
    top = {"int": 1, "den 9": 9, "den 1e12": 10 ** 12}.get(kind, 9)
    rationals = st.builds(F, st.integers(-60 * top, 60 * top), st.integers(1, top))
    q = Polynomial(draw(st.lists(rationals | st.integers(-9, 9), max_size=n_max + 1)))
    if kind == "q**k":
        ratio = draw(st.sampled_from([F(-3, 2), F(2, 5), F(1, 6), F(7), F(-1, 3)]))
        return ExpGridProblem(ratio, n_max).samples, n_max, q
    nodes = draw(st.lists(rationals, min_size=n_max + 2, max_size=n_max + 2, unique=True))
    values = draw(st.lists(rationals.filter(bool), min_size=n_max + 2, max_size=n_max + 2))
    if kind == "nu = 0":  # values[] are the alphas, and nu_j = 0 fixes alpha_{j+1}
        j = draw(st.integers(0, n_max))
        below = values[j - 1] if j else 0
        if below != (nodes[j + 1] - nodes[j]) * values[j]:
            values[j + 1] = values[j] ** 2 / (below - (nodes[j + 1] - nodes[j]) * values[j])
        values = family_from_recurrence(Grid(nodes), values).values
    return Samples.from_pairs(nodes, values), n_max, q


@settings(max_examples=100, deadline=None, derandomize=True)
@given(exact_problems())
@example((planted_nu_zero_samples()[0], 10, Polynomial([F(1, 2), -3, F(5, 7)])))
def test_integer_t_hats_and_expansion_are_bit_identical_to_the_fraction_routes(problem):
    """Exact build_system's T-hat_n equal t_polynomial(f, n) / nu_n by repr, its nu_n equal
    leading_nu, it raises the NuVanishes or ZeroSampleValue that the oracles predict, and
    expand's xi_k equal pairing(q, V_k) / d_k."""
    samples, n_max, q = problem
    try:
        family = monic_family(samples, n_max + 1)
    except DegenerateInterpolant:
        return
    for n in range(n_max + 1):
        if leading_nu(family, n) == 0 or 0 in samples.values[: n + 2]:
            error = NuVanishes if leading_nu(family, n) == 0 else ZeroSampleValue
            with pytest.raises(error) as err:
                build_system(family, n_max)
            assert err.value.index == (n if error is NuVanishes else samples.values.index(0))
            return
    system = build_system(family, n_max)
    for n in range(n_max + 1):
        t_n = t_polynomial(family, n)
        assert repr(system.ts[n]) == repr(t_n.divide(t_n.coefficient(n)))
        assert repr(system.nus[n]) == repr(leading_nu(family, n))
    xi = expand_in_interpolants(q, system, samples)
    assert [type(x) for x in xi] == [Fraction] * (q.degree + 1)
    assert xi == tuple(pairing(q, system.vs[k], samples) / system.diagonal[k]
                       for k in range(q.degree + 1))


def test_zero_and_constant_q_expand_on_exact_and_float_systems(worked):
    """The zero q expands to () on exact and float systems; int and constant q on an exact
    system give Fractions: 3 = 3 P-hat_0 and 1 - 2z = 3 P-hat_0 - 2 P-hat_1, P-hat_1 = z + 1."""
    samples, family = worked
    float_samples = Samples.from_pairs([0.0, 1.0, 2.0], [1.0, 2.0, 5.0])
    for s, f in ((samples, family), (float_samples, monic_family(float_samples, 2))):
        assert expand_in_interpolants(Polynomial(), build_system(f, 1), s) == ()
    system = build_system(family, 1)
    for q, expected in ((Polynomial([3]), (F(3),)), (Polynomial([F(-2, 5)]), (F(-2, 5),)),
                        (Polynomial([1, -2]), (F(3), F(-2)))):
        xi = expand_in_interpolants(q, system, samples)
        assert xi == expected and [type(x) for x in xi] == [Fraction] * len(xi)


SCALES = ((0, 0), (-300, 0), (300, 0), (0, -300), (0, 300), (-150, 150), (150, -150),
          (-20, 20), (100, 100), (-100, -100), (250, -40), (-250, 40))


def float_corpus():
    """(nodes, values, q) at n = 0..30, n + 2 nodes each: random-order rationals and the
    grid k/4, each times 10**e and with values times 10**f for every (e, f) in SCALES, and
    mixed data (the rationals as Fractions, float values), and k/4 with a zero value A_1
    and at a random s.  From Random(2501)."""
    rng = random.Random(2501)
    for n in range(31):
        rationals = rng.sample([F(p, q) for q in range(1, 8) for p in range(-40, 41)
                                if math.gcd(p, q) == 1], n + 2)
        values = [F(rng.choice([v for v in range(-30, 31) if v]), rng.randint(1, 9))
                  for _ in range(n + 2)]
        q = [float(F(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(rng.randint(0, n + 1))]
        for exact_nodes in (rationals, [F(k, 4) for k in range(n + 2)]):
            for e, f in SCALES:
                yield ([float(a) * 10.0 ** e for a in exact_nodes],
                       [float(v) * 10.0 ** f for v in values], q)
        yield rationals, list(map(float, values)), q
        for s in sorted({1, rng.randrange(1, n + 2)}):  # on k/4, A_1 = 0 makes nu_0 = 0
            zeroed = [float(v) for v in values[:s]] + [-0.0] + [float(v) for v in values[s + 1:]]
            yield [k / 4 for k in range(n + 2)], zeroed, q


def float_outcome(nodes, values, q_coeffs) -> str:
    """repr of each float pipeline layer's output, and the typed error that ends it."""
    n, out = len(nodes) - 2, []
    try:
        samples = Samples.from_pairs(nodes, values)
        family = monic_family(samples, n + 1)
        out.append(repr((family.alphas, family.phats)))
        system = build_system(family, n)
        out.append(repr((system.nus, system.ts, system.diagonal, system.columns,
                         system.node_rows, system.vs)))
        out.append(repr(biorthogonality_matrix(system, samples, n)))
        out.append(repr(expand_in_interpolants(Polynomial(q_coeffs), system, samples)))
    except BiorthopolyError as exc:
        out.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(out)


def test_float_pipeline_outputs_are_pinned():
    """sha256 over the float corpus's outcomes, captured before the float route was rewritten
    for speed: every family, system, matrix and xi, and every typed error, stays the same."""
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for case in float_corpus():
        text = float_outcome(*case)
        digest.update(text.encode() + b"\0")
        kinds[text.rpartition("\n")[2].partition(":")[0] if ":" in text else "ok"] += 1
    assert kinds == {"ok": 231, "InvalidParameter": 310, "DegenerateInterpolant": 234,
                     "NuVanishes": 31, "ZeroSampleValue": 29}
    assert digest.hexdigest() == \
        "45987a5f5b19199e4f9f7c4108e87ceae3977720ab30e49e889f6c81826b593e"


def exact_corpus():
    """(nodes, values, q) at n = 0..24, n + 2 nodes each: random-order rationals, the grids
    k/4 and 0..n + 1 under random values, the grid 0..n + 1 under q**k, and the rationals with
    a planted zero alpha_j (A_j = P_{j-1}(a_j)), a planted zero nu_j (A_{j+1} set from
    alpha_{j+1} = alpha_j / (alpha_{j-1}/alpha_j - (a_{j+1} - a_j))) and a zero value.
    From Random(2701)."""
    rng = random.Random(2701)
    for n in range(25):
        rationals = rng.sample([F(p, q) for q in range(1, 8) for p in range(-40, 41)
                                if math.gcd(p, q) == 1], n + 2)
        values = [F(rng.choice([v for v in range(-30, 31) if v]), rng.randint(1, 9))
                  for _ in range(n + 2)]
        q = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, n + 1))]
        for nodes in (rationals, [F(k, 4) for k in range(n + 2)], list(range(n + 2))):
            yield nodes, values, q
        base = rng.choice([F(2), F(1, 6), F(-3), F(3, 2), F(-5, 7)])
        yield list(range(n + 2)), [base ** k for k in range(n + 2)], q
        j = rng.randint(1, n + 1)  # alpha_j = 0
        planted = values[:j] + [newton_interpolant(make_samples(rationals[:j], values[:j]),
                                                   j - 1)(rationals[j])] + values[j + 1:]
        yield rationals, planted, q
        j = rng.randint(0, n)  # nu_j = 0, where the planted alpha_{j+1} is finite
        prefix = make_samples(rationals[: j + 1], values[: j + 1])
        alphas = divided_differences_recursive(prefix).diffs
        gap = (alphas[j - 1] / alphas[j] if j else 0) - (rationals[j + 1] - rationals[j])
        if 0 not in alphas and gap:
            omega = math.prod(rationals[j + 1] - a for a in rationals[: j + 1])
            a_next = newton_interpolant(prefix, j)(rationals[j + 1]) + alphas[j] / gap * omega
            yield rationals, values[: j + 1] + [a_next] + values[j + 2:], q
        s = rng.randrange(n + 2)
        yield rationals, values[:s] + [F(0)] + values[s + 1:], q


def exact_outcome(nodes, values, q_coeffs) -> str:
    """repr of each exact pipeline layer's output (the family's integer rows, the family
    family_from_recurrence rebuilds from its alphas, the system's stored rows, the matrix and
    expand's xi), and the typed error that ends it.  Asserts the rows' lowest-terms forms."""
    n, out = len(nodes) - 2, []
    try:
        samples = make_samples(nodes, values)
        family = monic_family(samples, n + 1)
        out.append(repr((family.alphas, family.rows)))
        assert all(k == u[-1] > 0 and math.gcd(*u) == 1 for u, k in family.rows)
        rebuilt = family_from_recurrence(samples.grid, family.alphas)
        out.append(repr((rebuilt.values, rebuilt.rows)))
        system = build_system(family, n)
        out.append(repr((system.nus, system.t_rows, system.diagonal, system.columns,
                         system.node_rows)))
        for (c, l), nu in zip(system.columns, system.nus):
            assert math.gcd(l, *c) == 1 and (l > 0) == (nu > 0)
        assert all(m > 0 and math.gcd(m, *u) == 1 for u, m in system.node_rows)
        out.append(repr(biorthogonality_matrix(system, samples, n)))
        out.append(repr(expand_in_interpolants(Polynomial(q_coeffs), system, samples)))
    except BiorthopolyError as exc:
        out.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(out)


def test_exact_pipeline_outputs_are_pinned():
    """sha256 over the exact corpus's outcomes, captured before the integer-row kernels were
    rewritten for speed: every family row, rebuilt family, system row, matrix and xi, and every
    typed error, stays the same; each column c / L, node row u / M and family row U / k is in
    lowest terms, with L of nu_m's sign, M > 0 and k = U[-1] > 0 (exact_outcome)."""
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for case in exact_corpus():
        text = exact_outcome(*case)
        digest.update(text.encode() + b"\0")
        kinds[text.rpartition("\n")[2].partition(":")[0] if ":" in text else "ok"] += 1
    assert kinds == {"ok": 100, "DegenerateInterpolant": 27, "NuVanishes": 29,
                     "ZeroSampleValue": 19}
    assert digest.hexdigest() == \
        "70fea1a3d6a461128d833dca3a2a70b29d4c16086f3df3c16c9c73fa5a6d454e"
