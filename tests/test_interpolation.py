import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from biorthopoly.divided_differences import (
    Samples,
    divided_difference_sum,
    divided_differences_recursive,
    newton_interpolant,
)
from biorthopoly.errors import DegenerateInterpolant, IndexOutOfRange, InvalidParameter
from biorthopoly.interpolation import (
    family_from_recurrence,
    integer_step,
    lagrange_interpolant,
    monic_family,
    recurrence_step,
)
from biorthopoly.numerics import over_lcm
from biorthopoly.polynomials import Grid, Polynomial, nodal_polynomial

F = Fraction


def make_samples(nodes, values):
    return Samples.from_pairs([F(a) for a in nodes], [F(v) for v in values])


def nondegenerate_samples(rng, n_nodes):
    """Random samples whose divided differences are all nonzero."""
    while True:
        nodes = rng.sample(range(-10, 11), n_nodes)
        values = [rng.choice([v for v in range(-9, 10) if v != 0])
                  for _ in nodes]
        s = make_samples(nodes, values)
        if all(d != 0 for d in divided_differences_recursive(s).diffs):
            return s


def test_lagrange_worked_example():
    s = make_samples([0, 1, 2], [1, 2, 5])
    assert lagrange_interpolant(s, 2) == Polynomial([F(1), F(0), F(1)])


def test_lagrange_identity_data():
    s = make_samples([0, 1], [0, 1])
    assert lagrange_interpolant(s, 1) == Polynomial([F(0), F(1)])


def test_lagrange_doubling_data():
    s = make_samples([0, 1, 2, 3], [1, 2, 4, 8])
    assert lagrange_interpolant(s, 3) == Polynomial([F(1), F(5, 6), F(0), F(1, 6)])


def test_routes_agree_random():
    rng = random.Random(17)
    for _ in range(25):
        s = nondegenerate_samples(rng, rng.randint(2, 9))
        for n in range(len(s)):
            assert newton_interpolant(s, n) == lagrange_interpolant(s, n)


def test_monic_family_worked_example():
    fam = monic_family(make_samples([0, 1, 2], [1, 2, 5]), 2)
    assert fam.alphas == (1, 1, 1)
    assert fam.phats == (
        Polynomial([F(1)]),
        Polynomial([F(1), F(1)]),
        Polynomial([F(1), F(0), F(1)]),
    )


def test_monic_family_constant_data_degenerates():
    with pytest.raises(DegenerateInterpolant) as err:
        monic_family(make_samples([0, 1], [1, 1]), 1)
    assert err.value.index == 1


@pytest.mark.parametrize("build", [monic_family, newton_interpolant])
def test_nodes_equal_as_floats_are_named(build):
    """Distinct numbers that round to one float pass Grid's check; the float triangle then
    names them in a typed error, not a bare ZeroDivisionError."""
    with pytest.raises(InvalidParameter, match=r"^nodes a_0 = 3/7 and a_1 = 0.42857142857142855 "
                                               r"are equal as floats$"):
        build(Samples.from_pairs([F(3, 7), 3 / 7, 1.0], [1.0, 2.0, 3.0]), 2)
    with pytest.raises(InvalidParameter, match=r"^nodes a_1 = 3/7 and a_3 = 0.42857142857142855 "):
        build(Samples.from_pairs([1.0, F(3, 7), 2.0, 3 / 7], [1.0, 2.0, 3.0, 4.0]), 2)


def test_monic_family_doubling_data():
    s = make_samples([0, 1, 2, 3], [1, 2, 4, 8])
    fam = monic_family(s, 3)
    assert fam.alphas == (1, 1, F(1, 2), F(1, 6))
    for n in range(4):
        phat = fam.phats[n]
        assert phat.degree == n
        assert phat.leading_coefficient() == 1
        for k in range(n + 1):
            assert fam.alphas[n] * phat(s.grid[k]) == s.values[k]


def test_recurrence_step_worked_example():
    one = Polynomial.constant(F(1))
    step0 = recurrence_step(one, Polynomial.zero(), F(0), F(1), 0)
    assert step0 == Polynomial([F(1), F(1)])
    step1 = recurrence_step(step0, one, F(1), F(1), F(1))
    assert step1 == Polynomial([F(1), F(0), F(1)])


def test_recurrence_step_degenerate_tail():
    p = Polynomial([F(2), F(1)])
    out = recurrence_step(p, Polynomial.zero(), F(3), F(5), 0)
    assert out == (Polynomial([F(-3), F(1)]) + Polynomial.constant(F(5))) * p


def test_family_satisfies_recurrence_and_rel1():
    """Each family obeys both the three-term step and the nodal-difference
    identity P-hat_{n+1} - (alpha_n/alpha_{n+1}) P-hat_n = omega_{n+1}."""
    rng = random.Random(19)
    for _ in range(15):
        s = nondegenerate_samples(rng, rng.randint(3, 9))
        fam = monic_family(s, s.last_index)
        for n in range(s.last_index):
            ratio_n = fam.alphas[n] / fam.alphas[n + 1]
            prev = fam.phats[n - 1] if n else Polynomial.zero()
            stepped = recurrence_step(fam.phats[n], prev, fam.grid[n],
                                      ratio_n, fam.alpha_ratio(n))
            assert stepped == fam.phats[n + 1]
            assert fam.phats[n + 1] - fam.phats[n].scale(ratio_n) == \
                nodal_polynomial(fam.grid, n + 1)


def test_family_from_recurrence_worked_example():
    fam = family_from_recurrence(Grid([F(0), F(1), F(2)]), [F(1), F(1), F(1)])
    assert fam.values == (1, 2, 5)
    assert fam.phats[2] == Polynomial([F(1), F(0), F(1)])


def test_family_from_recurrence_two_nodes():
    c, d = F(3, 2), F(-2)
    fam = family_from_recurrence(Grid([F(0), F(4)]), [c, d])
    assert fam.values == (c, c + d * 4)


def test_family_from_recurrence_doubling_data():
    fam = family_from_recurrence(
        Grid([F(0), F(1), F(2), F(3)]), [F(1), F(1), F(1, 2), F(1, 6)])
    assert fam.values == (1, 2, 4, 8)


def family_fields(family):
    return family.alphas, family.phats, family.rows, family.values


def test_family_from_recurrence_int_alphas_stay_exact():
    """int alphas are exact data, held as Fractions: the family equals that of their Fraction
    twins by repr (int / int in the alpha ratios gave float coefficients)."""
    ints = family_from_recurrence(Grid([0, 1, 2]), [1, 2, 3])
    twins = family_from_recurrence(Grid([0, 1, 2]), [F(1), F(2), F(3)])
    assert repr(family_fields(ints)) == repr(family_fields(twins))
    assert ints.alphas == (F(1), F(2), F(3)) and type(ints.alphas[0]) is Fraction
    assert ints.phats[2] == Polynomial([F(1, 3), F(-1, 3), 1])


def test_exact_builders_keep_the_integer_rows_of_their_phats():
    """On exact data monic_family and family_from_recurrence (Fraction or int alphas) keep
    rows[n] = (U_n, k_n) on ints in lowest terms, k_n = U_n[-1] > 0, with Fraction(c, k_n) over
    U_n equal to P-hat_n's coefficients.  Float data and mixed data (Fraction nodes with float
    values, or float nodes with Fraction alphas) keep none."""
    rng = random.Random(137)
    for size in range(2, 16):
        s = nondegenerate_samples(rng, size)
        fam = monic_family(s, s.last_index)
        ints = [rng.choice([a for a in range(-9, 10) if a]) for _ in range(size)]
        for f in (fam, family_from_recurrence(s.grid, fam.alphas),
                  family_from_recurrence(s.grid, ints)):
            assert len(f.rows) == len(f.phats)
            for (row, k), p in zip(f.rows, f.phats):
                assert all(type(c) is int for c in (*row, k))
                assert k == row[-1] > 0 and math.gcd(*row) == 1
                assert tuple(F(c, k) for c in row) == p.coeffs
        floats = list(map(float, s.values))
        for nodes in (list(map(float, s.grid.nodes)), s.grid.nodes):
            f = monic_family(Samples.from_pairs(nodes, floats), s.last_index)
            assert f.rows is None and family_from_recurrence(f.grid, f.alphas).rows is None
        assert family_from_recurrence(Grid(map(float, s.grid.nodes)), fam.alphas).rows is None


def test_family_from_recurrence_rejects_zero_alpha():
    with pytest.raises(DegenerateInterpolant) as err:
        family_from_recurrence(Grid([F(0), F(1)]), [F(1), F(0)])
    assert err.value.index == 1


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_family_from_recurrence_rejects_non_finite_float_alpha(bad):
    """As monic_family does; an inf or nan alpha used to give inf and nan values and P-hats."""
    with pytest.raises(InvalidParameter, match="alpha_1"):
        family_from_recurrence(Grid([0.0, 1.0, 2.0]), [1.0, bad, 2.0])
    with pytest.raises(InvalidParameter, match="alpha_1"):  # the first bad alpha is named
        family_from_recurrence(Grid([0.0, 1.0, 2.0]), [1.0, bad, 0.0])
    with pytest.raises(DegenerateInterpolant) as err:
        family_from_recurrence(Grid([0.0, 1.0, 2.0]), [1.0, 0.0, bad])
    assert err.value.index == 1


def test_family_from_recurrence_rejects_overflow_from_finite_float_alphas():
    """Finite alphas whose float recurrence or implied-value sum overflows raise, naming the first
    non-finite P-hat coefficient, else the first implied value; they used to return P-hat_2
    [nan, 0.0, 1] and the values (1.0, 1.0, inf) silently."""
    grid = Grid([0.0, 1e200, 2e200])
    with pytest.raises(InvalidParameter, match=r"P-hat_2 coefficient 0 = nan is not finite"):
        family_from_recurrence(grid, [1.0, 1e-300, 1.0])
    with pytest.raises(InvalidParameter, match=r"implied value A_2 = inf is not finite"):
        family_from_recurrence(grid, [1.0, 1.0, 1.0])
    assert family_from_recurrence(grid, [1.0, 1.0, 1.0], 1).values == (1.0, 1e200)


def test_integer_step_matches_recurrence_step_on_both_row_kinds():
    """On coefficient rows and on node-value rows over one denominator, integer_step gives
    P-hat_{n+1} in lowest terms: recurrence_step's coefficients and the values at the nodes.
    The nodes a/6 make D = 6, so the scale D common is exercised."""
    rng = random.Random(13)
    for size in range(2, 10):
        while True:
            nodes = [F(a, 6) for a in rng.sample(range(-30, 31), size)]
            s = Samples.from_pairs(nodes, [F(rng.choice([-5, -2, 1, 3, 7]), rng.randint(1, 5))
                                           for _ in nodes])
            if 0 not in divided_differences_recursive(s).diffs:
                break
        fam, (b, big_d) = monic_family(s, size - 1), over_lcm(nodes)
        coeff_rows = [([], 1)] + [over_lcm(p.coeffs) for p in fam.phats]
        value_rows = [([0] * size, 1)] + [over_lcm([p(a) for a in nodes]) for p in fam.phats]
        for n in range(size - 1):
            ratio, ratio_prev = F(fam.alphas[n], fam.alphas[n + 1]), fam.alpha_ratio(n)
            u, m = integer_step(coeff_rows[n + 1], coeff_rows[n], ratio, ratio_prev, big_d, b[n],
                                lambda u, v: zip([big_d] * (n + 2), [0, *u], [0, *v, 0],
                                                 [*u, 0], [*v, 0, 0]))
            prev = fam.phats[n - 1] if n else Polynomial.zero()
            expected = recurrence_step(fam.phats[n], prev, nodes[n], ratio, ratio_prev)
            assert [F(x, m) for x in u] == list(expected.coeffs) == list(fam.phats[n + 1].coeffs)
            assert m > 0 and math.gcd(m, *u) == 1
            u, m = integer_step(value_rows[n + 1], value_rows[n], ratio, ratio_prev, big_d, b[n],
                                lambda u, v: zip(b, u, v, u, v))
            assert [F(x, m) for x in u] == [fam.phats[n + 1](a) for a in nodes]
            assert m > 0 and math.gcd(m, *u) == 1


def test_family_from_recurrence_needs_enough_nodes():
    with pytest.raises(IndexOutOfRange):
        family_from_recurrence(Grid([F(0)]), [F(1), F(1)])


def test_round_trip_both_directions():
    rng = random.Random(23)
    for _ in range(15):
        s = nondegenerate_samples(rng, rng.randint(2, 8))
        fam = monic_family(s, s.last_index)
        rebuilt = family_from_recurrence(s.grid, fam.alphas)
        assert rebuilt.values == s.values
        assert rebuilt.phats == fam.phats
        # and back: divided differences of the implied values are the alphas
        table = divided_differences_recursive(rebuilt.samples)
        assert table.diffs == fam.alphas


def test_recurrence_round_trip_is_exact_by_repr():
    """The builders hand their integer rows to the family, which makes every exact P-hat by one
    rule: family_from_recurrence(grid, alphas) gives back monic_family's alphas, P-hats (Fraction(1)
    as P-hat_0 and as leading coefficients), rows and values, equal by repr."""
    rng = random.Random(211)
    checked = 0
    for size in [*range(1, 15)] * 15:
        nodes = {F(a, rng.randint(1, 9)) for a in rng.sample(range(-40, 41), size)}
        values = [F(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9)) for _ in nodes]
        s = Samples.from_pairs(sorted(nodes, key=lambda _: rng.random()), values)
        if 0 in divided_differences_recursive(s).diffs:
            continue
        fam = monic_family(s, s.last_index)
        rebuilt = family_from_recurrence(s.grid, fam.alphas)
        assert repr(family_fields(rebuilt)) == repr(family_fields(fam))
        assert all(type(c) is Fraction for p in rebuilt.phats for c in p.coeffs)
        checked += 1
    assert checked >= 150


@pytest.mark.parametrize("kind", ["float", "exact-nodes", "exact-values"])
def test_float_recurrence_round_trip_is_monic_familys_by_repr(kind):
    """Float and mixed data: the rebuilt P-hat_0 is alpha_0 / alpha_0 and each leading coefficient
    a_n ** 0, 1.0 where monic_family has 1.0, never int 1.  Where the float arithmetic is exact
    (the first three cases) the round trip equals the family by repr; on random data every
    coefficient has monic_family's type."""
    rng = random.Random(401)
    cases = [([0, 1, 3], [1, 2, 7]), ([0, 1, 2], [1, 2, 4]), ([0, -1, 2], [4, 2, 1])]
    cases += [(s.grid.nodes, s.values) for s in (nondegenerate_samples(rng, n) for n in range(2, 12))]
    for i, (nodes, values) in enumerate(cases):
        nodes = [float(a) if kind != "exact-nodes" else F(a) for a in nodes]
        values = [float(v) if kind != "exact-values" else F(v) for v in values]
        fam = monic_family(Samples.from_pairs(nodes, values), len(nodes) - 1)
        rebuilt = family_from_recurrence(fam.grid, fam.alphas)
        types = [[type(c) for c in p.coeffs] for p in fam.phats]
        assert [[type(c) for c in p.coeffs] for p in rebuilt.phats] == types
        assert all(t[-1] is (Fraction if n == 0 and kind == "exact-values" else float)
                   for n, t in enumerate(types))
        if i < 3:  # exact in floats: the values too, where they are floats on both sides
            assert repr((rebuilt.alphas, rebuilt.phats, rebuilt.rows)) == repr(
                (fam.alphas, fam.phats, fam.rows))
            assert kind == "exact-values" or repr(rebuilt.values) == repr(fam.values)


def test_family_range_checks():
    s = make_samples([0, 1], [1, 2])
    with pytest.raises(IndexOutOfRange):
        monic_family(s, 2)


EXACT_SCALARS = st.one_of(st.integers(-40, 40),
                          st.fractions(-50, 50, max_denominator=9),
                          st.fractions(-3, 3, max_denominator=10**12))


@st.composite
def exact_samples(draw):
    """N = 0..14: int nodes, negative and large-denominator rationals; zero values and zero
    divided differences included."""
    nodes = draw(st.lists(EXACT_SCALARS, min_size=1, max_size=15, unique=True))
    values = draw(st.lists(EXACT_SCALARS, min_size=len(nodes), max_size=len(nodes)))
    return Samples.from_pairs(nodes, values), draw(st.integers(0, len(nodes) - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exact_samples())
def test_integer_family_routes_match_the_fraction_oracles(drawn):
    """On exact data the integer routes equal the Fraction-loop oracles: the table is
    divided_difference_sum at every k, P-hat_n is newton_interpolant(s, n) / alpha_n,
    family_from_recurrence gives back the values and the P-hats, and DegenerateInterpolant
    names the first zero divided difference."""
    s, n_max = drawn
    diffs = divided_differences_recursive(s).diffs
    assert diffs == tuple(divided_difference_sum(s, k) for k in range(len(s)))
    zeros = [n for n, alpha in enumerate(diffs[: n_max + 1]) if alpha == 0]
    if zeros:
        for build in (lambda: monic_family(s, n_max),
                      lambda: family_from_recurrence(s.grid, diffs, n_max)):
            with pytest.raises(DegenerateInterpolant) as err:
                build()
            assert err.value.index == zeros[0]
        return
    fam = monic_family(s, n_max)
    assert fam.alphas == diffs[: n_max + 1]
    assert fam.phats == tuple(newton_interpolant(s, n).divide(alpha)
                              for n, alpha in enumerate(fam.alphas))
    rebuilt = family_from_recurrence(s.grid, fam.alphas)
    assert rebuilt.values == s.values[: n_max + 1] and rebuilt.phats == fam.phats
    assert all(type(c) is Fraction for p in fam.phats + rebuilt.phats for c in p.coeffs)


def scalar_table(nodes, values):
    """The recursive triangle's top edge by plain scalar arithmetic."""
    column, top = list(values), [values[0]]
    for j in range(1, len(column)):
        column = [(column[i + 1] - column[i]) / (nodes[i + j] - nodes[i])
                  for i in range(len(column) - 1)]
        top.append(column[0])
    return tuple(top)


def scalar_recurrence(nodes, alphas):
    """recurrence_step from P-hat_0 = alpha_0 / alpha_0 (1.0 for a float alpha_0, as monic_family
    has it) and A_n = sum_s alpha_s omega_s(a_n), in scalars."""
    phats, previous = [Polynomial.constant(alphas[0] / alphas[0])], Polynomial.zero()
    for n in range(len(alphas) - 1):
        ratio_nm1 = 0 if n == 0 else alphas[n - 1] / alphas[n]
        phats.append(recurrence_step(phats[-1], previous, nodes[n], alphas[n] / alphas[n + 1],
                                     ratio_nm1))
        previous = phats[-2]
    values = []
    for n, a_n in enumerate(nodes[: len(alphas)]):
        value, omega = 0, 1
        for a_s, alpha in zip(nodes[: n + 1], alphas):
            value, omega = value + alpha * omega, omega * (a_n - a_s)
        values.append(value)
    return tuple(values), tuple(phats)


@pytest.mark.parametrize("kind", ["float", "exact-nodes", "exact-values"])
def test_float_and_mixed_family_routes_are_the_scalar_loops(kind):
    """Data holding a float keep the scalar routes bit for bit: the table, every P-hat_n and
    the recurrence round trip equal plain scalar loops by repr.  Mixed data are Fraction nodes
    with float values, or float nodes with Fraction values."""
    rng = random.Random(131)
    for size in range(1, 19):
        nodes = rng.sample(sorted({F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(60)}),
                           size)
        values = [F(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9)) for _ in nodes]
        if kind != "exact-nodes":
            nodes = list(map(float, nodes))
        if kind != "exact-values":
            values = list(map(float, values))
        s = Samples.from_pairs(nodes, values)
        table = divided_differences_recursive(s).diffs
        assert repr(table) == repr(scalar_table(s.grid.nodes, s.values))
        if 0 in table:
            continue
        fam = monic_family(s, s.last_index)
        assert repr(fam.phats) == repr(tuple(newton_interpolant(s, n).divide(alpha)
                                             for n, alpha in enumerate(fam.alphas)))
        rebuilt = family_from_recurrence(s.grid, fam.alphas)
        assert repr((rebuilt.values, rebuilt.phats)) == repr(scalar_recurrence(s.grid.nodes,
                                                                               fam.alphas))
        assert all(type(c) is float for p in fam.phats[1:] for c in p.coeffs)
