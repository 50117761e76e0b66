import random
from fractions import Fraction

import pytest

from biorthopoly.divided_differences import (
    Samples,
    divided_differences_recursive,
    newton_interpolant,
)
from biorthopoly.errors import DegenerateInterpolant, IndexOutOfRange
from biorthopoly.interpolation import (
    family_from_recurrence,
    lagrange_interpolant,
    monic_family,
    recurrence_step,
)
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


def test_family_from_recurrence_rejects_zero_alpha():
    with pytest.raises(DegenerateInterpolant) as err:
        family_from_recurrence(Grid([F(0), F(1)]), [F(1), F(0)])
    assert err.value.index == 1


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


def test_family_range_checks():
    s = make_samples([0, 1], [1, 2])
    with pytest.raises(IndexOutOfRange):
        monic_family(s, 2)
