import random
from fractions import Fraction

import pytest

from biorthopoly.interpolation import (
    Samples,
    divided_difference_sum,
    divided_differences_recursive,
    newton_interpolant,
)
from biorthopoly.errors import IndexOutOfRange
from biorthopoly.polynomials import Grid, Polynomial, nodal_polynomial

F = Fraction


def make_samples(nodes, values):
    return Samples.from_pairs([F(a) for a in nodes], [F(v) for v in values])


def random_samples(rng, n_nodes):
    nodes = rng.sample(range(-10, 11), n_nodes)
    values = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in nodes]
    return make_samples(nodes, values)


def test_samples_length_mismatch():
    with pytest.raises(ValueError):
        make_samples([0, 1], [1])


def test_table_quadratic_data():
    table = divided_differences_recursive(make_samples([0, 1, 2], [1, 2, 5]))
    assert table.diffs == (1, 1, 1)


def test_table_constant_data():
    table = divided_differences_recursive(make_samples([0, 1], [7, 7]))
    assert table.diffs == (7, 0)


def test_table_doubling_data():
    table = divided_differences_recursive(make_samples([0, 1, 2, 3], [1, 2, 4, 8]))
    assert table.diffs == (1, 1, F(1, 2), F(1, 6))


def test_sum_route_values():
    s = make_samples([0, 1, 2], [1, 2, 5])
    # 1/2 + 2/(-1) + 5/2
    assert divided_difference_sum(s, 2) == 1
    assert divided_difference_sum(s, 0) == s.values[0]
    s8 = make_samples([0, 1, 2, 3], [1, 2, 4, 8])
    assert divided_difference_sum(s8, 3) == F(1, 6)


def test_sum_route_range_check():
    s = make_samples([0, 1], [1, 2])
    with pytest.raises(IndexOutOfRange):
        divided_difference_sum(s, 2)


def test_routes_agree_on_random_samples():
    rng = random.Random(7)
    for _ in range(30):
        s = random_samples(rng, rng.randint(1, 9))
        table = divided_differences_recursive(s)
        for k in range(len(s)):
            assert table.diffs[k] == divided_difference_sum(s, k)


def test_newton_interpolant_worked_example():
    s = make_samples([0, 1, 2], [1, 2, 5])
    assert newton_interpolant(s, 2) == Polynomial([F(1), F(0), F(1)])
    assert newton_interpolant(s, 0) == Polynomial.constant(F(1))


def test_newton_interpolant_doubling_data():
    s = make_samples([0, 1, 2, 3], [1, 2, 4, 8])
    assert newton_interpolant(s, 2) == Polynomial([F(1), F(1, 2), F(1, 2)])


def test_newton_interpolant_range_check():
    s = make_samples([0, 1], [1, 2])
    with pytest.raises(IndexOutOfRange):
        newton_interpolant(s, 2)


def test_interpolation_conditions_random():
    rng = random.Random(11)
    for _ in range(20):
        s = random_samples(rng, rng.randint(2, 9))
        for n in range(len(s)):
            p = newton_interpolant(s, n)
            for k in range(n + 1):
                assert p(s.grid[k]) == s.values[k]


def test_monic_polynomial_differences():
    """[a_0..a_k] of a monic degree-k polynomial is 1, and 0 over more nodes."""
    rng = random.Random(13)
    for _ in range(10):
        nodes = [F(a) for a in rng.sample(range(-8, 9), 7)]
        k = rng.randint(1, 5)
        monic = nodal_polynomial(Grid(nodes), k)  # any monic degree k will do
        values = [monic(a) for a in nodes]
        table = divided_differences_recursive(Samples.from_pairs(nodes, values))
        assert table.diffs[k] == 1
        for m in range(k + 1, 7):
            assert table.diffs[m] == 0


def test_float_mode_runs_same_code():
    s = Samples.from_pairs([0.0, 1.0, 2.0], [1.0, 2.0, 5.0])
    table = divided_differences_recursive(s)
    assert table.diffs == (1.0, 1.0, 1.0)
