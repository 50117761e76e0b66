from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from biorthopoly.errors import IndexOutOfRange, InvalidParameter
from biorthopoly.polynomials import (
    Grid,
    Polynomial,
    nodal_derivative_at,
    nodal_polynomial,
    nodal_weights,
)

F = Fraction

coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
coeff_lists = st.lists(coeff, max_size=7)


def poly(*coeffs):
    return Polynomial([F(c) for c in coeffs])


def test_eval_quadratic():
    assert poly(1, 0, 1)(F(2)) == 5


def test_eval_zero_polynomial():
    assert Polynomial.zero()(F(17)) == 0


def test_eval_linear():
    assert poly(3, 1)(F(1)) == 4


def test_eval_accepts_complex():
    p = poly(1, 0, 1)
    assert p(1j) == 0j


def test_trailing_zeros_stripped():
    assert Polynomial([F(1), F(2), F(0), F(0)]).coeffs == (1, 2)
    assert not Polynomial([F(0), F(0)]).coeffs


def test_degree_conventions():
    assert Polynomial.zero().degree < 0
    assert Polynomial.constant(F(4)).degree == 0
    assert poly(0, 0, 0, 2).degree == 3


def test_coefficient_out_of_range_is_zero():
    assert poly(1, 2).coefficient(5) == 0


def test_mul_difference_of_squares():
    assert poly(1, 1) * poly(-1, 1) == poly(-1, 0, 1)


def test_sub_to_zero():
    p = poly(1, 0, 1)
    assert not (p - p).coeffs


def test_scale():
    assert poly(1, 1).scale(F(3)) == poly(3, 3)
    assert 3 * poly(1, 1) == poly(3, 3)


def test_divide_keeps_leading_coefficient_exact():
    # 49.0 * (1/49.0) != 1.0, so monic normalization must divide
    p = Polynomial([2.0, 49.0])
    assert p.divide(49.0).leading_coefficient() == 1.0


@given(coeff_lists, coeff_lists)
def test_mul_degree_adds(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    if not pa.coeffs or not pb.coeffs:
        assert not (pa * pb).coeffs
    else:
        assert (pa * pb).degree == pa.degree + pb.degree


@given(coeff_lists, coeff_lists, coeff)
def test_eval_is_ring_homomorphism(a, b, x):
    pa, pb = Polynomial(a), Polynomial(b)
    assert (pa + pb)(x) == pa(x) + pb(x)
    assert (pa * pb)(x) == pa(x) * pb(x)


def test_derivative():
    assert poly(5, 3, 0, 2).derivative() == poly(3, 0, 6)
    assert not Polynomial.constant(F(4)).derivative().coeffs


def test_deflate_exact_root():
    p = poly(-1, 0, 1)  # (z-1)(z+1)
    quotient, remainder = p.deflate(F(1))
    assert quotient == poly(1, 1)
    assert remainder == 0


@given(coeff_lists, coeff)
def test_deflate_remainder_is_value(coeffs, root):
    p = Polynomial(coeffs)
    quotient, remainder = p.deflate(root)
    assert remainder == p(root)
    assert quotient * Polynomial((-root, 1)) + Polynomial.constant(remainder) == p


def test_grid_rejects_duplicates():
    with pytest.raises(ValueError):
        Grid([F(0), F(1), F(0)])


def test_grid_names_the_first_equal_pair_of_nodes(monkeypatch):
    """Distinct nodes cost one set and no Fraction comparison; after a collision the pairwise
    scan names the first equal pair in (i, j) order, across Fraction and float alike."""
    with pytest.raises(ValueError, match=r"distinct: a_0 == a_3 == 1$"):
        Grid([1, 2, 2, 1])
    with pytest.raises(ValueError, match=r"distinct: a_1 == a_3 == 1/2$"):
        Grid([0, F(1, 2), 3, 0.5, 3])
    with pytest.raises(ValueError, match=r"distinct: a_0 == a_2 == 0$"):
        Grid([0, 1, -0.0])
    compared = []
    with monkeypatch.context() as m:
        m.setattr(F, "__eq__", lambda x, y, eq=F.__eq__: compared.append((x, y)) or eq(x, y))
        assert len(Grid([F(k, 7) for k in range(62)])) == 62
    assert compared == []


def test_grid_accepts_nan_nodes():
    """nan equals no node, itself included, so it passes the distinctness check: twice as one
    object too, which the set counts once and the pairwise scan then clears."""
    nan = float("nan")
    for nodes in ([0.0, nan, 1.0, float("nan")], [nan, 2.0, nan]):
        assert Grid(nodes).nodes == tuple(nodes)


def test_grid_prefix(monkeypatch):
    """A prefix Grid(g.nodes[:k]) is checked again: the set of distinct nodes hashes them apart,
    so no Fraction comparison is made."""
    g = Grid([F(0), F(1), F(2), F(1, 2)])
    compared = []
    with monkeypatch.context() as m:
        m.setattr(F, "__eq__", lambda x, y, eq=F.__eq__: compared.append((x, y)) or eq(x, y))
        prefixes = [Grid(g.nodes[:k]) for k in range(len(g) + 1)]
    assert compared == []
    assert [p.nodes for p in prefixes] == [g.nodes[:k] for k in range(len(g) + 1)]
    assert prefixes[2].nodes == (0, 1)
    with pytest.raises(AttributeError):
        prefixes[2].nodes = ()


def test_nodal_polynomial_cases():
    g = Grid([F(0), F(1), F(2)])
    assert nodal_polynomial(g, 0) == Polynomial.constant(1)
    assert nodal_polynomial(g, 2) == poly(0, -1, 1)
    assert nodal_polynomial(g, 3) == poly(0, 2, -3, 1)


def test_nodal_polynomial_needs_enough_nodes():
    with pytest.raises(IndexOutOfRange):
        nodal_polynomial(Grid([F(0), F(1)]), 3)


def test_nodal_polynomial_root_pattern():
    g = Grid([F(0), F(1), F(2), F(5)])
    omega = nodal_polynomial(g, 3)
    for i in range(3):
        assert omega(g[i]) == 0
    assert omega(g[3]) != 0


@pytest.mark.parametrize("nodes, k_plus_1, s, expected", [
    ((0, 1, 2), 3, 0, 2),
    ((0, 1, 2), 3, 1, -1),
    ((0, 1), 2, 0, -1),
])
def test_nodal_derivative_values(nodes, k_plus_1, s, expected):
    g = Grid([F(a) for a in nodes])
    assert nodal_derivative_at(g, k_plus_1, s) == expected


def test_nodal_derivative_index_checks():
    g = Grid([F(0), F(1)])
    with pytest.raises(IndexOutOfRange):
        nodal_derivative_at(g, 3, 0)
    with pytest.raises(IndexOutOfRange):
        nodal_derivative_at(g, 2, 2)


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=7, unique=True))
def test_nodal_derivative_matches_formal_derivative(nodes):
    """The product over i != s must agree with differentiating omega_{k+1}."""
    g = Grid([F(a) for a in nodes])
    for k_plus_1 in range(1, len(nodes) + 1):
        formal = nodal_polynomial(g, k_plus_1).derivative()
        for s in range(k_plus_1):
            assert nodal_derivative_at(g, k_plus_1, s) == formal(g[s])


def test_nodal_weights_extend_a_prefix():
    nodes = (0.25, -1.5, 3.0, 0.1, 7.25, -2.0)
    for k in range(len(nodes) + 1):
        extended = nodal_weights(nodes, nodal_weights(nodes[:k]))
        assert extended == nodal_weights(nodes)
    assert nodal_weights(nodes) == tuple(nodal_derivative_at(nodes, len(nodes), s)
                                         for s in range(len(nodes)))


def test_nodal_weights_reject_underflow():
    # (0 - 1e-300) * (0 - 2e-300) is below the smallest double
    with pytest.raises(InvalidParameter):
        nodal_weights((0.0, 1e-300, 2e-300))
