import random
from fractions import Fraction
from math import factorial

import pytest

from biorthopoly.biorthogonality import build_system, leading_nu
from biorthopoly.errors import IndexOutOfRange, InvalidParameter
from biorthopoly.exponential import (
    ExpGridProblem,
    exp_alpha_closed,
    exp_interpolant_closed,
    exp_t_closed,
    exp_v_alt_eval,
    pochhammer,
    terminating_2f1,
)
from biorthopoly.interpolation import (
    divided_differences_recursive,
    monic_family,
    newton_interpolant,
)
from biorthopoly.polynomials import Polynomial, nodal_polynomial

F = Fraction

Q_CORPUS = (F(2), F(3), F(1, 2), F(-1), F(5, 3))
Z_PROBES = (F(1, 2), F(7, 3), F(-3, 2), F(10))


@pytest.mark.parametrize("bad_q", [0, 1, F(1), 0.5, 1e10])  # 0 or 1, or not exact
def test_problem_rejects_degenerate_q(bad_q):
    with pytest.raises(InvalidParameter):
        ExpGridProblem(bad_q, 3)


def test_problem_rejects_negative_degree():
    with pytest.raises(IndexOutOfRange, match="n_max must be nonnegative"):
        ExpGridProblem(F(2), -1)


def test_problem_derived_samples():
    prob = ExpGridProblem(F(3), 2)
    assert prob.samples.grid.nodes == (0, 1, 2, 3, 4)
    assert prob.samples.values == (1, 3, 9, 27, 81)


def test_pochhammer_values():
    assert pochhammer(F(3), 0) == 1
    assert pochhammer(F(-2), 3) == 0
    assert pochhammer(F(1, 2), 2) == F(3, 4)


def test_pochhammer_recursion():
    b = F(5, 3)
    for k in range(1, 6):
        assert pochhammer(b, k) == pochhammer(b, k - 1) * (b + k - 1)


def test_2f1_trivial_cases():
    assert terminating_2f1(0, F(9), F(4), F(100)) == 1
    assert terminating_2f1(3, F(9), F(4), F(0)) == 1


def test_2f1_direct_two_term_sum():
    # 1 + (-1)_1 (-1/2)_1 / ((-2)_1 1!) * (-1) = 1 + 1/4
    assert terminating_2f1(1, F(-1, 2), F(-2), F(-1)) == F(5, 4)


def test_2f1_lower_parameter_pole():
    with pytest.raises(InvalidParameter, match=r"\(c\)_2 = 0 with c = -1"):
        terminating_2f1(2, F(3), F(-1), F(1))


def test_2f1_zero_over_zero_terms_drop_out():
    # (b)_k = 0 for k >= 1 cancels the vanishing (c)_k, leaving the k=0 term
    assert terminating_2f1(3, F(0), F(0), F(5)) == 1


def test_interpolant_closed_values():
    prob = ExpGridProblem(F(2), 3)
    assert exp_interpolant_closed(prob, 2) == Polynomial([F(1), F(1, 2), F(1, 2)])
    assert exp_interpolant_closed(prob, 0) == Polynomial.constant(F(1))
    assert exp_interpolant_closed(prob, 3)(F(3)) == 8


def test_alpha_closed_values():
    assert exp_alpha_closed(ExpGridProblem(F(2), 3), 3) == F(1, 6)
    assert exp_alpha_closed(ExpGridProblem(F(7, 5), 3), 0) == 1
    assert exp_alpha_closed(ExpGridProblem(F(3), 3), 2) == 2


@pytest.mark.parametrize("q", Q_CORPUS)
def test_closed_forms_match_generic_machinery(q):
    """Interpolants, divided differences, nu and T-hat against the generic
    code paths, exactly, over the whole q corpus."""
    prob = ExpGridProblem(q, 5)
    table = divided_differences_recursive(prob.samples)
    family = monic_family(prob.samples, 6)
    system = build_system(family, 5)
    for n in range(7):
        assert exp_alpha_closed(prob, n) == table.diffs[n]
    for n in range(6):
        assert exp_interpolant_closed(prob, n) == newton_interpolant(prob.samples, n)
        assert leading_nu(family, n) == q / (q - 1)
        assert system.nus[n] == q / (q - 1)
        assert exp_t_closed(prob, n) == system.ts[n]


def test_t_closed_base_cases():
    prob = ExpGridProblem(F(2), 2)
    assert exp_t_closed(prob, 0) == Polynomial.constant(F(1))
    assert exp_t_closed(prob, 1) == Polynomial([F(2), F(1)])


@pytest.mark.parametrize("q", Q_CORPUS)
def test_t_closed_is_monic(q):
    prob = ExpGridProblem(q, 4)
    for n in range(5):
        t = exp_t_closed(prob, n)
        assert t.degree == n
        assert t.leading_coefficient() == 1


def test_v_alt_base_case():
    prob = ExpGridProblem(F(2), 2)
    z = F(1, 2)
    assert exp_v_alt_eval(prob, 0, z) == 1 / (z * (z - 1)) == -4


def test_v_alt_cross_route():
    prob = ExpGridProblem(F(2), 2)
    z = F(7, 3)
    omega3 = nodal_polynomial(prob.samples.grid, 3)
    assert exp_v_alt_eval(prob, 1, z) == exp_t_closed(prob, 1)(z) / omega3(z)
    assert exp_v_alt_eval(prob, 1, z) == F(117, 28)


@pytest.mark.parametrize("q", Q_CORPUS)
def test_v_alt_matches_t_over_omega(q):
    prob = ExpGridProblem(q, 5)
    for n in range(6):
        omega = nodal_polynomial(prob.samples.grid, n + 2)
        t_hat = exp_t_closed(prob, n)
        for z in Z_PROBES:
            assert exp_v_alt_eval(prob, n, z) == t_hat(z) / omega(z)


def test_v_alt_pole_rejection():
    prob = ExpGridProblem(F(2), 3)
    with pytest.raises(InvalidParameter, match="z = 2 is excluded for V_1"):
        exp_v_alt_eval(prob, 1, F(2))
    with pytest.raises(InvalidParameter, match="z = 0 is excluded for V_1"):
        exp_v_alt_eval(prob, 1, 0)


def test_doubling_grid_binomial_identity():
    """Interpolating 2^z on 0..n reproduces 2^m at every integer m <= n:
    the rows of Pascal's triangle sum where they should."""
    prob = ExpGridProblem(F(2), 5)
    for n in range(6):
        p = exp_interpolant_closed(prob, n)
        for m in range(n + 1):
            assert p(F(m)) == 2 ** m


def test_diagonal_closed_form():
    # d_n = -1/(nu_n alpha_n) = -((q-1)/q) * n!/(q-1)^n
    prob = ExpGridProblem(F(2), 3)
    family = monic_family(prob.samples, 4)
    system = build_system(family, 3)
    assert system.diagonal == (F(-1, 2), F(-1, 2), F(-1), F(-3))


def _random_q(rng, kind):
    """A random p/r, r > 0, of the kind: negative, 0 < |q| < 1 or |q| > 1 (never 0 or 1)."""
    while True:
        p, r = rng.randint(1, 40), rng.randint(1, 12)
        q = F(-p if kind == "negative" or rng.random() < 0.5 else p, r)
        if q != 1 and (kind == "negative" and q < 0 or kind == "inside" and abs(q) < 1
                       or kind == "outside" and abs(q) > 1):
            return q


@pytest.mark.parametrize("kind", ["negative", "inside", "outside"])
def test_closed_forms_match_their_series_oracles(kind):
    """At off-grid rational z and n = 0..30, the integer-row closed forms equal their series
    summed by the generic oracles: P_n(z) = sum_k (-z)_k (1-q)**k / k!, T-hat_n(z) =
    (n+1)!/(q-1)**n 2F1(-n, -z; -1-n; 1-q) and V_n(z) = 2F1(-n, -z; 2-z; q) / ((1-q)**n z(z-1)).
    (-1-n)_k has no zero factor for k <= n, so the T-hat series meets no pole in c."""
    rng = random.Random(f"closed-{kind}")
    for n in range(31):
        q = _random_q(rng, kind)
        prob = ExpGridProblem(q, n)
        p_n, t_n = exp_interpolant_closed(prob, n), exp_t_closed(prob, n)
        for _ in range(3):
            z = F(rng.randint(-90, 90), rng.randint(2, 9))
            if z.denominator == 1:
                z += F(1, 2)
            series = sum(pochhammer(-z, k) * (1 - q) ** k / factorial(k) for k in range(n + 1))
            assert p_n(z) == series
            assert t_n(z) == factorial(n + 1) / (q - 1) ** n * terminating_2f1(n, -z, -1 - n, 1 - q)
            assert exp_v_alt_eval(prob, n, z) == (terminating_2f1(n, -z, 2 - z, q)
                                                  / ((1 - q) ** n * z * (z - 1)))
        assert t_n.degree == n and t_n.leading_coefficient() == 1
        assert all(type(c) is Fraction for c in p_n.coeffs + t_n.coeffs)
    prob = ExpGridProblem(_random_q(rng, kind), 0)
    assert repr(exp_interpolant_closed(prob, 0)) == repr(exp_t_closed(prob, 0)) == (
        "Polynomial([Fraction(1, 1)])")
