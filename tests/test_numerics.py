import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from biorthopoly import Circle, ExpGridProblem, Samples, divided_differences_recursive
from biorthopoly.errors import InvalidParameter
from biorthopoly.numerics import (
    EXACT,
    FLOAT,
    approx_equal,
    check_finite,
    format_scalar,
    is_exact,
    parse_scalar,
    reduced,
)

nonzero_fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=50).filter(lambda x: x != 0)
small_fractions = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)),
    ("-1/2", Fraction(-1, 2)),
    ("  4/6 ", Fraction(2, 3)),
    ("0.25", Fraction(1, 4)),
])
def test_parse_scalar_exact(text, value):
    assert parse_scalar(text, EXACT) == value


def test_parse_scalar_float_mode():
    x = parse_scalar("1/3", FLOAT)
    assert isinstance(x, float) and abs(x - 1 / 3) < 1e-15


def test_parse_scalar_rejects_garbage():
    with pytest.raises(InvalidParameter):
        parse_scalar("x")


def test_parse_scalar_float_overflow():
    with pytest.raises(InvalidParameter):
        parse_scalar("1e400", FLOAT)
    with pytest.raises(InvalidParameter):
        parse_scalar(f"-{10 ** 400}/3", FLOAT)
    assert parse_scalar("1e400", EXACT) == 10 ** 400


def test_parse_scalar_zero_denominator():
    with pytest.raises(InvalidParameter, match="'1/0' has a zero denominator"):
        parse_scalar("1/0")


@pytest.mark.parametrize("value, text", [
    (Fraction(3), "3"),
    (Fraction(-1, 2), "-1/2"),
    (5, "5"),
    (0.25, "0.25"),
])
def test_format_scalar(value, text):
    assert format_scalar(value) == text


@given(small_fractions)
def test_parse_format_round_trip(x):
    assert parse_scalar(format_scalar(x), EXACT) == x


def test_check_finite_names_the_first_inf_or_nan():
    """A finite row, floats or exact values, passes without building a message; otherwise the
    message names the first inf or nan, by index and value."""
    def message(s, x):
        raise AssertionError("message built for a finite row")

    check_finite([1.0, -2.5e300, 0.0, Fraction(1, 3), 7], message)
    check_finite([], message)
    with pytest.raises(InvalidParameter, match=r"^x_2 = nan$"):
        check_finite([1.0, 2.0, math.nan, math.inf], lambda s, x: f"x_{s} = {x}")
    with pytest.raises(InvalidParameter, match=r"^x_0 = -inf$"):
        check_finite((-math.inf,), lambda s, x: f"x_{s} = {x}")


def test_is_exact():
    assert is_exact(3)
    assert is_exact(Fraction(1, 2))
    assert not is_exact(0.5)
    assert not is_exact(True)


class IntSubclass(int):
    pass


class FloatSubclass(float):
    pass


@pytest.mark.parametrize("x, exact", [
    (3, True), (True, False), (Fraction(1, 2), True), (0.5, False), (IntSubclass(3), True),
    (FloatSubclass(0.5), False), (1 + 2j, False)],
    ids=["int", "bool", "Fraction", "float", "int subclass", "float subclass", "complex"])
def test_is_exact_type_table(x, exact):
    """The exact-type test first (float, int, Fraction), then isinstance for other types."""
    assert is_exact(x) is exact


def test_approx_equal_exact_is_strict():
    # a huge tolerance must not blur two distinct exact values
    assert not approx_equal(Fraction(1), Fraction(2), 1.0)
    assert approx_equal(Fraction(1, 3), Fraction(2, 6), 1.0)


def test_approx_equal_float_widths():
    # one width serves as absolute and as relative: tol + tol * max(|x|, |y|)
    assert approx_equal(1.0, 1.0 + 1e-13, 1e-12)
    assert not approx_equal(1.0, 1.0 + 1e-6, 1e-9)
    assert approx_equal(1e6, 1e6 + 1e-4, 1e-9)  # 1e-4 is within 1e-9 + 1e-9 * 1e6
    assert not approx_equal(0.0, 1e-8, 1e-9)
    assert approx_equal(0.0, 0.0, 0.0) and not approx_equal(0.0, 5e-324, 0.0)
    # mixing exact with float falls back to the float test
    assert approx_equal(Fraction(1, 3), 1 / 3, 1e-9)


@pytest.mark.parametrize("x, y, tol", [
    (math.inf, 0, 1e-9), (math.inf, 3, 1e-9), (0.0, -math.inf, 1.0),
    (math.inf, math.inf, 1e-9), (math.nan, 0, 1e-9), (1e308, -1e308, 1.0)])
def test_approx_equal_fails_a_non_finite_difference(x, y, tol):
    # the width grows with |x| and |y|, so inf would otherwise lie within tol of anything
    assert not approx_equal(x, y, tol)


# The exact mode must behave as a field: these identities back every
# "equality holds exactly" claim elsewhere in the suite.

@given(small_fractions, small_fractions, small_fractions)
def test_fraction_field_identities(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(nonzero_fractions)
def test_fraction_inverse_is_exact(x):
    assert x * (1 / x) == 1
    assert x / x == 1


def test_reduced_puts_a_row_in_lowest_terms():
    """reduced divides the row and its denominator by one gcd; the values u_s / den are kept."""
    assert reduced([6, -9, 12], 15) == ([2, -3, 4], 5)
    assert reduced([3, 5], 7) == ([3, 5], 7)  # already in lowest terms
    # gcd is nonnegative, so a negative denominator (a column carrying nu_n's sign) keeps its sign
    assert reduced([4, -6], -8) == ([2, -3], -4)
    assert reduced([0, 0, 0], 6) == ([0, 0, 0], 1)
    assert reduced([0, 0], -6) == ([0, 0], -1)
    assert reduced([], 6) == ([], 1)
    assert reduced([], -6) == ([], -1)


@given(st.lists(st.integers(-10**6, 10**6), max_size=6),
       st.integers(-10**6, 10**6).filter(lambda d: d != 0))
def test_reduced_keeps_the_values(row, den):
    u, m = reduced(row, den)
    assert [Fraction(x, m) for x in u] == [Fraction(x, den) for x in row]
    assert math.gcd(m, *u) == 1 and (m > 0) == (den > 0)


def test_value_class_reprs_name_every_field():
    """The value classes print as Name(field=value!r, ...), the text bench fingerprints hash."""
    samples = Samples.from_pairs([0, Fraction(1, 2)], [1, 2])
    assert repr(samples) == ("Samples(grid=Grid([Fraction(0, 1), Fraction(1, 2)]), "
                             "values=(Fraction(1, 1), Fraction(2, 1)))")
    assert repr(divided_differences_recursive(samples)) == (
        "DividedDifferenceTable(samples=Samples(grid=Grid([Fraction(0, 1), Fraction(1, 2)]), "
        "values=(Fraction(1, 1), Fraction(2, 1))), diffs=(Fraction(1, 1), Fraction(2, 1)))")
    assert repr(ExpGridProblem(Fraction(1, 6), 0)) == (
        "ExpGridProblem(q=Fraction(1, 6), n_max=0, samples=Samples(grid=Grid([Fraction(0, 1), "
        "Fraction(1, 1), Fraction(2, 1)]), values=(Fraction(1, 1), Fraction(1, 6), "
        "Fraction(1, 36))))")
    assert repr(ExpGridProblem(2, 0)) == (  # an int q is kept as a Fraction
        "ExpGridProblem(q=Fraction(2, 1), n_max=0, samples=Samples(grid=Grid([Fraction(0, 1), "
        "Fraction(1, 1), Fraction(2, 1)]), values=(Fraction(1, 1), Fraction(2, 1), "
        "Fraction(4, 1))))")
    assert repr(Circle(center=1j, radius=2.0)) == "Circle(center=1j, radius=2.0, sample_count=2048)"
    assert repr(Circle(1 + 0j, 3.0, 16)) == "Circle(center=(1+0j), radius=3.0, sample_count=16)"
