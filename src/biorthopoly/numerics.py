"""Scalar field plumbing: one exact instantiation, one floating one.

Every algorithm in this library is generic over a scalar "field" in the duck-typed sense:
coefficients are either `fractions.Fraction` (exact mode, canonical reduced p/q with
arbitrary-precision integers) or `float` (fast mode).  Both support +, -, *, / with Python
raising ZeroDivisionError on division by zero, so no silent non-finite values appear in either
mode.  Complex numbers are deliberately not part of this contract; only the contour module uses
them, privately.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction
from operator import sub

from .errors import InvalidParameter

#: Anything accepted as a coefficient.  `int` is allowed on input; Grid and
#: Samples store an int node or value as a Fraction, so it behaves exactly.
Scalar = int | Fraction | float

EXACT = "exact"
FLOAT = "float"


def slots_repr(obj) -> str:
    """Name(field=value!r, ...) over the class's __slots__ in slot order, a slot _x read as x."""
    fields = ", ".join(f"{name}={getattr(obj, name)!r}"
                       for name in (slot.lstrip("_") for slot in type(obj).__slots__))
    return f"{type(obj).__qualname__}({fields})"


def check_finite(values: Sequence[Scalar], message: Callable[[int, Scalar], str]) -> None:
    """InvalidParameter(message(s, values[s])) for the first float values[s] that is inf or nan:
    one pass of x - x (nan there, else 0), and a second only to name it."""
    if any(map(sub, values, values)):
        s = next(s for s, x in enumerate(values) if x - x)
        raise InvalidParameter(message(s, values[s]))


def is_exact(x: Scalar) -> bool:
    """True for int and Fraction, not bool: no rounding.  Type first: ABC isinstance is slow."""
    return (kind := type(x)) is not float and (kind is int or kind is Fraction or (
        isinstance(x, (int, Fraction)) and not isinstance(x, bool)))


def exact_if_int(x: Scalar) -> Scalar:
    """x as a Fraction when it is an int, so that it divides exactly; else x."""
    return Fraction(x) if isinstance(x, int) else x


def over_lcm(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """(u, L): integers u[s] = values[s] * L, L the lcm of the exact values' denominators."""
    common = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (common // x.denominator) for x in values], common


def reduced(row: Sequence[int], den: int) -> tuple[list[int], int]:
    """(row, den) divided by gcd(den, *row): row[s] / den in lowest terms, den keeping its sign.
    The row comes back as a new list, with no division pass when the gcd is 1."""
    g = math.gcd(den, *row)
    return ([x // g for x in row], den // g) if g != 1 else (list(row), den)


def parse_scalar(text: str, mode: str = EXACT) -> Scalar:
    """Parse "p", "p/q" or a decimal literal into a scalar of the given mode."""
    text = text.strip()
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise InvalidParameter(f"scalar {text!r} has a zero denominator")
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse scalar {text!r}: {exc}")
    if mode == EXACT:
        return value
    if mode == FLOAT:
        try:
            return float(value)
        except OverflowError:
            raise InvalidParameter(f"scalar {text!r} overflows a float")
    raise InvalidParameter(f"unknown scalar mode {mode!r}")


def format_scalar(x: Scalar) -> str:
    """Canonical text form: "p/q" (or "p") when exact, shortest repr for floats."""
    if is_exact(x):
        try:
            return str(x)  # an int prints as its Fraction does
        except ValueError:  # the interpreter's cap on int-to-string conversion
            raise InvalidParameter(f"an exact value exceeds {sys.get_int_max_str_digits()} "
                                   "digits, the limit for printing an integer") from None
    return repr(float(x))


def approx_equal(x: Scalar, y: Scalar, tol: float) -> bool:
    """Equality test that respects the mode of its arguments.

    Exact pairs compare exactly (tol ignored).  As soon as a float is
    involved the test is |x - y| <= tol + tol * max(|x|, |y|), and x - y finite.
    """
    if is_exact(x) and is_exact(y):
        return x == y
    fx, fy = float(x), float(y)
    return math.isfinite(fx - fy) and abs(fx - fy) <= tol + tol * max(abs(fx), abs(fy))
