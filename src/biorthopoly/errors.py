"""Exception types shared across the library.

One class per CLI exit code, and one per degeneracy of the construction: InvalidParameter for
every bad input or parameter (exit 2), IndexOutOfRange for every index or degree outside what
the data supports (exit 3), and DegenerateInterpolant, NuVanishes and ZeroSampleValue for a
vanishing alpha_n, nu_n or A_s (exit 4), each carrying the offending index as .index.  All
inherit from BiorthopolyError, so blanket handling stays possible.
"""


class BiorthopolyError(Exception):
    """Base class for all library-specific errors.  exit_code is the CLI's exit
    status: 2 (bad input or parameter) unless a subclass sets 3 or 4."""
    exit_code = 2


class IndexOutOfRange(BiorthopolyError):
    """An index or degree exceeds what the data supports."""
    exit_code = 3


class _Degeneracy(BiorthopolyError):
    """A quantity that a construction divides by vanished at index; a subclass names it in its
    message template, which is formatted with the index."""
    exit_code = 4
    template = "a divisor vanished at index {0}"

    def __init__(self, index):
        self.index = index
        super().__init__(self.template.format(index))


class DegenerateInterpolant(_Degeneracy):
    """A divided difference alpha_n vanished where a monic interpolant needs it."""
    template = "alpha_{0} = 0: monic interpolant of degree {0} undefined"


class NuVanishes(_Degeneracy):
    """The auxiliary polynomial T_n lost its degree-n term (nu_n = 0)."""
    template = "nu_{0} = 0: T_{0} degenerates below degree {0}"


class ZeroSampleValue(_Degeneracy):
    """A sample value A_s = 0 appeared where the pairing divides by it."""
    template = "A_{0} = 0: residue pairing divides by the sample values"


class InvalidParameter(BiorthopolyError):
    """Input that cannot be used: unparsable, outside its admissible range, a float that is or
    becomes non-finite, or a point on a pole of what is evaluated there."""
