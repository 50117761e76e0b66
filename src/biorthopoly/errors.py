"""Exception types shared across the library.

Every failure mode that callers are expected to distinguish gets its own
class; all inherit from BiorthopolyError so blanket handling stays possible.
Degeneracy errors carry the offending index as an attribute.
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


class PoleEvaluation(BiorthopolyError):
    """A rational function, or a terminating 2F1 in its lower parameter c, was evaluated at one
    of its poles."""


class NonFiniteSample(BiorthopolyError):
    """A contour integrand overflowed or was otherwise non-finite at a node."""


class ParseError(BiorthopolyError):
    """Problem input could not be parsed into a valid Samples instance."""


class InvalidParameter(BiorthopolyError):
    """A command parameter is outside its admissible range."""
