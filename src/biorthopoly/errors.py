"""Exception types shared across the library.

Every failure mode that callers are expected to distinguish gets its own
class; all inherit from BiorthopolyError so blanket handling stays possible.
Degeneracy errors carry the offending index as an attribute.
"""


class BiorthopolyError(Exception):
    """Base class for all library-specific errors.  exit_code is the CLI's exit
    status: 2 (bad input or parameter) unless a subclass sets 3 or 4."""
    exit_code = 2


class ZeroDenominator(BiorthopolyError):
    """A ratio p/q was requested with q = 0."""


class IndexOutOfRange(BiorthopolyError):
    """An index or degree exceeds what the data supports."""
    exit_code = 3


class DegenerateInterpolant(BiorthopolyError):
    """A divided difference alpha_n vanished where a monic interpolant needs it."""
    exit_code = 4

    def __init__(self, index):
        self.index = index
        super().__init__(f"alpha_{index} = 0: monic interpolant of degree {index} undefined")


class NuVanishes(BiorthopolyError):
    """The auxiliary polynomial T_n lost its degree-n term (nu_n = 0)."""
    exit_code = 4

    def __init__(self, index):
        self.index = index
        super().__init__(f"nu_{index} = 0: T_{index} degenerates below degree {index}")


class ZeroSampleValue(BiorthopolyError):
    """A sample value A_s = 0 appeared where the pairing divides by it."""
    exit_code = 4

    def __init__(self, index):
        self.index = index
        super().__init__(f"A_{index} = 0: residue pairing divides by the sample values")


class PoleEvaluation(BiorthopolyError):
    """A rational function was evaluated at one of its poles."""


class LowerParameterPole(BiorthopolyError):
    """A terminating 2F1 hit a vanishing lower-parameter Pochhammer factor."""


class NonFiniteSample(BiorthopolyError):
    """A contour integrand overflowed or was otherwise non-finite at a node."""


class ParseError(BiorthopolyError):
    """Problem input could not be parsed into a valid Samples instance."""


class InvalidParameter(BiorthopolyError):
    """A command parameter is outside its admissible range."""
