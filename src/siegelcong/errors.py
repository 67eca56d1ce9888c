"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage / parse / invalid argument and
any other error here -> 1, insufficient precision -> 2, cache I/O -> 3.
Exit code 4 is not an exception: `table` returns it when a regenerated row
differs from the shipped expected table (see TABLE_MISMATCH in cli.py).
"""


class SiegelCongError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SiegelCongError, ValueError):
    """A caller-supplied argument violates a documented precondition."""


class RingMismatchError(SiegelCongError, TypeError):
    """Arithmetic attempted between series over different coefficient rings."""


class ArithmeticDomainError(SiegelCongError, ArithmeticError):
    """Inversion of a non-unit, an inexact division over Z, or the image of a
    rational (a Bernoulli scale) in a ring that does not hold it."""


class PrecisionError(SiegelCongError):
    """A computation needs more stored coefficients than are available."""

    def __init__(self, message, required=None, available=None):
        super().__init__(message)
        self.required = required
        self.available = available


class DecompositionError(SiegelCongError):
    """Input is not in the weak span: division left a residual."""


class InexactProductError(SiegelCongError, ArithmeticError):
    """A float64 FFT product strayed from the integers: its modulus was past
    the kernel's exactness bound."""


class CacheIOError(SiegelCongError, OSError):
    """The expansion cache could not be read or written."""


class InconsistentVerdictError(SiegelCongError):
    """Certificates for two residues in one Legendre class disagree, or a
    search kernel holds a combination that vanishes on the weight window."""
