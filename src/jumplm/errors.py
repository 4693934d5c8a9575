"""Exception types shared across the package."""


class JumplmError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(JumplmError, ValueError):
    """A spec or argument field is outside its declared range."""


class NonIntegrableTail(InvalidParameter):
    """The jump measure fails the exponential-moment condition on [1, inf)."""


class DomainError(JumplmError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class QuadratureFailure(JumplmError, RuntimeError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class DivergentIntegral(JumplmError, ArithmeticError):
    """The requested integral diverges (true-martingale regime)."""


class StepSizeUnderflow(JumplmError, RuntimeError):
    """ODE step-size adaptation stalled below the machine floor."""


class InvalidConfig(JumplmError, ValueError):
    """An engine or experiment configuration is inconsistent."""


class MaxEventsExceeded(JumplmError, RuntimeError):
    """A simulated path generated more events than the configured guard."""


class KernelUnavailable(JumplmError, RuntimeError):
    """The compiled simulation kernel could not be built or loaded."""


class KernelOutOfMemory(JumplmError, MemoryError):
    """The kernel could not grow a recording path's event buffer."""
