"""Exception classes shared across the package."""


class SiqrngError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SiqrngError, ValueError):
    """An input is outside its mathematical or physical domain."""


class ConvergenceError(SiqrngError, ValueError):
    """An infinite-history quantity does not converge for the given parameters."""


class DegenerateError(SiqrngError, ValueError):
    """A ratio is undefined because its denominator vanishes (e.g. no clicks)."""


class InfeasibleError(SiqrngError, RuntimeError):
    """No statistical deviation satisfies the requested failure probability."""


class PrecisionError(SiqrngError, ArithmeticError):
    """A floating-point computation lost the precision its exact result needs."""
