"""Exception types shared across the package."""


class AqwalkError(Exception):
    """Base class for all package errors."""


class SingularParameterError(AqwalkError):
    """Parameters hit a singular point of an analytic expression."""


class NonConvergenceError(AqwalkError):
    """An iterative estimate failed its internal convergence check."""


class ConfigError(AqwalkError, ValueError):
    """An invalid field, also a ValueError. A spec names its own field; config adds the dotted path."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")

    def __reduce__(self):
        # rebuild from the constructor arguments, so the error survives pickling
        return type(self), (self.field, self.message)


class RealizationError(AqwalkError):
    """An ensemble realization failed. Carries the realization index."""

    def __init__(self, index: int, original: BaseException):
        self.index = index
        self.original = original
        super().__init__(f"realization {index}: {type(original).__name__}: {original}")

    def __reduce__(self):
        # rebuild from the constructor arguments, so a worker's failure
        # reaches the parent process with its index
        return type(self), (self.index, self.original)
