"""Failure types callers are expected to catch."""


class NewtonConvergenceError(RuntimeError):
    """A nonlinear step exhausted its iteration budget above tolerance."""

    def __init__(self, message, time=None, iterations=None):
        super().__init__(message)
        self.time = time
        self.iterations = iterations


class NonFiniteError(RuntimeError):
    """A reduced residual norm or loss change came out NaN or infinite."""


class TransportError(RuntimeError):
    """A worker message could not be delivered or decoded."""
