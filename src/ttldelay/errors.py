"""Exception hierarchy shared across the package."""


class TTLDelayError(Exception):
    """Base class for all package errors."""

    code = "E_GENERIC"


class CapacityError(TTLDelayError):
    """A composed MAP would exceed the configured state-count cap."""

    code = "E_CAPACITY"

    def __init__(self, required, allowed, hint):
        self.required = required
        self.allowed = allowed
        super().__init__(
            f"state space of size {required} exceeds the cap of {allowed}; {hint}"
        )


class ConditioningError(TTLDelayError):
    """A linear solve is too ill-conditioned to trust."""

    code = "E_CONDITIONING"


class ReducibleChainError(TTLDelayError):
    """The generator has more than one recurrent class."""

    code = "E_REDUCIBLE"


class PencilLimitError(TTLDelayError):
    """A delay pencil's zero-delay limit is not a chain on its end states."""

    code = "E_LIMIT"


class UnsupportedDistributionError(TTLDelayError):
    """A distribution kind is not accepted in this context."""

    code = "E_DISTRIBUTION"


class DegenerateProcessError(TTLDelayError):
    """A derived process has no events (for example, a cache that never misses)."""

    code = "E_DEGENERATE"


class ConfigError(TTLDelayError):
    """A tree configuration or CLI argument is invalid."""

    code = "E_CONFIG"


class FitError(TTLDelayError):
    """A fitting procedure failed to produce a usable result."""

    code = "E_FIT"
