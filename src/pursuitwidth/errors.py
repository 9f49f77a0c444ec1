"""Shared exception types."""


class InputError(ValueError):
    """Malformed user input: bad files, out-of-range vertices, bad flags."""


class ConfigError(ValueError):
    """A game configuration that the engine cannot play."""


class ResourceError(RuntimeError):
    """A solve exceeded its position budget; `lower_bound` is what `width` had proved."""

    def __init__(self, message, budget=None, context=None, lower_bound=None):
        super().__init__(message)
        self.budget = budget
        self.context = context
        self.lower_bound = lower_bound


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


class StrategyHoleError(KeyError):
    """A strategy was consulted at a position it does not cover."""

    def __init__(self, position):
        super().__init__(str(position))
        self.position = position


class AdversaryContractError(ValueError):
    """An adversary move violated the restricted move contract."""


class InvariantViolation(AssertionError):
    """A runtime invariant of the strategy multiplier failed."""

    def __init__(self, name, witness=""):
        super().__init__(f"invariant {name} violated: {witness}" if witness
                         else f"invariant {name} violated")
        self.name = name
        self.witness = witness
