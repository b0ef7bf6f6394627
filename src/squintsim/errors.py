"""Exception types shared across the simulator.

ConfigError maps to CLI exit code 2, every other simulator error to exit
code 3.
"""


class SquintSimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SquintSimError):
    """Invalid scenario configuration. Message names the offending field."""


class NumericalError(SquintSimError):
    """Numerical failure inside the simulation pipeline."""


class DegenerateChannelError(NumericalError):
    """A channel required by an operation is identically zero."""


class CorrelatedChannelsError(NumericalError):
    """Stacked user channels are too close to collinear for zero forcing."""

    def __init__(self, message, ue_pair=None, condition_number=None):
        super().__init__(message)
        self.ue_pair = ue_pair
        self.condition_number = condition_number


class FrequencyMismatchError(SquintSimError):
    """Channel and scattering-state frequencies disagree."""


class ConfigWarning(UserWarning):
    """Suspicious but legal scenario configuration."""
