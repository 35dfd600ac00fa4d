"""Exception types shared across the library."""


class QalError(Exception):
    """Base class for library-specific failures."""


class DimensionMismatch(QalError, ValueError):
    """Input arrays disagree in shape or length."""


class NegativeEffectiveProbability(QalError, ValueError):
    """A reading channel drains an outcome below zero probability."""


class ChannelInfeasible(QalError, ValueError):
    """No generative reading channel exists for the requested rates."""


class SizeGuardExceeded(QalError, ValueError):
    """A build or walk would exceed the byte budget."""


class OffGridImage(QalError, ValueError):
    """A game update maps a grid node too far from any other node."""


class PhaseWrapGuard(QalError, ValueError):
    """The per-step potential phase exceeds pi and would wrap."""


class UnknownSchema(QalError, ValueError):
    """A CSV file does not carry a recognized schema tag."""


class ConfigError(QalError, ValueError):
    """A configuration key is unknown, malformed, or of the wrong type."""
