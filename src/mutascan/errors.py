class MutascanError(Exception):
    """Base class for every error raised by this package on bad input or state."""


class PositionOutOfRangeError(MutascanError):
    """A position lies outside the sequence it refers to."""
