"""Exceptions of the candidate-pair generation subsystem."""


class BlockingError(Exception):
    """Base class for blocking/executor errors."""


class UnknownBlockerError(BlockingError):
    """A blocker name does not resolve to a registered strategy."""

