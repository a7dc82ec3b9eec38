"""Shared exception types."""


class DomainError(ValueError):
    """An argument fell outside an operation's documented domain."""


class InternalError(RuntimeError):
    """A result failed its own re-verification: a bug, never bad input."""
