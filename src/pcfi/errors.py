"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ``InputError`` -> 2, I/O failures
(``OSError``) -> 3, ``NumericalError`` -> 4.
"""

from __future__ import annotations

__all__ = ["PcfiError", "InputError", "NoSourceError", "NumericalError"]


class PcfiError(Exception):
    """Base class for all toolkit errors."""


class InputError(PcfiError):
    """Invalid argument, file content, or shape mismatch."""


class NoSourceError(InputError):
    """A diffusion channel has no reachable observed value.

    Carries the offending channel indices so callers can report them.
    """

    def __init__(self, message: str, channels: list[int] | None = None):
        super().__init__(message)
        self.channels = list(channels) if channels is not None else []


class NumericalError(PcfiError):
    """A numerical invariant that should hold by construction was violated."""
