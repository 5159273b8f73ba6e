"""The error root of the reproduction.

Every error class the library defines derives from :class:`ReproError`.
:class:`SpecError` is the one type for a supplied value that is out of
range or contradicts another: spec constructors and parsers raise it
where the value is declared, before anything is built, and the CLI maps
it to exit status 2.
"""

from __future__ import annotations

__all__ = ["ReproError", "SpecError"]


class ReproError(Exception):
    """Root of every error the library raises on purpose."""


class SpecError(ReproError, ValueError):
    """A supplied value is out of range or contradicts another one
    (still a ``ValueError``, for callers written against that)."""
