"""File-system error types (mirroring Sprite/UNIX error returns)."""

from __future__ import annotations


class FsError(Exception):
    """Base class for file-system errors."""


class FileNotFound(FsError):
    """No such file or directory."""


class BadStream(FsError):
    """Operation on a closed or invalid stream."""


class AccessError(FsError):
    """Operation not permitted by the stream's open mode."""


class NotPseudoDevice(FsError):
    """Pseudo-device operation on a regular file."""


class PipeBrokenError(BrokenPipeError, FsError):
    """Write on a pipe whose read end is closed.

    Also derives from the builtin ``BrokenPipeError`` so callers using
    UNIX-style handling keep working.
    """
