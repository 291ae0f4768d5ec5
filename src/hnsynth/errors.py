"""Error types shared across file formats and audio I/O."""

from __future__ import annotations


class FormatError(Exception):
    """A file does not conform to one of the documented on-disk formats.

    ``line`` is set for text formats where a specific line is at fault; the
    message names the file and the line itself.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class UnsupportedAudioError(FormatError):
    """A WAV file is structurally valid but uses a codec we do not read."""
