"""Reading an input file's text, on the standard library alone.

The command line reads each input file through :func:`read_text` before it
imports numpy, so an unreadable or undecodable file is reported without
paying for the numeric modules; :mod:`trendsig.ingest` reads through the
same function, so each message has one source.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InputError, ParseError

__all__ = ["read_text"]


def read_text(path: Path, what: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark."""
    try:
        raw = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot read {what} file {_shown(path)}: {exc}") from exc
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        message = f"line {line}: not UTF-8 text ({exc.reason})"
        raise ParseError(f"{_shown(path)}, {message}") from None


def _shown(path: Path) -> str:
    """``path`` as a message shows it: escaped if it holds a NUL or any
    other character that is not printable, as is otherwise."""
    text = str(path)
    return text if text.isprintable() else repr(text)[1:-1]
