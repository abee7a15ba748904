"""The stream source: the one growing file the daemon tails.

:class:`FileTailSource` turns a file being appended into the pull
interface the daemon's loop drives:

- :meth:`FileTailSource.poll` reads the next block of at most
  :data:`_IO_BLOCK` bytes and returns the *complete* lines it
  finishes, each paired with a JSON-able **cursor**: the byte offset
  *after* that line.  The file holds the rest, so the daemon never
  reads further ahead than the block it is cutting chunks from.
  Checkpointing the cursor of the last line of a processed chunk is
  all crash recovery needs — a restarted daemon re-opens the file at
  that cursor and re-reads exactly the lines that were never
  committed.
- Torn trailing fragments are never emitted: a writer caught
  mid-``write`` would otherwise inject a prefix that parses into a
  wrong row.  The fragment is held and re-polled until its newline
  lands.  :meth:`FileTailSource.eof_flush` releases a held fragment as
  a final complete line when the daemon declares end-of-stream — at
  that point no writer is coming back to finish it.
- :meth:`FileTailSource.idle` says "nothing more right now", which the
  daemon's ``--until-idle`` grace period turns into end-of-stream.

A producer that writes segment files or receives records over a socket
appends them to the file the daemon tails; a file made by
concatenating internal CSVs repeats its header, which the daemon
drops.

Failure taxonomy follows :mod:`repro.resilience`: a file that is
*momentarily* unreadable (not created yet) raises
:class:`~repro.resilience.TransientPointError` and the daemon retries
with capped backoff; a path that is *irrecoverably* wrong for streaming
(a directory, or a file that shrank — rotation or truncation under a
live cursor) raises :class:`~repro.resilience.PermanentPointError` and
the daemon fails loudly rather than guess at resynchronisation.
"""

from __future__ import annotations

import stat
from pathlib import Path
from typing import Any

from ..resilience import PermanentPointError, TransientPointError

__all__ = ["FileTailSource", "parse_source_spec"]

#: Bytes read per poll: the daemon's read-ahead beyond the chunk it cuts.
_IO_BLOCK = 1 << 16


class FileTailSource:
    """Tail one growing trace file.  Cursor: consumed byte offset.

    Tracks two positions: ``_read_pos`` (next byte to read from disk)
    and ``offset`` (bytes *consumed into complete lines*).  The gap
    between them is the held torn fragment, which stays in ``_buf``
    until its newline arrives.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.offset = 0
        self._read_pos = 0
        self._buf = b""
        self._handle: Any = None

    def open(self, cursor: Any = None) -> None:
        """Position the tail at ``cursor`` (a checkpointed byte offset).

        Raises :class:`ValueError` for any other cursor, such as the
        ``[filename, offset]`` pair of a segment-directory checkpoint.
        """
        if cursor is None:
            cursor = 0
        if not isinstance(cursor, int) or cursor < 0:
            raise ValueError(f"source cursor {cursor!r} is not a byte offset into {self.path}")
        self.close()
        self.offset = self._read_pos = cursor
        self._buf = b""

    def _size(self) -> int | None:
        """Current file size, or ``None`` when the file is missing."""
        try:
            st = self.path.stat()
        except OSError:
            return None
        if stat.S_ISDIR(st.st_mode):
            raise PermanentPointError(f"{self.path}: is a directory; repro-serve reads one file")
        return st.st_size

    def poll(self) -> list[tuple[str, int]]:
        """Lines completed by the next block, as ``(text, offset_after_line)``.

        Reads at most one :data:`_IO_BLOCK`; a line longer than a block
        comes back whole from the poll that reads its newline.

        Raises :class:`TransientPointError` when the file is missing
        (it may simply not have been created yet) and
        :class:`PermanentPointError` when the path is a directory or
        the file shrank below the cursor — the stream identity is gone
        and resuming would splice garbage.
        """
        size = self._size()
        if size is None:
            self.close()
            raise TransientPointError(f"{self.path}: source file missing")
        if size < self._read_pos:
            raise PermanentPointError(
                f"{self.path}: file shrank to {size} bytes below the read "
                f"cursor {self._read_pos} (rotated or truncated); the stream "
                "cannot be resumed — restart with a fresh work directory"
            )
        out: list[tuple[str, int]] = []
        if size == self._read_pos:
            return out
        if self._handle is None:
            self._handle = self.path.open("rb")
        self._handle.seek(self._read_pos)
        data = self._handle.read(_IO_BLOCK)
        self._read_pos += len(data)
        self._buf += data
        cut = self._buf.rfind(b"\n")
        if cut < 0:
            return out
        complete, self._buf = self._buf[:cut], self._buf[cut + 1 :]
        for raw in complete.split(b"\n"):
            self.offset += len(raw) + 1
            out.append((raw.decode("utf-8", errors="replace"), self.offset))
        return out

    def idle(self) -> bool:
        """No unread bytes on disk (a held torn fragment does not count)."""
        size = self._size()
        return size is None or size <= self._read_pos

    def eof_flush(self) -> list[tuple[str, int]]:
        """Release a held torn fragment as a final complete line."""
        if not self._buf:
            return []
        raw, self._buf = self._buf, b""
        self.offset += len(raw)
        return [(raw.decode("utf-8", errors="replace"), self.offset)]

    def close(self) -> None:
        """Release the file handle; safe to call more than once."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def describe(self) -> str:
        """Human-readable identity for the status page."""
        return f"file:{self.path}"


def parse_source_spec(spec: str) -> FileTailSource:
    """Build the source from a CLI spec: ``file:PATH`` or a bare path.

    A segment-directory (``dir``) or socket (``tcp``) spec raises
    :class:`ValueError`: the service follows one file.
    """
    kind, sep, rest = spec.partition(":")
    if sep and kind in ("dir", "tcp"):
        raise ValueError(f"{kind} sources are not supported: repro-serve reads one file ({spec})")
    return FileTailSource(rest if sep and kind == "file" else spec)
