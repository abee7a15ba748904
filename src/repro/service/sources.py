"""Stream sources: where the always-on reconstruction daemon reads from.

A source turns some growing external thing — a file being appended, a
directory filling with segment files, a TCP socket — into a uniform
pull interface the daemon's ingest loop drives:

- :meth:`StreamSource.poll` returns the *complete* lines that arrived
  since the last poll, each paired with a JSON-able **cursor**: the
  source position *after* that line.  Checkpointing the cursor of the
  last line of a processed chunk is all crash recovery needs — a
  restarted daemon re-opens the source at that cursor and re-reads
  exactly the lines that were never committed.
- Torn trailing fragments are never emitted (the tail discipline of
  :class:`_TailFile`, shared by every source): a writer caught
  mid-``write`` would otherwise inject a prefix that parses into a
  wrong row.  The fragment is held and re-polled until its newline
  lands.  :meth:`StreamSource.eof_flush` releases a held fragment as a
  final complete line when the daemon declares end-of-stream — at that
  point no writer is coming back to finish it.
- :meth:`StreamSource.idle` says "nothing more right now", which the
  daemon's ``--until-idle`` grace period turns into end-of-stream.

Failure taxonomy follows :mod:`repro.resilience`: a source that is
*momentarily* unreadable (file not created yet, directory vanished
mid-scan) raises :class:`~repro.resilience.TransientPointError` and the
daemon retries with capped backoff; a source that is *irrecoverably*
wrong for streaming (the file shrank — rotation or truncation under a
live cursor) raises :class:`~repro.resilience.PermanentPointError` and
the daemon fails loudly rather than guess at resynchronisation.

The socket source journals every received byte to an append-only
**spool file** and tails the spool, so socket ingest gets file-grade
crash recovery for free: the spool is the durable record, the byte
cursor indexes into it, and a SIGKILLed daemon replays from the spool
without asking clients to resend.
"""

from __future__ import annotations

import fnmatch
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable

from ..resilience import PermanentPointError, TransientPointError

__all__ = [
    "DirectoryWatchSource",
    "FileTailSource",
    "SocketLineSource",
    "StreamSource",
    "parse_source_spec",
]

#: Bytes per read/recv syscall.
_IO_BLOCK = 1 << 16

#: Cap on bytes consumed per poll, so one poll cannot starve the
#: ingest loop's responsiveness to stop/drain requests.
_POLL_BYTE_BUDGET = 1 << 22


class _TailFile:
    """Byte-cursor tail reader over one file; never emits torn lines.

    Tracks two positions: ``_read_pos`` (next byte to read from disk)
    and ``offset`` (bytes *consumed into complete lines*).  The gap
    between them is the held torn fragment, which stays in ``_buf``
    until its newline arrives.
    """

    def __init__(self, path: Path, offset: int = 0) -> None:
        self.path = Path(path)
        self.offset = int(offset)
        self._read_pos = int(offset)
        self._buf = b""
        self._handle: Any = None

    def size(self) -> int | None:
        """Current file size, or ``None`` when the file is missing."""
        try:
            return self.path.stat().st_size
        except OSError:
            return None

    def has_unread(self) -> bool:
        """Unconsumed bytes on disk (torn fragment bytes don't count)."""
        size = self.size()
        return size is not None and size > self._read_pos

    def poll(self) -> list[tuple[str, int]]:
        """Newly completed lines as ``(text, offset_after_line)``.

        Raises :class:`TransientPointError` when the file is missing
        (it may simply not have been created yet) and
        :class:`PermanentPointError` when it shrank below the cursor —
        the stream identity is gone and resuming would splice garbage.
        """
        size = self.size()
        if size is None:
            self._drop_handle()
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
        budget = _POLL_BYTE_BUDGET
        while budget > 0:
            data = self._handle.read(min(_IO_BLOCK, budget))
            if not data:
                break
            budget -= len(data)
            self._read_pos += len(data)
            self._buf += data
            cut = self._buf.rfind(b"\n")
            if cut < 0:
                continue
            complete, self._buf = self._buf[:cut], self._buf[cut + 1 :]
            for raw in complete.split(b"\n"):
                self.offset += len(raw) + 1
                out.append((raw.decode("utf-8", errors="replace"), self.offset))
        return out

    def flush_tail(self) -> tuple[str, int] | None:
        """Release a held torn fragment as a final complete line."""
        if not self._buf:
            return None
        raw, self._buf = self._buf, b""
        self.offset += len(raw)
        return (raw.decode("utf-8", errors="replace"), self.offset)

    def _drop_handle(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def close(self) -> None:
        self._drop_handle()


class StreamSource:
    """Interface every daemon source implements (see module docstring)."""

    kind = "abstract"

    def open(self, cursor: Any = None) -> None:
        """Position the source; ``cursor`` comes from a checkpoint."""
        raise NotImplementedError

    def poll(self) -> list[tuple[str, Any]]:
        """Complete lines since the last poll, as ``(text, cursor)``."""
        raise NotImplementedError

    def idle(self) -> bool:
        """No more data available right now."""
        raise NotImplementedError

    def eof_flush(self) -> list[tuple[str, Any]]:
        """Release held torn fragments at declared end-of-stream."""
        raise NotImplementedError

    def close(self) -> None:
        """Release handles/threads; safe to call more than once."""

    def describe(self) -> str:
        """Human-readable identity for the status page."""
        raise NotImplementedError


class FileTailSource(StreamSource):
    """Tail one growing trace file.  Cursor: consumed byte offset."""

    kind = "file"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._tail: _TailFile | None = None

    def open(self, cursor: Any = None) -> None:
        self._tail = _TailFile(self.path, int(cursor or 0))

    def poll(self) -> list[tuple[str, Any]]:
        assert self._tail is not None, "open() first"
        return self._tail.poll()

    def idle(self) -> bool:
        assert self._tail is not None, "open() first"
        return not self._tail.has_unread()

    def eof_flush(self) -> list[tuple[str, Any]]:
        assert self._tail is not None, "open() first"
        tail = self._tail.flush_tail()
        return [tail] if tail is not None else []

    def close(self) -> None:
        if self._tail is not None:
            self._tail.close()

    def describe(self) -> str:
        return f"file:{self.path}"


class DirectoryWatchSource(StreamSource):
    """Concatenate a directory of segment files, watched in sorted order.

    Files matching ``pattern`` (hidden files excluded) form one logical
    stream in lexicographic filename order — the order log-segment
    writers produce (``seg-000.csv``, ``seg-001.csv``, …).  The last
    file is tailed like :class:`FileTailSource`; a file is *finalised*
    the moment a lexicographically later file appears, at which point
    its held tail (a final line the writer never newline-terminated)
    is released and reading advances.  Cursor: ``[filename, offset]``.
    """

    kind = "dir"

    def __init__(self, directory: str | Path, pattern: str = "*") -> None:
        self.directory = Path(directory)
        self.pattern = pattern
        self._current: str | None = None
        self._tail: _TailFile | None = None

    def open(self, cursor: Any = None) -> None:
        if cursor is None:
            self._current = None
            self._tail = None
        else:
            name, offset = cursor
            self._current = str(name)
            self._tail = _TailFile(self.directory / self._current, int(offset))

    def _files(self) -> list[str]:
        try:
            entries = list(self.directory.iterdir())
        except OSError as exc:
            raise TransientPointError(f"{self.directory}: cannot scan: {exc}") from exc
        return sorted(
            p.name
            for p in entries
            if p.is_file()
            and not p.name.startswith(".")
            and fnmatch.fnmatch(p.name, self.pattern)
        )

    def _advance(self, files: list[str]) -> bool:
        """Move to the next segment file, if one exists."""
        later = [f for f in files if self._current is None or f > self._current]
        if not later:
            return False
        if self._tail is not None:
            self._tail.close()
        self._current = later[0]
        self._tail = _TailFile(self.directory / self._current, 0)
        return True

    def poll(self) -> list[tuple[str, Any]]:
        out: list[tuple[str, Any]] = []
        files = self._files()
        if self._current is None and not self._advance(files):
            return out
        assert self._tail is not None
        while True:
            for text, offset in self._tail.poll():
                out.append((text, [self._current, offset]))
            finalised = any(f > self._current for f in files if self._current)
            if not finalised or self._tail.has_unread():
                break
            # Current file is finalised and fully read: release its
            # held tail (the writer is done with it) and advance.
            tail = self._tail.flush_tail()
            if tail is not None:
                out.append((tail[0], [self._current, tail[1]]))
            if not self._advance(files):
                break
        return out

    def idle(self) -> bool:
        if self._tail is None:
            return not self._files()
        if self._tail.has_unread():
            return False
        return not any(f > self._current for f in self._files() if self._current)

    def eof_flush(self) -> list[tuple[str, Any]]:
        if self._tail is None:
            return []
        tail = self._tail.flush_tail()
        return [(tail[0], [self._current, tail[1]])] if tail is not None else []

    def close(self) -> None:
        if self._tail is not None:
            self._tail.close()

    def describe(self) -> str:
        return f"dir:{self.directory}:{self.pattern}"


class SocketLineSource(StreamSource):
    """Accept line-oriented trace records over TCP, spooled to disk.

    A listener thread appends every received byte verbatim to an
    append-only spool file; the source itself is a :class:`_TailFile`
    over that spool.  The spool *is* the durability story: socket data
    survives a SIGKILLed daemon because it was journaled before the
    pipeline ever saw it, and the checkpoint cursor is a plain byte
    offset into the spool.  Connections are served one at a time (trace
    shippers are sequential by nature); a client disconnect just ends
    that connection — the listener keeps accepting.

    ``paused`` is the backpressure hook: while it returns ``True`` the
    listener stops ``recv``-ing, the kernel receive window fills, and
    the sender blocks — backpressure propagated to the far end of the
    wire without any protocol.

    Cursor: consumed byte offset into the spool file.
    """

    kind = "tcp"

    def __init__(
        self,
        host: str,
        port: int,
        spool_path: str | Path,
        paused: Callable[[], bool] | None = None,
    ) -> None:
        self.host = host
        self.port = port  # rebound to the actual port after open()
        self.spool_path = Path(spool_path)
        self.paused = paused or (lambda: False)
        self._tail: _TailFile | None = None
        self._server: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._closed = threading.Event()
        self._active_connections = 0
        self._n_connections = 0

    def open(self, cursor: Any = None) -> None:
        self.spool_path.parent.mkdir(parents=True, exist_ok=True)
        self.spool_path.touch(exist_ok=True)
        self._tail = _TailFile(self.spool_path, int(cursor or 0))
        self._server = socket.create_server((self.host, self.port))
        self._server.settimeout(0.2)
        self.port = self._server.getsockname()[1]
        self._thread = threading.Thread(
            target=self._serve, name="repro-serve-listener", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        assert self._server is not None
        with self.spool_path.open("ab") as spool:
            while not self._closed.is_set():
                try:
                    conn, _addr = self._server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return  # listener closed under us
                self._active_connections += 1
                self._n_connections += 1
                try:
                    self._pump(conn, spool)
                finally:
                    self._active_connections -= 1
                    try:
                        conn.close()
                    except OSError:
                        pass

    def _pump(self, conn: socket.socket, spool: Any) -> None:
        conn.settimeout(0.2)
        while not self._closed.is_set():
            if self.paused():
                time.sleep(0.05)
                continue
            try:
                data = conn.recv(_IO_BLOCK)
            except socket.timeout:
                continue
            except OSError:
                return
            if not data:
                return  # client finished
            spool.write(data)
            spool.flush()

    def poll(self) -> list[tuple[str, Any]]:
        assert self._tail is not None, "open() first"
        return self._tail.poll()

    def idle(self) -> bool:
        assert self._tail is not None, "open() first"
        return self._active_connections == 0 and not self._tail.has_unread()

    def eof_flush(self) -> list[tuple[str, Any]]:
        assert self._tail is not None, "open() first"
        tail = self._tail.flush_tail()
        return [tail] if tail is not None else []

    def close(self) -> None:
        self._closed.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if self._tail is not None:
            self._tail.close()

    def describe(self) -> str:
        return f"tcp://{self.host}:{self.port} (spool {self.spool_path})"


def parse_source_spec(spec: str, workdir: str | Path) -> StreamSource:
    """Build a source from a CLI spec string.

    - ``file:PATH`` (or a bare path) — tail one file;
    - ``dir:PATH`` / ``dir:PATH:GLOB`` — watch a segment directory;
    - ``tcp:HOST:PORT`` / ``tcp:PORT`` — listen on a socket, spooling
      to ``<workdir>/spool.lines`` (port 0 binds an ephemeral port,
      published on the status page).
    """
    if spec.startswith("file:"):
        return FileTailSource(spec[len("file:") :])
    if spec.startswith("dir:"):
        rest = spec[len("dir:") :]
        path, _, pattern = rest.partition(":")
        return DirectoryWatchSource(path, pattern or "*")
    if spec.startswith("tcp:"):
        rest = spec[len("tcp:") :]
        host, _, port = rest.rpartition(":")
        try:
            port_no = int(port)
        except ValueError:
            raise ValueError(f"bad tcp source spec {spec!r}: port must be an integer")
        spool = Path(workdir) / "spool.lines"
        return SocketLineSource(host or "127.0.0.1", port_no, spool)
    return FileTailSource(spec)
