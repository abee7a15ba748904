"""Chunked trace reading: stream a file as BlockTrace segments.

:class:`TraceReader` turns a trace file — any text dialect, or a
binary store ``.npz`` — into an iterator of
:class:`~repro.trace.trace.BlockTrace` chunks of exactly
``chunk_requests`` rows (the last one may be shorter), so traces
larger than memory can stream through parse → filter → infer → replay
without full materialisation.  Text dialects go through the block
parser of :mod:`~repro.trace.io.bulk`, the same one
``load_trace`` uses: the file is read one bounded text block at a time,
so neither a whole file nor a whole chunk is ever held as text.

Chunked and whole-file reads agree exactly: concatenating the yielded
chunks reproduces ``load_trace(path, fmt)`` column-for-column.  That
parity needs the file to be *chunk-sorted* — rows may be out of order
within a chunk (each chunk is stably sorted as a whole, exactly as the
whole-file parsers sort), but a later chunk must not start before an
earlier one ended, because a streaming reader cannot sort across
segments it has already emitted.  Files that violate this raise
:class:`TraceStreamError`; real trace collections are written in
submission order and stream fine.

Dialects that rebase (MSRC/FIU/MSPS) are rebased against the *first*
chunk's sorted start, so later chunks keep their absolute placement on
the stream's timeline.

A malformed row raises :class:`~repro.trace.parsers.TraceParseError`
with its line number in the file, whatever the chunk size.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

from ..trace import BlockTrace
from .bulk import BULK_PARSERS, _iter_traces, _text_blocks

__all__ = ["TraceReader", "TraceStreamError"]


class TraceStreamError(ValueError):
    """A trace file cannot be streamed in chunks (out-of-order segments)."""


class TraceReader:
    """Iterate a trace file as bounded-size :class:`BlockTrace` chunks.

    Parameters
    ----------
    path:
        Trace file: a text dialect or a binary-store ``.npz``.
    fmt:
        ``"msrc"``, ``"fiu"``, ``"msps"``, ``"internal"``, or ``"npz"``.
    name:
        Workload name; defaults to the file stem.
    chunk_requests:
        Rows per yielded chunk; only the last one may hold fewer (the
        streaming pipeline's working-set knob).

    Iterating yields non-overlapping chunks in time order; ``read()``
    concatenates them into the same trace a whole-file load produces.
    """

    def __init__(
        self,
        path: str | Path,
        fmt: str = "internal",
        name: str | None = None,
        chunk_requests: int = 100_000,
    ) -> None:
        if fmt != "npz" and fmt not in BULK_PARSERS:
            raise ValueError(
                f"unknown trace format {fmt!r}; choose from {sorted(BULK_PARSERS) + ['npz']}"
            )
        if chunk_requests <= 0:
            raise ValueError("chunk_requests must be positive")
        self.path = Path(path)
        self.fmt = fmt
        self.name = name if name is not None else self.path.stem
        self.chunk_requests = chunk_requests

    def __iter__(self) -> Iterator[BlockTrace]:
        return (chunk for chunk in self._chunks() if len(chunk))

    def read(self) -> BlockTrace:
        """Materialise the whole file (chunk-concatenation parity path)."""
        return BlockTrace.concat_all(list(self._chunks()))

    def _chunks(self) -> Iterator[BlockTrace]:
        """Time-ordered chunks; a file with no rows gives one empty trace."""
        if self.fmt == "npz":
            from .store import load_trace_npz

            trace = load_trace_npz(self.path, mmap=True)
            # An empty store still yields its one (empty) chunk.
            for start in range(0, max(len(trace), 1), self.chunk_requests):
                yield trace.select(slice(start, start + self.chunk_requests))
            return
        previous_end = 0.0
        with self.path.open("r", encoding="utf-8") as handle:
            blocks = _text_blocks(handle)
            for index, chunk in enumerate(
                _iter_traces(self.fmt, blocks, self.name, self.chunk_requests)
            ):
                if index and chunk.timestamps[0] < previous_end:
                    raise TraceStreamError(
                        f"{self.path}: chunk {index} starts at {chunk.timestamps[0]:.3f}us, "
                        f"before the previous chunk ended ({previous_end:.3f}us); "
                        "chunked reading requires time-sorted input — "
                        "load the whole file instead"
                    )
                if len(chunk):
                    previous_end = float(chunk.timestamps[-1])
                yield chunk
