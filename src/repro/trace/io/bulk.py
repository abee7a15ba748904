"""The block parser behind every text read of a trace dialect.

Each ``parse_*_bulk`` function accepts the same inputs as its
line-by-line counterpart in :mod:`repro.trace.parsers` (an iterable of
lines, an open text file, or — additionally — one whole ``str``) and
produces a column-identical :class:`~repro.trace.trace.BlockTrace`.
:func:`load_trace_bulk` and :class:`~repro.trace.io.reader.TraceReader`
read files through the same parser:

1. an open file is read ``PARSE_BLOCK_CHARS`` characters at a time,
   each read cut back to its last newline, so every block holds whole
   lines; an in-memory text or line list is one block;
2. each block is tokenized by ``np.loadtxt`` with a structured dtype,
   so tokenizing and numeric conversion happen in NumPy's C reader
   rather than per-line Python, and its columns are copied out as
   contiguous arrays.  Operation-type columns are decoded through
   their few distinct spellings, each mapped once via
   :meth:`~repro.trace.record.OpType.from_str`;
3. the rows are cut into chunks of exactly ``chunk_requests`` (one
   chunk for a whole-file read), each chunk is stable-sorted by submit
   time as a whole, and the MSRC/FIU/MSPS dialects are rebased on the
   first chunk's sorted start.

A file read therefore holds one block of text and one block's record
array at a time, whatever the size of the file or of a chunk; the
parsed columns are the only thing that grows with the trace.

Error handling keeps the oracle's contract without slowing the fast
path: whenever the vectorised parse of a block trips over anything — a
malformed row, an unknown operation spelling, a non-positive size —
the block is tokenized once more with only the lines the oracle would
read (a line of blanks trips the tokenizer on comma-delimited
dialects), and if that fails too, the block alone is re-parsed with
the line-by-line oracle, which either succeeds (an exotic-but-valid
block simply takes the slow path) or raises a
:class:`~repro.trace.parsers.TraceParseError` carrying the 1-based
line number in the file or text and the offending row.

One deliberate divergence: like ``np.loadtxt``, the bulk parsers treat
``#`` as starting a comment *anywhere* in a line, while the oracle only
skips lines that begin with ``#``.  Trace bodies are numeric, so this
matters only for hand-annotated files.
"""

from __future__ import annotations

import io
import warnings
from collections.abc import Iterable, Iterator
from functools import partial
from pathlib import Path
from typing import IO, Callable, NamedTuple

import numpy as np

from ..parsers import (
    TraceParseError,
    _header_columns,
    parse_fiu,
    parse_internal,
    parse_msps,
    parse_msrc,
)
from ..record import SECTOR_BYTES, OpType
from ..trace import BlockTrace

__all__ = [
    "parse_msrc_bulk",
    "parse_fiu_bulk",
    "parse_msps_bulk",
    "parse_internal_bulk",
    "load_trace_bulk",
    "BULK_PARSERS",
]

#: Characters of a text file read and tokenized at a time (each read
#: is cut back to its last newline).  Bounds the text, the record array
#: and the oracle fallback one block holds, whatever the file or chunk
#: size (as ``CSV_BLOCK_ROWS`` does for the CSV writer).
PARSE_BLOCK_CHARS = 1 << 17

#: Windows filetime tick length in microseconds (100 ns).
_FILETIME_TICK_US = 0.1

#: Column dtypes for the internal CSV header names.  Unknown columns
#: parse as (ignored) strings so extra provenance columns don't break
#: the fast path.
_INTERNAL_COLUMN_DTYPES = {
    "timestamp_us": "f8",
    "lba": "i8",
    "size_sectors": "i8",
    "op": "U8",
    "issue_us": "f8",
    "complete_us": "f8",
    "sync": "U4",
}

#: Text dialects whose parsers rebase to a 0 start (the internal
#: dialect is stored already rebased).
_REBASED_FORMATS = frozenset({"msrc", "fiu", "msps"})

#: BlockTrace columns; a parsed block maps the ones it carries to arrays.
_FIELDS = ("timestamps", "lbas", "sizes", "ops", "issues", "completes", "syncs")

_Columns = dict[str, np.ndarray]

#: What a block's vectorised parse raises on input it cannot take.
_DATA_ERRORS = (ValueError, KeyError, IndexError, OverflowError)


def _loadtxt(text: str, dtype: np.dtype, **kwargs) -> np.ndarray:
    """``np.loadtxt`` over one block: empty input returns an empty record array."""
    with warnings.catch_warnings():
        # Empty files are legal traces, not a user mistake.
        warnings.filterwarnings("ignore", message=".*input contained no data.*")
        arr = np.loadtxt(io.StringIO(text), dtype=dtype, comments="#", ndmin=1, **kwargs)
    if arr.size and arr.dtype != dtype:  # scalar fallback shapes
        arr = arr.astype(dtype)
    return arr


def _decode_distinct(
    column: np.ndarray, convert: Callable[[str], int], max_distinct: int = 16
) -> np.ndarray:
    """Decode a categorical string column by its distinct values.

    One vectorised comparison per *distinct* spelling — real trace
    files carry one or two — which beats ``np.unique`` (a full string
    sort) by an order of magnitude.  ``convert`` validates each
    spelling; an unknown one raises and sends the caller to the
    oracle fallback.
    """
    out = np.empty(len(column), dtype=np.int8)
    # First spelling handled copy-free (it usually covers most rows).
    first = column[0]
    match = column == first
    out[match] = convert(str(first))
    remaining = np.flatnonzero(~match)
    for _ in range(max_distinct):
        if remaining.size == 0:
            return out
        token = column[remaining[0]]
        value = convert(str(token))
        match = column[remaining] == token
        out[remaining[match]] = value
        remaining = remaining[~match]
    raise ValueError("too many distinct spellings in categorical column")


def _decode_ops(op_column: np.ndarray) -> np.ndarray:
    """Vectorised OpType decode (validated via ``OpType.from_str``)."""
    return _decode_distinct(op_column, lambda t: int(OpType.from_str(t)))


def _stable_order(timestamps: np.ndarray) -> np.ndarray | slice:
    """Stable sort permutation, or a no-copy slice when already sorted."""
    if timestamps.size > 1 and np.any(timestamps[1:] < timestamps[:-1]):
        return np.argsort(timestamps, kind="stable")
    return slice(None)


# ----------------------------------------------------------------------
# per-dialect block columns (a data-shaped error sends the block to the fallback)
# ----------------------------------------------------------------------


def _msrc_columns(arr: np.ndarray) -> _Columns:
    if np.any(arr["size"] <= 0):
        raise ValueError("non-positive request size")  # oracle locates the row
    submits = arr["ticks"] * _FILETIME_TICK_US
    return {
        "timestamps": submits,
        "lbas": arr["offset"] // SECTOR_BYTES,
        "sizes": np.maximum(1, (arr["size"] + SECTOR_BYTES - 1) // SECTOR_BYTES),
        "ops": _decode_ops(arr["op"]),
        "issues": submits,
        "completes": submits + arr["response"] * _FILETIME_TICK_US,
    }


def _fiu_columns(arr: np.ndarray) -> _Columns:
    if np.any(arr["size"] <= 0):
        raise ValueError("non-positive request size")
    return {
        "timestamps": arr["ts"] * 1e6,
        "lbas": arr["lba"].copy(),
        "sizes": arr["size"].copy(),
        "ops": _decode_ops(arr["op"]),
    }


def _msps_columns(arr: np.ndarray) -> _Columns:
    if np.any(arr["complete"] < arr["issue"]) or np.any(arr["size"] <= 0):
        raise ValueError("bad row")  # oracle locates and describes it
    issues = arr["issue"].copy()
    return {
        "timestamps": issues,
        "lbas": arr["lba"].copy(),
        "sizes": arr["size"].copy(),
        "ops": _decode_ops(arr["op"]),
        "issues": issues,
        "completes": arr["complete"].copy(),
    }


def _internal_columns(arr: np.ndarray) -> _Columns:
    if np.any(arr["size_sectors"] <= 0):
        raise ValueError("non-positive request size")
    names = arr.dtype.names
    columns = {
        "timestamps": arr["timestamp_us"].copy(),
        "lbas": arr["lba"].copy(),
        "sizes": arr["size_sectors"].copy(),
        "ops": _decode_ops(arr["op"]),
    }
    if "issue_us" in names:
        columns["issues"] = arr["issue_us"].copy()
        columns["completes"] = arr["complete_us"].copy()
    if "sync" in names:
        syncs = _decode_distinct(arr["sync"], lambda t: int(t.strip() == "1"))
        columns["syncs"] = syncs.astype(bool)
    return columns


class _Dialect(NamedTuple):
    dtype: np.dtype | None  # None: built from the internal CSV header
    loadtxt: dict
    columns: Callable[[np.ndarray], _Columns]
    oracle: Callable[[list[str]], BlockTrace]
    metadata: dict


_DIALECTS = {
    "msrc": _Dialect(
        np.dtype(
            [("ticks", "i8"), ("op", "U8"), ("offset", "i8"), ("size", "i8"), ("response", "i8")]
        ),
        {"delimiter": ",", "usecols": (0, 3, 4, 5, 6)},
        _msrc_columns,
        partial(parse_msrc, rebase=False),
        {"format": "msrc", "category": "MSRC"},
    ),
    "fiu": _Dialect(
        np.dtype([("ts", "f8"), ("lba", "i8"), ("size", "i8"), ("op", "U8")]),
        {"usecols": (0, 3, 4, 5)},
        _fiu_columns,
        partial(parse_fiu, rebase=False),
        {"format": "fiu", "category": "FIU"},
    ),
    "msps": _Dialect(
        np.dtype(
            [("issue", "f8"), ("complete", "f8"), ("op", "U8"), ("lba", "i8"), ("size", "i8")]
        ),
        {"usecols": (0, 1, 2, 3, 4)},
        _msps_columns,
        partial(parse_msps, rebase=False),
        {"format": "msps", "category": "MSPS"},
    ),
    "internal": _Dialect(
        None, {"delimiter": ","}, _internal_columns, parse_internal, {"format": "internal"}
    ),
}


# ----------------------------------------------------------------------
# the block parser
# ----------------------------------------------------------------------


def _text_blocks(handle: IO[str]) -> Iterator[tuple[str, int]]:
    """Whole-line text blocks of an open file, each with its first line number.

    A final fragment with no newline is one more block: at the end of
    the file it is a complete record.
    """
    lineno = 1
    pending = ""
    while True:
        data = handle.read(PARSE_BLOCK_CHARS)
        if not data:
            break
        cut = data.rfind("\n") + 1
        if not cut:
            pending += data
            continue
        text = pending + data[:cut]
        pending = data[cut:]
        yield _lf(text), lineno
        lineno += text.count("\n")
    if pending:
        yield _lf(pending), lineno


def _lf(text: str) -> str:
    """``text`` with CRLF line ends normalised to LF."""
    # The membership scan is ~10x cheaper than an unconditional replace.
    return text.replace("\r\n", "\n") if "\r" in text else text


def _find_header(text: str) -> tuple[str | None, int, int]:
    """First non-blank, non-comment line: (line, 0-based line index, offset after it)."""
    offset = 0
    index = 0
    while offset < len(text):
        end = text.find("\n", offset)
        if end == -1:
            end = len(text)
        line = text[offset:end].strip()
        if line and not line.startswith("#"):
            return line, index, end + 1
        offset = end + 1
        index += 1
    return None, 0, len(text)


class _BlockParser:
    """Tokenizes one input's blocks into column pieces, in input order."""

    def __init__(self, fmt: str) -> None:
        self.dialect = _DIALECTS[fmt]
        self.dtype = self.dialect.dtype
        #: The internal CSV's column line and its names, once seen.
        self.header: str | None = None
        self.names: list[str] = []

    def columns(self, text: str, lineno: int) -> _Columns | None:
        """Columns of one block of whole lines whose first line is ``lineno``."""
        if self.dialect.dtype is None and self.header is None:
            header, index, body = _find_header(text)
            if header is None:
                return None
            lineno += index
            self.names = _header_columns(header, lineno)
            self.header = header
            text, lineno = text[body:], lineno + 1
        # Only data-shaped exceptions demote a block: a programming
        # error in the fast path must surface, not send every block to
        # the slow path.
        try:
            return self._fast(text)
        except _DATA_ERRORS:
            pass
        # A line of only blanks (or blanks then a comment) makes the
        # tokenizer refuse a comma-delimited block; the oracle's line
        # discipline drops such lines, so tokenize what it keeps.
        kept = (line.strip() for line in text.split("\n"))
        try:
            return self._fast("\n".join(s for s in kept if s and not s.startswith("#")))
        except _DATA_ERRORS:
            pass
        # The oracle parses this block alone (the rows it sorts keep
        # their input order among equal stamps, so the chunk's stable
        # sort is unchanged) or raises a TraceParseError naming the
        # line of the whole input.
        lines = text.split("\n")
        shift = lineno - 1
        if self.header is not None:
            lines.insert(0, self.header)
            shift -= 1
        try:
            trace = self.dialect.oracle(lines)
        except TraceParseError as exc:
            raise TraceParseError(exc.lineno + shift, exc.line, exc.reason) from None
        if not len(trace):
            return None
        return {f: getattr(trace, f) for f in _FIELDS if getattr(trace, f) is not None}

    def _fast(self, text: str) -> _Columns | None:
        """Tokenize a block in NumPy; raises a data-shaped error on trouble."""
        if self.dtype is None:
            self.dtype = np.dtype(
                [(c, _INTERNAL_COLUMN_DTYPES.get(c, "U16")) for c in self.names]
            )
        arr = _loadtxt(text, self.dtype, **self.dialect.loadtxt)
        return self.dialect.columns(arr) if arr.size else None

    def empty(self, name: str) -> BlockTrace:
        """What the oracle returns for an input with no rows."""
        if self.dialect.dtype is None and self.header is None:
            return BlockTrace([], [], [], [], name=name)
        return BlockTrace([], [], [], [], name=name, metadata=self.dialect.metadata)


def _join(pieces: list[_Columns]) -> _Columns:
    """One chunk's columns from its pieces; empties ``pieces``.

    Emptying the list lets the caller yield the chunk without holding
    the pieces it was assembled from.
    """
    joined = pieces[0] if len(pieces) == 1 else {
        f: np.concatenate([p[f] for p in pieces]) for f in pieces[0]
    }
    pieces.clear()
    return joined


def _cut(
    parser: _BlockParser, blocks: Iterable[tuple[str, int]], chunk_rows: int | None
) -> Iterator[_Columns]:
    """Column chunks of exactly ``chunk_rows`` rows (the last may be short)."""
    pending: list[_Columns] = []
    n_pending = 0
    for text, lineno in blocks:
        piece = parser.columns(text, lineno)
        if piece is None:
            continue
        pending.append(piece)
        n_pending += len(piece["timestamps"])
        while chunk_rows is not None and n_pending >= chunk_rows:
            take = len(piece["timestamps"]) - (n_pending - chunk_rows)
            pending[-1] = {f: c[:take] for f, c in piece.items()}
            yield _join(pending)
            n_pending -= chunk_rows
            piece = {f: c[take:] for f, c in piece.items()}
            if n_pending:
                pending.append(piece)
    if pending:
        yield _join(pending)


def _iter_traces(
    fmt: str,
    blocks: Iterable[tuple[str, int]],
    name: str,
    chunk_rows: int | None = None,
    rebase: bool = True,
) -> Iterator[BlockTrace]:
    """Parse text blocks into sorted chunks of ``chunk_rows`` rows.

    ``chunk_rows=None`` makes the whole input one chunk.  Each chunk is
    stable-sorted as a whole; with ``rebase`` the rebasing dialects
    shift every chunk by the first chunk's sorted start.  An input with
    no rows yields one empty trace, as the oracle represents it.
    """
    parser = _BlockParser(fmt)
    rebase = rebase and fmt in _REBASED_FORMATS
    offset: float | None = None
    emitted = False
    for columns in _cut(parser, blocks, chunk_rows):
        trace = _sorted_trace(columns, name, parser.dialect.metadata)
        del columns  # unsorted columns must not outlive the sort
        if rebase:
            if offset is None:
                offset = float(trace.timestamps[0])
            trace = trace.shifted(-offset)
        emitted = True
        yield trace
    if not emitted:
        yield parser.empty(name)


def _sorted_trace(columns: _Columns, name: str, metadata: dict) -> BlockTrace:
    order = _stable_order(columns["timestamps"])
    return BlockTrace(**{f: c[order] for f, c in columns.items()}, name=name, metadata=metadata)


def _parse_bulk(
    fmt: str, lines: Iterable[str] | str | IO[str], name: str, rebase: bool
) -> BlockTrace:
    """One sorted trace from a text, a line iterable or an open file."""
    if isinstance(lines, str):
        blocks: Iterable[tuple[str, int]] = [(_lf(lines), 1)]
    elif hasattr(lines, "read"):
        blocks = _text_blocks(lines)  # type: ignore[arg-type]
    else:
        blocks = [("\n".join(line.rstrip("\r\n") for line in lines), 1)]
    (trace,) = _iter_traces(fmt, blocks, name, rebase=rebase)
    return trace


def parse_msrc_bulk(
    lines: Iterable[str] | str, name: str = "msrc", rebase: bool = True
) -> BlockTrace:
    """Vectorised :func:`~repro.trace.parsers.parse_msrc`."""
    return _parse_bulk("msrc", lines, name, rebase)


def parse_fiu_bulk(
    lines: Iterable[str] | str, name: str = "fiu", rebase: bool = True
) -> BlockTrace:
    """Vectorised :func:`~repro.trace.parsers.parse_fiu`."""
    return _parse_bulk("fiu", lines, name, rebase)


def parse_msps_bulk(
    lines: Iterable[str] | str, name: str = "msps", rebase: bool = True
) -> BlockTrace:
    """Vectorised :func:`~repro.trace.parsers.parse_msps`."""
    return _parse_bulk("msps", lines, name, rebase)


def parse_internal_bulk(
    lines: Iterable[str] | str, name: str = "", rebase: bool = True
) -> BlockTrace:
    """Vectorised :func:`~repro.trace.parsers.parse_internal`.

    ``parse_internal`` never rebases; ``rebase`` exists for signature
    parity with the other dialects.
    """
    return _parse_bulk("internal", lines, name, rebase)


#: Bulk parser per dialect name.
BULK_PARSERS: dict[str, Callable[..., BlockTrace]] = {
    "msrc": parse_msrc_bulk,
    "fiu": parse_fiu_bulk,
    "msps": parse_msps_bulk,
    "internal": parse_internal_bulk,
}


def load_trace_bulk(path: str | Path, fmt: str = "internal", name: str | None = None) -> BlockTrace:
    """Load a text-dialect trace file through the block parser."""
    if fmt not in BULK_PARSERS:
        raise ValueError(f"unknown trace format {fmt!r}; choose from {sorted(BULK_PARSERS)}")
    p = Path(path)
    # Text mode translates universal newlines, so CRLF files cost nothing.
    with p.open("r", encoding="utf-8") as handle:
        return _parse_bulk(fmt, handle, name if name is not None else p.stem, True)
