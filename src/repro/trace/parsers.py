"""Parsers for the public block-trace formats the paper reconstructs.

Three on-disk dialects are supported, matching the three workload
families in the evaluation, plus this library's own round-trip CSV:

``parse_msrc``
    MSR Cambridge enterprise traces: CSV rows of
    ``Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`` where
    ``Timestamp`` is a Windows filetime (100 ns ticks), ``Offset``/
    ``Size`` are bytes, and ``ResponseTime`` is in 100 ns ticks.  These
    traces are ":math:`T_{sdev}` known".

``parse_fiu``
    FIU SRCMap / IODedup text rows of
    ``timestamp pid process lba size_blocks op major minor [md5]`` with a
    Unix timestamp in seconds and sizes in 512-byte blocks.  No device
    stamps — ":math:`T_{sdev}` unknown".

``parse_msps``
    Microsoft Production Server rows as produced by the event-based
    kernel tracer the paper cites: ``issue_us complete_us op lba size``.
    Issue/completion stamps present.

``parse_internal``
    This library's writer format (see :mod:`repro.trace.writers`).

All parsers accept an iterable of lines, skip blank lines and ``#``
comments, and return a :class:`~repro.trace.trace.BlockTrace` sorted by
submit time.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from .record import SECTOR_BYTES, OpType
from .trace import BlockTrace, TraceBuilder

__all__ = [
    "parse_msrc",
    "parse_fiu",
    "parse_msps",
    "parse_internal",
    "load_trace",
    "TraceParseError",
    "ParseError",
]

#: Windows filetime tick length in microseconds (100 ns).
_FILETIME_TICK_US = 0.1


class TraceParseError(ValueError):
    """Raised when a trace line cannot be interpreted.

    Carries the one-based line number to make bad rows findable in
    multi-gigabyte trace files.
    """

    def __init__(self, lineno: int, line: str, reason: str) -> None:
        super().__init__(f"line {lineno}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line
        self.reason = reason


#: Short alias; both names are public.
ParseError = TraceParseError


def _content_lines(lines: Iterable[str]) -> Iterable[tuple[int, str]]:
    """Yield ``(lineno, stripped_line)`` for non-blank, non-comment rows."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_msrc(lines: Iterable[str], name: str = "msrc", rebase: bool = True) -> BlockTrace:
    """Parse MSR Cambridge CSV rows.

    Timestamps are rebased so the first request submits at 0 µs
    (``rebase=False`` keeps the original clock — the chunked reader
    needs later segments on the file's absolute timeline).
    ``Offset`` and ``Size`` are converted from bytes to sectors;
    byte-unaligned offsets are floored to the containing sector, which
    is what the original collection did at the block layer.
    """
    builder = TraceBuilder(name=name, metadata={"format": "msrc", "category": "MSRC"})
    for lineno, line in _content_lines(lines):
        parts = line.split(",")
        if len(parts) < 7:
            raise TraceParseError(lineno, line, "expected 7 comma-separated fields")
        try:
            ticks = int(parts[0])
            op = OpType.from_str(parts[3])
            offset_bytes = int(parts[4])
            size_bytes = int(parts[5])
            response_ticks = int(parts[6])
        except ValueError as exc:
            raise TraceParseError(lineno, line, str(exc)) from exc
        if size_bytes <= 0:
            raise TraceParseError(lineno, line, "non-positive request size")
        submit_us = ticks * _FILETIME_TICK_US
        response_us = response_ticks * _FILETIME_TICK_US
        size_sectors = max(1, (size_bytes + SECTOR_BYTES - 1) // SECTOR_BYTES)
        builder.append(
            timestamp=submit_us,
            lba=offset_bytes // SECTOR_BYTES,
            size=size_sectors,
            op=op,
            issue=submit_us,
            complete=submit_us + response_us,
        )
    trace = builder.build(sort=True)
    return trace.rebased() if rebase else trace


def parse_fiu(lines: Iterable[str], name: str = "fiu", rebase: bool = True) -> BlockTrace:
    """Parse FIU SRCMap / IODedup whitespace-separated rows.

    The trailing md5 field present in IODedup traces is ignored.
    Timestamps are converted from seconds to microseconds and rebased
    to 0.
    """
    builder = TraceBuilder(name=name, metadata={"format": "fiu", "category": "FIU"})
    for lineno, line in _content_lines(lines):
        parts = line.split()
        if len(parts) < 6:
            raise TraceParseError(lineno, line, "expected at least 6 whitespace-separated fields")
        try:
            ts_s = float(parts[0])
            lba = int(parts[3])
            size_blocks = int(parts[4])
            op = OpType.from_str(parts[5])
        except ValueError as exc:
            raise TraceParseError(lineno, line, str(exc)) from exc
        if size_blocks <= 0:
            raise TraceParseError(lineno, line, "non-positive request size")
        builder.append(timestamp=ts_s * 1e6, lba=lba, size=size_blocks, op=op)
    trace = builder.build(sort=True)
    return trace.rebased() if rebase else trace


def parse_msps(lines: Iterable[str], name: str = "msps", rebase: bool = True) -> BlockTrace:
    """Parse Microsoft Production Server event-trace rows.

    Row format: ``issue_us complete_us op lba size_sectors``.  The
    submit timestamp below the block layer is taken to be the issue
    stamp, which matches how the paper treats MSPS collections (issue
    and completion stamps captured at the device driver).
    """
    builder = TraceBuilder(name=name, metadata={"format": "msps", "category": "MSPS"})
    for lineno, line in _content_lines(lines):
        parts = line.split()
        if len(parts) < 5:
            raise TraceParseError(lineno, line, "expected 5 whitespace-separated fields")
        try:
            issue_us = float(parts[0])
            complete_us = float(parts[1])
            op = OpType.from_str(parts[2])
            lba = int(parts[3])
            size = int(parts[4])
        except ValueError as exc:
            raise TraceParseError(lineno, line, str(exc)) from exc
        if complete_us < issue_us:
            raise TraceParseError(lineno, line, "completion precedes issue")
        if size <= 0:
            raise TraceParseError(lineno, line, "non-positive request size")
        builder.append(
            timestamp=issue_us, lba=lba, size=size, op=op, issue=issue_us, complete=complete_us
        )
    trace = builder.build(sort=True)
    return trace.rebased() if rebase else trace


def _header_columns(header: str, lineno: int) -> list[str]:
    """Column names of an internal CSV header found on line ``lineno``."""
    columns = [c.strip() for c in header.split(",")]
    required = ["timestamp_us", "lba", "size_sectors", "op"]
    if columns[: len(required)] != required:
        raise TraceParseError(lineno, header, f"header must start with {','.join(required)}")
    if "issue_us" in columns and "complete_us" not in columns:
        raise TraceParseError(lineno, header, "header has issue_us but no complete_us")
    return columns


def parse_internal(lines: Iterable[str], name: str = "") -> BlockTrace:
    """Parse this library's CSV format (see :func:`repro.trace.writers.write_csv`).

    Header row: ``timestamp_us,lba,size_sectors,op[,issue_us,complete_us][,sync]``.
    Optional columns appear only when the writing trace carried them.
    """
    rows = _content_lines(lines)
    try:
        header_lineno, header = next(iter(rows))
    except StopIteration:
        return BlockTrace([], [], [], [], name=name)
    columns = _header_columns(header, header_lineno)
    has_dev = "issue_us" in columns
    has_sync = "sync" in columns
    builder = TraceBuilder(name=name, metadata={"format": "internal"})
    index = {c: i for i, c in enumerate(columns)}
    for lineno, line in rows:
        parts = line.split(",")
        if len(parts) != len(columns):
            raise TraceParseError(lineno, line, f"expected {len(columns)} fields")
        try:
            size = int(parts[index["size_sectors"]])
            builder.append(
                timestamp=float(parts[index["timestamp_us"]]),
                lba=int(parts[index["lba"]]),
                size=size,
                op=OpType.from_str(parts[index["op"]]),
                issue=float(parts[index["issue_us"]]) if has_dev else None,
                complete=float(parts[index["complete_us"]]) if has_dev else None,
                sync=parts[index["sync"]].strip() == "1" if has_sync else None,
            )
        except ValueError as exc:
            raise TraceParseError(lineno, line, str(exc)) from exc
        if size <= 0:
            raise TraceParseError(lineno, line, "non-positive request size")
    return builder.build(sort=True)


_PARSERS = {
    "msrc": parse_msrc,
    "fiu": parse_fiu,
    "msps": parse_msps,
    "internal": parse_internal,
}


def load_trace(
    path: str | Path,
    fmt: str = "internal",
    name: str | None = None,
    engine: str = "bulk",
) -> BlockTrace:
    """Load a trace file from disk.

    Parameters
    ----------
    path:
        File to read.
    fmt:
        One of ``"msrc"``, ``"fiu"``, ``"msps"``, ``"internal"`` — or
        ``"npz"`` for the binary trace store format (see
        :mod:`repro.trace.io.store`).
    name:
        Workload name; defaults to the file stem (ignored for
        ``"npz"``, which stores its name).
    engine:
        ``"bulk"`` (default) parses through the block parser in
        :mod:`repro.trace.io.bulk`, which tokenizes the file one
        bounded text block at a time; ``"line"`` uses the row-wise
        parsers in this module.  Results are identical; bulk is several
        times faster on large files.
    """
    if fmt == "npz":
        from .io.store import load_trace_npz

        return load_trace_npz(path)
    if fmt not in _PARSERS:
        raise ValueError(
            f"unknown trace format {fmt!r}; choose from {sorted(_PARSERS) + ['npz']}"
        )
    if engine == "bulk":
        from .io.bulk import load_trace_bulk

        return load_trace_bulk(path, fmt=fmt, name=name)
    if engine != "line":
        raise ValueError(f"unknown parse engine {engine!r}; choose 'bulk' or 'line'")
    p = Path(path)
    with p.open("r", encoding="utf-8") as handle:
        return _PARSERS[fmt](handle, name=name if name is not None else p.stem)
