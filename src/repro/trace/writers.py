"""Trace writers: internal CSV, MSRC CSV, and a blktrace-like text dump.

The internal CSV format round-trips every column a
:class:`~repro.trace.trace.BlockTrace` can carry and is the format the
reconstruction pipeline uses to persist remastered traces, mirroring the
paper's published download bundle.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from pathlib import Path
from typing import TextIO

from .record import SECTOR_BYTES, OpType
from .trace import BlockTrace

__all__ = ["iter_csv_rows", "write_csv", "write_msrc", "write_blktrace_text", "dump_trace"]


#: Rows the internal CSV writer formats at a time.  Bounds the field
#: lists and text one block holds, whatever the trace length.
CSV_BLOCK_ROWS = 4096


def _csv_text_blocks(trace: BlockTrace) -> Iterator[str]:
    """The internal CSV as newline-terminated text: header line, then row blocks.

    Each block takes ``tolist()`` slices of the columns (Python floats
    and ints, so ``%.3f`` runs the same float formatting that an
    f-string applies to ``np.float64``) and formats all its rows with
    one repeated row format.  Op characters are resolved once per
    distinct code in the block, so a code outside :class:`OpType`
    raises ``ValueError`` before the block is yielded.
    """
    names = ["timestamp_us", "lba", "size_sectors", "op"]
    row_format = "%.3f,%d,%d,%s"
    columns = [trace.timestamps, trace.lbas, trace.sizes, trace.ops]
    if trace.has_device_times:
        assert trace.issues is not None and trace.completes is not None
        names += ["issue_us", "complete_us"]
        row_format += ",%.3f,%.3f"
        columns += [trace.issues, trace.completes]
    if trace.has_sync_flags:
        assert trace.syncs is not None
        names.append("sync")
        row_format += ",%d"
        columns.append(trace.syncs)
    row_format += "\n"
    width = len(columns)
    yield ",".join(names) + "\n"
    for start in range(0, len(trace), CSV_BLOCK_ROWS):
        block = [column[start : start + CSV_BLOCK_ROWS].tolist() for column in columns]
        chars = {code: OpType(code).to_char() for code in set(block[3])}
        block[3] = list(map(chars.__getitem__, block[3]))
        n_rows = len(block[0])
        # Row-major interleave: row i's fields sit at [i*width, (i+1)*width).
        fields: list[object] = [None] * (n_rows * width)
        for j, values in enumerate(block):
            fields[j::width] = values
        yield (row_format * n_rows) % tuple(fields)


def iter_csv_rows(trace: BlockTrace) -> Iterator[str]:
    """Yield header + data rows of the internal CSV format, without newlines.

    Public because the streaming service's sink formats each piece
    through it, joins the rows and appends them with one write; its
    output must be byte-identical to :func:`write_csv` over the
    concatenated trace (the crash-recovery parity contract).
    """
    for text in _csv_text_blocks(trace):
        yield from text[:-1].split("\n")


def write_csv(trace: BlockTrace, target: TextIO) -> None:
    """Write ``trace`` in the internal CSV format to an open text file."""
    for text in _csv_text_blocks(trace):
        target.write(text)


def write_msrc(trace: BlockTrace, target: TextIO) -> None:
    """Write ``trace`` as MSR Cambridge CSV rows.

    Requires device stamps (MSRC traces always have a response time).
    Timestamps are emitted as Windows filetime ticks (100 ns).
    """
    if not trace.has_device_times:
        raise ValueError("MSRC format requires issue/completion stamps")
    assert trace.issues is not None and trace.completes is not None
    host = trace.name or "host"
    for i in range(len(trace)):
        ticks = int(round(trace.timestamps[i] * 10.0))
        response_ticks = int(round((trace.completes[i] - trace.issues[i]) * 10.0))
        op = "Read" if int(trace.ops[i]) == int(OpType.READ) else "Write"
        offset = int(trace.lbas[i]) * SECTOR_BYTES
        size = int(trace.sizes[i]) * SECTOR_BYTES
        target.write(f"{ticks},{host},0,{op},{offset},{size},{response_ticks}\n")


def write_blktrace_text(trace: BlockTrace, target: TextIO, device: str = "259,0") -> None:
    """Write a simplified ``blkparse``-style text dump.

    One ``D`` (dispatch) line per request, plus a ``C`` (complete) line
    when completion stamps are known — the two events the paper's
    collection step records.  Format per line::

        <device> <cpu> <seq> <time_s> <pid> <action> <rwbs> <lba> + <size>

    This is a presentation format only; it is not parsed back.
    """
    seq = 0
    events: list[tuple[float, str]] = []
    for i in range(len(trace)):
        rwbs = "R" if int(trace.ops[i]) == int(OpType.READ) else "W"
        lba = int(trace.lbas[i])
        size = int(trace.sizes[i])
        events.append(
            (float(trace.timestamps[i]), f"D {rwbs} {lba} + {size}"),
        )
        if trace.has_device_times:
            assert trace.completes is not None
            events.append((float(trace.completes[i]), f"C {rwbs} {lba} + {size}"))
    events.sort(key=lambda pair: pair[0])
    for time_us, suffix in events:
        seq += 1
        target.write(f"{device} 0 {seq} {time_us / 1e6:.9f} 0 {suffix}\n")


def dump_trace(trace: BlockTrace, path: str | Path, fmt: str = "internal") -> Path:
    """Persist ``trace`` to ``path`` in the chosen format.

    Returns the path written.  ``fmt`` is one of ``"internal"``,
    ``"msrc"``, ``"blktrace"`` (text), or ``"npz"`` — the versioned
    binary store format (see :mod:`repro.trace.io.store`), which
    round-trips every column bit-exactly and loads without parsing.
    Every format replaces ``path`` only once the whole trace is
    written, so a failed write leaves an existing file unchanged.
    """
    if fmt == "npz":
        from .io.store import save_trace_npz

        return save_trace_npz(trace, path)
    writers = {
        "internal": write_csv,
        "msrc": write_msrc,
        "blktrace": write_blktrace_text,
    }
    if fmt not in writers:
        raise ValueError(
            f"unknown trace format {fmt!r}; choose from {sorted(writers) + ['npz']}"
        )
    p = Path(path)
    # Write beside the target and rename over it, so a writer that fails
    # part-way (missing stamps, a bad op code) leaves an existing file
    # untouched instead of empty or holding a valid-looking prefix.
    tmp = p.with_name(p.name + f".tmp{os.getpid()}")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            writers[fmt](trace, handle)
        os.replace(tmp, p)
    finally:
        tmp.unlink(missing_ok=True)
    return p
