"""Crash-consistent stream checkpoints: resume exactly, or not at all.

One checkpoint document captures everything the daemon needs to resume
bit-identically after a SIGKILL:

- the **source cursor** after the last *committed* chunk (sources
  re-read from there, so uncommitted lines are re-polled, never lost);
- the reconstruction session's :meth:`state_dict` (carried request,
  splice point, running aggregates — see
  :class:`~repro.core.stages.StreamingReconstructionSession`);
- the byte lengths of the output sink and the quarantine file at
  commit time.  On restart both files are **truncated back** to these
  lengths, which deletes any bytes appended by a chunk whose
  checkpoint never landed — the other half of exactly-once: the
  cursor replays what was lost, the truncation removes what was
  half-done, and the replayed chunk reproduces it bit-identically
  (replay cold-starts the device, the session state is the committed
  one).

The daemon commits in groups: one checkpoint covers every chunk handled
since the previous one, at most ``queue_high`` of them, and is written
once a poll of the file brings no new line (so a live tail commits each
chunk) or the bound is reached.  Durability ordering per commit is
append the data files and ``fsync`` each one written or truncated since
its last ``fsync`` *first*, then write the checkpoint via temp-file +
``fsync`` + ``os.replace`` (+ directory fsync): the checkpoint is
atomic, and it can only ever *understate* what is on disk — the
recoverable direction.  A crash between commits loses at most
``queue_high`` chunks of work, which the restart truncates back and
redoes.

A checkpoint that fails to parse is quarantined aside as
``checkpoint.json.corrupt`` and treated as absent: the stream restarts
from scratch, consistent by construction (sink truncates to zero).  A
checkpoint that parses but carries a session state of another version
is not corrupt: the daemon fails on it, leaving every file in place.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["CHECKPOINT_VERSION", "StreamCheckpoint", "load_checkpoint", "save_checkpoint"]

#: Version stamp for the on-disk checkpoint document.
CHECKPOINT_VERSION = 1


@dataclass
class StreamCheckpoint:
    """The resume point of one streaming reconstruction (see module doc)."""

    source_cursor: Any
    session_state: dict[str, Any]
    sink_bytes: int = 0
    quarantine_bytes: int = 0
    header: str | None = None
    rebase_offset: float | None = None
    last_old_ts: float | None = None
    rows_consumed: int = 0
    rows_out: int = 0
    n_quarantined: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-able dict (stamped with the format version)."""
        return {
            "version": CHECKPOINT_VERSION,
            "source_cursor": self.source_cursor,
            "session_state": self.session_state,
            "sink_bytes": self.sink_bytes,
            "quarantine_bytes": self.quarantine_bytes,
            "header": self.header,
            "rebase_offset": self.rebase_offset,
            "last_old_ts": self.last_old_ts,
            "rows_consumed": self.rows_consumed,
            "rows_out": self.rows_out,
            "n_quarantined": self.n_quarantined,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StreamCheckpoint":
        """Rebuild from :meth:`to_dict` output; rejects unknown versions.

        Keys it does not know, such as the always-empty ``extra`` of
        earlier releases, are ignored.
        """
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        return cls(
            source_cursor=data["source_cursor"],
            session_state=data["session_state"],
            sink_bytes=int(data["sink_bytes"]),
            quarantine_bytes=int(data["quarantine_bytes"]),
            header=data.get("header"),
            rebase_offset=data.get("rebase_offset"),
            last_old_ts=data.get("last_old_ts"),
            rows_consumed=int(data.get("rows_consumed", 0)),
            rows_out=int(data.get("rows_out", 0)),
            n_quarantined=int(data.get("n_quarantined", 0)),
        )


def save_checkpoint(path: str | Path, checkpoint: StreamCheckpoint) -> None:
    """Atomically persist ``checkpoint`` (temp + fsync + rename)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    payload = json.dumps(checkpoint.to_dict(), sort_keys=True)
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_checkpoint(path: str | Path) -> StreamCheckpoint | None:
    """Read a checkpoint; ``None`` when absent or corrupt.

    Corruption (a crash can tear many things, but not an ``os.replace``
    — a torn document means external interference) is preserved aside
    as ``<name>.corrupt`` for the operator and treated as a fresh
    start.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    try:
        return StreamCheckpoint.from_dict(json.loads(raw))
    except (ValueError, KeyError, TypeError):
        corrupt = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, corrupt)
        except OSError:
            pass
        return None
