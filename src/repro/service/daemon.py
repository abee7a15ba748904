"""The always-on streaming reconstruction daemon (``repro-serve``).

One loop, on the thread that calls :meth:`~StreamingReconstructionService.run`:

- it polls the :mod:`~repro.service.sources` file tail one block at a
  time, filters comment/blank lines (and the internal CSV header,
  including the repeats of a file made by concatenating CSVs), and cuts
  fixed-size chunks of ``chunk_requests`` content lines — exactly the
  boundaries :class:`~repro.trace.io.reader.TraceReader` would cut;
- it parses each chunk, quarantines poison records, feeds the parsed
  segment to a :class:`~repro.core.stages.StreamingReconstructionSession`
  and appends the emitted piece to the CSV sink;
- it commits a crash-consistent :mod:`~repro.service.checkpoint` once
  ``queue_high`` chunks have been handled since the last commit or a
  poll brings no new line (a *group commit*: a catch-up pays one commit
  per ``queue_high`` chunks, a live tail one per chunk);
- every ``status_interval_s`` it publishes ``status.json`` (rolling
  throughput, the pending commit group, lag, quarantine counters) and
  beats the heartbeat file.

**The file is the queue.**  Records not yet read wait on disk, so the
loop reads one block ahead of the chunk it is cutting and needs no
queue, no second thread and no lock.

**Parity contract.**  For a well-formed stream the daemon's sink and
metrics are byte- and bit-identical to the batch oracle::

    pipeline.run_stream(TraceReader(path, chunk_requests=N), target)

over the same content — including across a SIGKILL and restart at any
point, because each commit checkpoints the chunks handled so far (byte
cursor + session state + sink length) and the at most ``queue_high``
chunks handled since the last commit are re-read from the file on
restart.  The batch path stays the correctness oracle; the daemon adds
only robustness around it.

**Poison records** quarantine, they never kill the stream: a chunk
that fails bulk parse is re-parsed line by line and the offenders are
appended to ``quarantine.jsonl`` (dead-letter) with their parse error;
rows that travel backwards in time past an already-emitted boundary —
unsplicable by the carry invariant — are quarantined as ``order``
records.  Source hiccups retry forever with the capped deterministic
backoff of :class:`~repro.resilience.RetryPolicy`; only *permanent*
failures (the taxonomy of :func:`~repro.resilience.classify_error`)
take the daemon down, loudly, through the ``failed`` state — as does
a checkpoint whose session state or source cursor this version cannot
load, which stays on disk with the sink and the dead-letter file
untouched.

**Drain semantics.**  SIGTERM/SIGINT (or :meth:`request_stop`) end the
loop once the chunk in hand is done: it commits the chunks handled so
far and exits in ``stopped`` state.  Lines read but not handled, and
the partial tail chunk, stay un-cut, so a later run re-reads them from
the checkpointed cursor and it (or the batch oracle) sees the same
boundaries.  ``until_idle_s`` declares end-of-stream after that much
sustained source idleness: the daemon then flushes the partial chunk
and held torn fragments, finishes the session, writes
``metrics.json``, and exits in ``finished`` state.
"""

from __future__ import annotations

import json
import math
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..core.pipeline import TraceTracker
from ..core.stages import ReconstructionMetrics, StreamingReconstructionSession
from ..resilience import RetryPolicy, classify_error, retry_call, write_heartbeat
from ..storage.device import StorageDevice
from ..trace.io.bulk import _REBASED_FORMATS, BULK_PARSERS
from ..trace.parsers import TraceParseError
from ..trace.trace import BlockTrace
from ..trace.writers import iter_csv_rows
from .checkpoint import StreamCheckpoint, load_checkpoint, save_checkpoint
from .sources import FileTailSource

__all__ = ["ServiceConfig", "StreamingReconstructionService"]

#: Seconds the loop sleeps after a poll that found the file idle.
_POLL_INTERVAL_S = 0.02

#: Retries of sink appends and commits, and the capped backoff of
#: source polls.
_RETRY = RetryPolicy()

#: The counters of ``status.json``.  The checkpoint copies
#: rows_consumed, rows_out and n_quarantined at each commit, so
#: status.json runs ahead of checkpoint.json by the chunks handled since
#: the last commit: at most queue_high.
_COUNTERS = (
    "rows_polled",       # raw lines read by this process
    "rows_consumed",     # content lines handled (checkpointed)
    "rows_out",          # reconstructed rows appended to the sink (checkpointed)
    "n_quarantined",     # poison records dead-lettered (checkpointed)
    "n_header_repeats",  # repeated internal headers dropped (concatenated CSVs)
    "source_errors",     # transient source failures retried
    "n_commits",         # checkpoints committed by this process
)


@dataclass
class ServiceConfig:
    """Knobs of one streaming reconstruction service (each a ``repro-serve run`` flag)."""

    fmt: str = "internal"
    chunk_requests: int = 256
    #: The most chunks one checkpoint commit covers.
    queue_high: int = 8
    #: ``None`` follows forever (drain on SIGTERM); a finite,
    #: non-negative number declares end-of-stream after that much
    #: sustained source idleness.
    until_idle_s: float | None = None
    #: The period (positive, finite) of ``status.json`` and the heartbeat.
    status_interval_s: float = 1.0
    name: str = "stream"

    def __post_init__(self) -> None:
        if self.fmt not in BULK_PARSERS:
            raise ValueError(
                f"unknown stream format {self.fmt!r}; choose from {sorted(BULK_PARSERS)}"
            )
        if self.chunk_requests <= 0:
            raise ValueError("chunk_requests must be positive")
        if self.queue_high < 1:
            raise ValueError("queue_high must be at least 1")
        if self.until_idle_s is not None and not self.until_idle_s >= 0:
            raise ValueError("until_idle_s must be non-negative")
        if self.until_idle_s is not None and math.isinf(self.until_idle_s):
            raise ValueError("until_idle_s must be finite")
        if not self.status_interval_s > 0:
            raise ValueError("status_interval_s must be positive")
        if math.isinf(self.status_interval_s):
            raise ValueError("status_interval_s must be finite")


class _AppendFile:
    """An append-only data file of the work directory.

    Opens with a truncate-to-checkpoint, so bytes appended after the
    last commit are removed before new appends.  :meth:`sync` fsyncs
    only a file written or truncated since its last fsync.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle: Any = None
        self.nbytes = 0
        self._dirty = False

    def open(self, truncate_to: int) -> None:
        self.path.touch(exist_ok=True)
        self._handle = self.path.open("r+b")
        self._truncate(truncate_to)

    def _write(self, data: bytes) -> None:
        self._dirty = True
        self._handle.write(data)
        self.nbytes += len(data)

    def _truncate(self, size: int) -> None:
        self._dirty = True
        self._handle.truncate(size)
        self._handle.seek(size)
        self.nbytes = size

    def sync(self) -> None:
        if self._handle is not None and self._dirty:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._dirty = False

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class _CsvSink(_AppendFile):
    """Append-only internal-CSV output, byte-identical to ``write_csv``.

    Each piece is formatted in full, then encoded and written once.  A
    failed append rolls the file back to its pre-append length so the
    loop's retry re-appends cleanly instead of duplicating rows.
    """

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self._has_header = False

    def open(self, truncate_to: int) -> None:
        super().open(truncate_to)
        self._has_header = truncate_to > 0

    def append(self, piece: BlockTrace) -> None:
        assert self._handle is not None, "open() first"
        start = self.nbytes
        try:
            rows = iter_csv_rows(piece)
            header = next(rows)
            lines = list(rows) if self._has_header else [header, *rows]
            if lines:
                self._write(("\n".join(lines) + "\n").encode("utf-8"))
            self._has_header = True
        except Exception:
            self._truncate(start)
            self._has_header = start > 0
            raise


class _DeadLetterLog(_AppendFile):
    """Append-only JSONL of quarantined records, truncate-on-restart."""

    def record(self, kind: str, **payload: Any) -> None:
        assert self._handle is not None, "open() first"
        doc = {"kind": kind, **payload}
        self._write((json.dumps(doc, sort_keys=True) + "\n").encode("utf-8"))


class StreamingReconstructionService:
    """One always-on reconstruction stream (see module docstring).

    Files under ``workdir``:

    - ``out.csv`` — the reconstructed trace (internal CSV), grown
      piece by piece, byte-identical to the batch oracle's output;
    - ``checkpoint.json`` — the crash-consistent resume point;
    - ``quarantine.jsonl`` — dead-letter log of poison records;
    - ``status.json`` — the status endpoint, atomically replaced;
    - ``heartbeat`` — liveness mtime for external supervisors;
    - ``metrics.json`` — final metrics, written on ``finished``.
    """

    def __init__(
        self,
        source: FileTailSource,
        target: StorageDevice,
        workdir: str | Path,
        config: ServiceConfig | None = None,
        tracker: TraceTracker | None = None,
    ) -> None:
        self.source = source
        self.target = target
        self.workdir = Path(workdir)
        self.config = config or ServiceConfig()
        self.tracker = tracker or TraceTracker()

        self.sink_path = self.workdir / "out.csv"
        self.checkpoint_path = self.workdir / "checkpoint.json"
        self.quarantine_path = self.workdir / "quarantine.jsonl"
        self.status_path = self.workdir / "status.json"
        self.heartbeat_path = self.workdir / "heartbeat"
        self.metrics_path = self.workdir / "metrics.json"

        self._counters = dict.fromkeys(_COUNTERS, 0)
        self._sink = _CsvSink(self.sink_path)
        self._quarantine = _DeadLetterLog(self.quarantine_path)
        self._session: StreamingReconstructionSession | None = None

        # A plain flag: a signal handler may set it at any bytecode of
        # the loop, and a lock the loop held there would deadlock.
        self._stop_requested = False
        self._state = "starting"
        self._lines: list[tuple[str, Any]] = []  # read, not yet handled
        self._pending = 0      # chunks handled since the last commit
        self._max_pending = 0
        self._header: str | None = None
        self._rebase_offset: float | None = None
        self._last_old_ts: float | None = None
        self._last_cursor: Any = None  # after the last chunk handled
        self._last_source_error: str | None = None
        self._fatal: str | None = None
        self._started_at = time.time()
        self._next_status = 0.0
        self._samples: deque[tuple[float, int]] = deque(maxlen=32)
        self._parse = BULK_PARSERS[self.config.fmt]

    # -- public control ------------------------------------------------

    @property
    def outcome(self) -> str:
        """Terminal state after :meth:`run` ('finished'/'stopped'/'failed')."""
        return self._state

    def request_stop(self) -> None:
        """Ask the daemon to commit the chunks handled so far and exit.

        Safe from a signal handler and from another thread.
        """
        self._stop_requested = True

    # -- lifecycle -------------------------------------------------------

    def run(self, install_signal_handlers: bool = True) -> ReconstructionMetrics | None:
        """Run until end-of-stream, stop, or permanent failure.

        Returns the final :class:`ReconstructionMetrics` when the
        stream ``finished``; ``None`` for ``stopped`` (resumable) and
        ``failed`` (see ``status.json``).  Check :attr:`outcome`.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._write_status()
        session = self.tracker.stream_session(self.target)

        cp = load_checkpoint(self.checkpoint_path)
        if cp is not None:
            try:
                session.load_state(cp.session_state)
                self.source.open(cp.source_cursor)
            except (ValueError, KeyError, TypeError) as exc:
                # A session state of another version, or the cursor of
                # another source kind.  Starting over would truncate the
                # committed output, so fail with every file left as it is.
                self._fatal = (
                    f"cannot resume {self.checkpoint_path.name}: {type(exc).__name__}: {exc}"
                )
                self._state = "failed"
                self._write_status()
                return None
            self._header = cp.header
            self._rebase_offset = cp.rebase_offset
            self._last_old_ts = cp.last_old_ts
            self._last_cursor = cp.source_cursor
            self._counters.update(
                rows_consumed=cp.rows_consumed,
                rows_out=cp.rows_out,
                n_quarantined=cp.n_quarantined,
            )
            self._sink.open(cp.sink_bytes)
            self._quarantine.open(cp.quarantine_bytes)
        else:
            self.source.open(None)
            self._sink.open(0)
            self._quarantine.open(0)
        self._session = session

        previous_handlers: dict[int, Any] = {}
        if install_signal_handlers and threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous_handlers[signum] = signal.signal(
                    signum, lambda *_: self.request_stop()
                )

        self._state = "running"
        try:
            outcome = self._loop(session)
        finally:
            self.source.close()
            self._sink.close()
            self._quarantine.close()
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)

        metrics: ReconstructionMetrics | None = None
        if outcome == "finished" and session.n_requests > 0:
            metrics = session.metrics()
            self._write_metrics(metrics)
        self._state = outcome
        self._write_status()
        return metrics

    # -- the loop ----------------------------------------------------------

    def _loop(self, session: StreamingReconstructionSession) -> str:
        """Poll, cut, handle and commit until end-of-stream, stop or failure.

        A raise while handling a chunk exits without committing the
        chunks pending since the last commit (the session may hold a
        chunk whose sink append rolled back); a restart redoes them.
        """
        cfg = self.config
        idle_since: float | None = None
        attempt = 0
        try:
            while not self._stop_requested:
                self._tick()
                try:
                    batch = self.source.poll()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:  # noqa: BLE001 - the taxonomy decides
                    if classify_error(exc) == "permanent":
                        self._fatal = f"source: {type(exc).__name__}: {exc}"
                        if self._pending:
                            self._commit(session)
                        return "failed"
                    self._last_source_error = f"{type(exc).__name__}: {exc}"
                    self._counters["source_errors"] += 1
                    # Retry forever — always-on — but with the policy's
                    # *capped* deterministic backoff.
                    time.sleep(
                        _RETRY.delay_s("source-poll", min(attempt, _RETRY.max_attempts - 1))
                    )
                    attempt += 1
                    continue
                attempt = 0
                for text, cursor in batch:
                    self._accept_line(text, cursor)
                self._cut_chunks(session)
                if batch:
                    idle_since = None
                    continue
                # A poll that brings no new line ends the commit group.
                if self._pending:
                    self._commit(session)
                if not self.source.idle():
                    idle_since = None  # the rest of a line longer than a block
                    continue
                if cfg.until_idle_s is not None:
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if now - idle_since >= cfg.until_idle_s:
                        return self._finish(session)
                time.sleep(_POLL_INTERVAL_S)
            if self._pending:
                self._commit(session)
            return "stopped"
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - fail loudly, not silently
            self._fatal = f"{type(exc).__name__}: {exc}"
            return "failed"

    def _cut_chunks(self, session: StreamingReconstructionSession) -> None:
        """Handle every full chunk of read lines, stopping early on request."""
        n = self.config.chunk_requests
        while len(self._lines) >= n and not self._stop_requested:
            rows = self._lines[:n]
            del self._lines[:n]
            self._handle_chunk(session, rows, rows[-1][1])
            self._pending += 1
            self._max_pending = max(self._max_pending, self._pending)
            if self._pending >= self.config.queue_high:
                self._commit(session)
            self._tick()

    def _finish(self, session: StreamingReconstructionSession) -> str:
        """End-of-stream: flush the partial chunk, finish, commit once."""
        for text, cursor in self.source.eof_flush():
            self._accept_line(text, cursor)
        self._cut_chunks(session)  # the released fragment may complete a chunk
        if self._lines:
            rows, self._lines = self._lines, []
            self._handle_chunk(session, rows, rows[-1][1])
        piece = session.finish()
        if piece is not None:
            self._sink.append(piece)
            self._counters["rows_out"] += len(piece)
        self._commit(session)
        return "finished"

    def _accept_line(self, text: str, cursor: Any) -> None:
        """Apply the TraceReader line discipline: strip, drop, de-header."""
        self._counters["rows_polled"] += 1
        line = text.strip()
        if not line or line.startswith("#"):
            return
        if self.config.fmt == "internal":
            if self._header is None:
                self._header = line
                return
            if line == self._header:
                # A file made by concatenating CSVs repeats the header.
                self._counters["n_header_repeats"] += 1
                return
        self._lines.append((line, cursor))

    def _handle_chunk(
        self,
        session: StreamingReconstructionSession,
        rows: list[tuple[str, Any]],
        cursor: Any,
    ) -> None:
        """Parse, quarantine, reconstruct and append one chunk (no commit)."""
        lines = [text for text, _ in rows]
        trace = self._parse_chunk(lines)
        if trace is not None and len(trace) > 0:
            if self.config.fmt in _REBASED_FORMATS:
                if self._rebase_offset is None:
                    self._rebase_offset = float(trace.timestamps[0])
                trace = trace.shifted(-self._rebase_offset)
            trace = self._drop_time_regressions(trace)
        piece: BlockTrace | None = None
        if trace is not None and len(trace) > 0:
            # feed() commits its state only on success, so a raise here
            # leaves the session untouched; it is NOT retried in-process
            # (reconstruction is pure compute — a failure is a bug, not
            # weather) and surfaces as the 'failed' state.
            piece = session.feed(trace)
            self._last_old_ts = float(trace.timestamps[-1])
        if piece is not None:
            # I/O *is* weather: the sink rolls back on failure, so the
            # append retries under the policy.
            final_piece = piece
            retry_call(
                lambda: self._sink.append(final_piece),
                key=f"sink@{self._sink.nbytes}",
                policy=_RETRY,
            )
            self._counters["rows_out"] += len(piece)
        self._counters["rows_consumed"] += len(rows)
        self._last_cursor = cursor

    def _commit(self, session: StreamingReconstructionSession) -> None:
        """Durably commit the chunks handled so far: data files, then the checkpoint."""
        counters = self._counters
        checkpoint = StreamCheckpoint(
            source_cursor=self._last_cursor,
            session_state=session.state_dict(),
            sink_bytes=self._sink.nbytes,
            quarantine_bytes=self._quarantine.nbytes,
            header=self._header,
            rebase_offset=self._rebase_offset,
            last_old_ts=self._last_old_ts,
            rows_consumed=counters["rows_consumed"],
            rows_out=counters["rows_out"],
            n_quarantined=counters["n_quarantined"],
        )

        def _write() -> None:
            self._sink.sync()
            self._quarantine.sync()
            save_checkpoint(self.checkpoint_path, checkpoint)

        retry_call(_write, key=f"checkpoint@{self._sink.nbytes}", policy=_RETRY)
        counters["n_commits"] += 1
        self._pending = 0

    # -- parsing and quarantine ------------------------------------------

    def _body(self, lines: list[str]) -> str:
        if self._header is not None:
            return self._header + "\n" + "\n".join(lines)
        return "\n".join(lines)

    def _parse_chunk(self, lines: list[str]) -> BlockTrace | None:
        """Bulk-parse a chunk; on poison, salvage line by line."""
        try:
            return self._parse(self._body(lines), name=self.config.name, rebase=False)
        except (TraceParseError, ValueError):
            pass
        good: list[str] = []
        for text in lines:
            try:
                self._parse(self._body([text]), name=self.config.name, rebase=False)
            except (TraceParseError, ValueError) as exc:
                self._dead_letter("parse", line=text, error=str(exc))
            else:
                good.append(text)
        if not good:
            return None
        try:
            return self._parse(self._body(good), name=self.config.name, rebase=False)
        except (TraceParseError, ValueError) as exc:
            # Lines that parse alone but poison in aggregate: rare, but
            # quarantine beats killing the stream.
            for text in good:
                self._dead_letter("parse", line=text, error=str(exc))
            return None

    def _drop_time_regressions(self, trace: BlockTrace) -> BlockTrace | None:
        """Quarantine rows that travel back past the emitted boundary.

        The carry invariant needs every new chunk to start no earlier
        than the previous chunk's last request; a batch reader raises
        ``TraceStreamError`` here, an always-on service dead-letters
        the offending rows and keeps going.
        """
        if self._last_old_ts is None:
            return trace
        cut = int(np.searchsorted(trace.timestamps, self._last_old_ts, side="left"))
        if cut == 0:
            return trace
        for i in range(cut):
            self._dead_letter(
                "order",
                timestamp_us=float(trace.timestamps[i]),
                lba=int(trace.lbas[i]),
                size_sectors=int(trace.sizes[i]),
                cutoff_us=self._last_old_ts,
            )
        if cut >= len(trace):
            return None
        return trace.select(slice(cut, None))

    def _dead_letter(self, kind: str, **payload: Any) -> None:
        self._quarantine.record(kind, **payload)
        self._counters["n_quarantined"] += 1

    # -- status ------------------------------------------------------------

    def _tick(self) -> None:
        """Publish status.json and beat the heartbeat once per status interval."""
        now = time.monotonic()
        if now < self._next_status:
            return
        self._next_status = now + self.config.status_interval_s
        self._samples.append((now, self._counters["rows_out"]))
        (t0, r0), (t1, r1) = self._samples[0], self._samples[-1]
        self._write_status((r1 - r0) / (t1 - t0) if t1 > t0 else 0.0)
        write_heartbeat(self.heartbeat_path)

    def _write_status(self, throughput_rps: float = 0.0) -> None:
        session = self._session
        payload: dict[str, Any] = {
            "state": self._state,
            "pid": os.getpid(),
            "started_at": self._started_at,
            "updated_at": time.time(),
            "source": self.source.describe(),
            "fmt": self.config.fmt,
            "chunk_requests": self.config.chunk_requests,
            "until_idle_s": self.config.until_idle_s,
            # The commit group: chunks handled but not yet committed.
            "queue": {
                "depth": self._pending,
                "max_depth": self._max_pending,
                "high_watermark": self.config.queue_high,
            },
            "counters": self._counters,
            "lag_rows": len(self._lines),
            "throughput_rps": throughput_rps,
            "session": {
                "n_chunks": session.n_chunks if session is not None else 0,
                "n_requests": session.n_requests if session is not None else 0,
            },
            "last_source_error": self._last_source_error,
            "fatal": self._fatal,
        }
        tmp = self.status_path.with_name(self.status_path.name + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.status_path)

    def _write_metrics(self, metrics: ReconstructionMetrics) -> None:
        payload = {
            "n_requests": metrics.n_requests,
            "old_duration_us": metrics.old_duration_us,
            "new_duration_us": metrics.new_duration_us,
            "slept_idle_us": metrics.slept_idle_us,
            "n_async_gaps": metrics.n_async_gaps,
            "used_measured_tsdev": metrics.used_measured_tsdev,
            "n_chunks": metrics.n_chunks,
        }
        tmp = self.metrics_path.with_name(self.metrics_path.name + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.metrics_path)
