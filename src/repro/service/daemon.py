"""The always-on streaming reconstruction daemon (``repro-serve``).

Three threads around one bounded queue:

- the **ingest** thread polls the :mod:`~repro.service.sources` file
  tail, filters comment/blank lines (and the internal CSV header,
  including the repeats of a file made by concatenating CSVs), assembles
  fixed-size chunks of ``chunk_requests`` content lines — exactly the
  boundaries :class:`~repro.trace.io.reader.TraceReader` would cut — and
  pushes them through the :class:`~repro.service.backpressure` gate,
  waiting while it is closed;
- the **pipeline** thread (the caller of :meth:`run`) parses each
  chunk, quarantines poison records, feeds the parsed segment to a
  :class:`~repro.core.stages.StreamingReconstructionSession`, appends
  the emitted piece to the CSV sink, and commits a crash-consistent
  :mod:`~repro.service.checkpoint` once the queue holds no further
  chunk or ``queue_high`` chunks have been handled since the last
  commit (a *group commit*: a catch-up pays one commit per queue-full,
  a live tail one per chunk);
- the **watchdog** thread publishes ``status.json`` (rolling
  throughput, queue depth, lag, quarantine counters) and beats the
  heartbeat file.

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

**Drain semantics.**  SIGTERM/SIGINT stop ingest, let every chunk
already in the queue reconstruct and commit, and exit in ``stopped``
state — the partial tail chunk stays un-cut so a later run (or the
batch oracle) sees the same boundaries.  ``until_idle_s`` declares
end-of-stream after that much sustained source idleness: the daemon
then flushes the partial chunk and held torn fragments, finishes the
session, writes ``metrics.json``, and exits in ``finished`` state.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
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
from .backpressure import BoundedChunkQueue
from .checkpoint import StreamCheckpoint, load_checkpoint, save_checkpoint
from .sources import FileTailSource

__all__ = ["ServiceConfig", "StreamingReconstructionService"]

#: Terminal daemon states, as written to ``status.json``.
TERMINAL_STATES = ("finished", "stopped", "failed")


@dataclass
class ServiceConfig:
    """Knobs of one streaming reconstruction service."""

    fmt: str = "internal"
    chunk_requests: int = 256
    #: The queue's high watermark in chunks (it reopens at half), and
    #: the most chunks one checkpoint commit covers.
    queue_high: int = 8
    #: ``None`` follows forever (drain on SIGTERM); a number declares
    #: end-of-stream after that much sustained source idleness.
    until_idle_s: float | None = None
    poll_interval_s: float = 0.02
    status_interval_s: float = 1.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    name: str = "stream"

    def __post_init__(self) -> None:
        if self.fmt not in BULK_PARSERS:
            raise ValueError(
                f"unknown stream format {self.fmt!r}; choose from {sorted(BULK_PARSERS)}"
            )
        if self.chunk_requests <= 0:
            raise ValueError("chunk_requests must be positive")
        if self.until_idle_s is not None and self.until_idle_s < 0:
            raise ValueError("until_idle_s must be non-negative")


class _Counters:
    """Thread-shared counters (ingest and pipeline write, watchdog reads)."""

    # The checkpoint copies rows_consumed, rows_out and n_quarantined at
    # each commit, so status.json runs ahead of checkpoint.json by the
    # chunks handled since the last commit: at most queue_high.
    _FIELDS = (
        "rows_polled",       # raw lines seen by ingest this process
        "rows_consumed",     # content lines handled by the pipeline (checkpointed)
        "rows_out",          # reconstructed rows appended to the sink (checkpointed)
        "rows_queued",       # content lines currently resident in the queue
        "rows_buffered",     # content lines in the ingest assembler
        "n_quarantined",     # poison records dead-lettered (checkpointed)
        "n_header_repeats",  # repeated internal headers dropped (concatenated CSVs)
        "source_errors",     # transient source failures retried
        "n_commits",         # checkpoints committed by this process
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values = {name: 0 for name in self._FIELDS}

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self._values[name] += delta

    def set(self, **values: int) -> None:
        with self._lock:
            self._values.update(values)

    def __getitem__(self, name: str) -> int:
        with self._lock:
            return self._values[name]

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._values)


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
    pipeline's retry re-appends cleanly instead of duplicating rows.
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

        self._queue = BoundedChunkQueue(self.config.queue_high)
        self._counters = _Counters()
        self._sink = _CsvSink(self.sink_path)
        self._quarantine = _DeadLetterLog(self.quarantine_path)
        self._session: StreamingReconstructionSession | None = None

        self._stop = threading.Event()   # drain requested (signal or API)
        self._done = threading.Event()   # pipeline loop exited
        self._state_lock = threading.Lock()
        self._state = "starting"
        self._header: str | None = None
        self._rebase_offset: float | None = None
        self._last_old_ts: float | None = None
        self._last_cursor: Any = None  # after the last chunk handled
        self._last_source_error: str | None = None
        self._fatal: str | None = None
        self._started_at = time.time()
        self._parse = BULK_PARSERS[self.config.fmt]

    # -- public control ------------------------------------------------

    @property
    def outcome(self) -> str:
        """Terminal state after :meth:`run` ('finished'/'stopped'/'failed')."""
        with self._state_lock:
            return self._state

    def request_stop(self) -> None:
        """Ask the daemon to drain in-flight chunks and exit."""
        with self._state_lock:
            if self._state not in TERMINAL_STATES:
                self._state = "draining"
        self._stop.set()

    # -- lifecycle -------------------------------------------------------

    def run(self, install_signal_handlers: bool = True) -> ReconstructionMetrics | None:
        """Run until end-of-stream, drain, or permanent failure.

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
                with self._state_lock:
                    self._state = "failed"
                self._write_status()
                return None
            self._header = cp.header
            self._rebase_offset = cp.rebase_offset
            self._last_old_ts = cp.last_old_ts
            self._last_cursor = cp.source_cursor
            self._counters.set(
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

        with self._state_lock:
            if self._state == "starting":
                self._state = "running"
        ingest = threading.Thread(target=self._ingest, name="repro-serve-ingest", daemon=True)
        watchdog = threading.Thread(
            target=self._watchdog, name="repro-serve-watchdog", daemon=True
        )
        ingest.start()
        watchdog.start()
        self._write_status()  # publish the running state before the first tick

        try:
            outcome = self._pipeline_loop(session)
        finally:
            self._stop.set()
            self._done.set()
            ingest.join(timeout=5.0)
            watchdog.join(timeout=5.0)
            self.source.close()
            self._sink.close()
            self._quarantine.close()
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)

        metrics: ReconstructionMetrics | None = None
        if outcome == "finished" and session.n_requests > 0:
            metrics = session.metrics()
            self._write_metrics(metrics)
        with self._state_lock:
            self._state = outcome
        self._write_status()
        return metrics

    # -- pipeline thread -------------------------------------------------

    def _pipeline_loop(self, session: StreamingReconstructionSession) -> str:
        # Group commit: chunks handled since the last commit.  A raise
        # below exits without committing them (the session may hold a
        # chunk whose sink append rolled back); a restart redoes them.
        pending = 0
        while True:
            item = self._queue.get(timeout=0.2)
            if item is None:
                continue
            kind, rows, cursor = item
            try:
                if kind == "chunk":
                    self._handle_chunk(session, rows, cursor)
                    pending += 1
                    if pending >= self.config.queue_high or self._queue.depth() == 0:
                        self._commit(session)
                        pending = 0
                elif kind == "eof":
                    if rows:
                        self._handle_chunk(session, rows, cursor)
                    piece = session.finish()
                    if piece is not None:
                        self._sink.append(piece)
                        self._counters.add(rows_out=len(piece))
                    self._commit(session)
                    return "finished"
                elif kind in ("stop", "fail"):
                    if pending:
                        self._commit(session)
                    if kind == "stop":
                        return "stopped"
                    self._fatal = str(rows)
                    return "failed"
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 - fail loudly, not silently
                self._fatal = f"{type(exc).__name__}: {exc}"
                return "failed"

    def _handle_chunk(
        self,
        session: StreamingReconstructionSession,
        rows: list[tuple[str, Any]],
        cursor: Any,
    ) -> None:
        """Parse, quarantine, reconstruct and append one chunk (no commit)."""
        lines = [text for text, _ in rows]
        self._counters.add(rows_queued=-len(rows))
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
            # append + checkpoint pair retries under the policy.
            final_piece = piece
            retry_call(
                lambda: self._sink.append(final_piece),
                key=f"sink@{self._sink.nbytes}",
                policy=self.config.retry,
            )
            self._counters.add(rows_out=len(piece))
        self._counters.add(rows_consumed=len(rows))
        self._last_cursor = cursor

    def _commit(self, session: StreamingReconstructionSession) -> None:
        """Durably commit the chunks handled so far: data files, then the checkpoint."""
        counters = self._counters.snapshot()
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

        retry_call(_write, key=f"checkpoint@{self._sink.nbytes}", policy=self.config.retry)
        self._counters.add(n_commits=1)

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
        self._counters.add(n_quarantined=1)

    # -- ingest thread ---------------------------------------------------

    def _ingest(self) -> None:
        cfg = self.config
        assembled: list[tuple[str, Any]] = []
        idle_since: float | None = None
        attempt = 0
        try:
            while True:
                if self._stop.is_set():
                    self._queue.put(("stop", None, None), force=True)
                    return
                try:
                    batch = self.source.poll()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:  # noqa: BLE001 - the taxonomy decides
                    if classify_error(exc) == "permanent":
                        self._queue.put(
                            ("fail", f"source: {type(exc).__name__}: {exc}", None),
                            force=True,
                        )
                        return
                    self._last_source_error = f"{type(exc).__name__}: {exc}"
                    self._counters.add(source_errors=1)
                    # Retry forever — always-on — but with the policy's
                    # *capped* deterministic backoff.
                    delay = cfg.retry.delay_s(
                        "source-poll", min(attempt, cfg.retry.max_attempts - 1)
                    )
                    attempt += 1
                    self._stop.wait(delay)
                    continue
                attempt = 0
                if batch:
                    idle_since = None
                    self._assemble(batch, assembled)
                    continue
                if cfg.until_idle_s is not None and self.source.idle():
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if now - idle_since >= cfg.until_idle_s:
                        for text, cursor in self.source.eof_flush():
                            self._accept_line(text, cursor, assembled)
                        self._flush_full_chunks(assembled)
                        cursor = assembled[-1][1] if assembled else None
                        self._queue.put(("eof", list(assembled), cursor), force=True)
                        self._counters.add(rows_queued=len(assembled))
                        self._counters.set(rows_buffered=0)
                        return
                else:
                    idle_since = None
                self._stop.wait(cfg.poll_interval_s)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - never die silently
            self._queue.put(("fail", f"ingest: {type(exc).__name__}: {exc}", None), force=True)

    def _assemble(self, batch: list[tuple[str, Any]], assembled: list[tuple[str, Any]]) -> None:
        for text, cursor in batch:
            self._accept_line(text, cursor, assembled)
        self._flush_full_chunks(assembled)
        self._counters.set(rows_buffered=len(assembled))

    def _accept_line(
        self, text: str, cursor: Any, assembled: list[tuple[str, Any]]
    ) -> None:
        """Apply the TraceReader line discipline: strip, drop, de-header."""
        self._counters.add(rows_polled=1)
        line = text.strip()
        if not line or line.startswith("#"):
            return
        if self.config.fmt == "internal":
            with self._state_lock:
                if self._header is None:
                    self._header = line
                    return
                header = self._header
            if line == header:
                # A file made by concatenating CSVs repeats the header.
                self._counters.add(n_header_repeats=1)
                return
        assembled.append((line, cursor))

    def _flush_full_chunks(self, assembled: list[tuple[str, Any]]) -> None:
        n = self.config.chunk_requests
        while len(assembled) >= n and not self._stop.is_set():
            rows = assembled[:n]
            if not self._queue.put(("chunk", rows, rows[-1][1]), should_abort=self._stop.is_set):
                return  # aborted mid-block; restart re-reads from the cursor
            del assembled[:n]
            self._counters.add(rows_queued=len(rows))

    # -- watchdog thread -------------------------------------------------

    def _watchdog(self) -> None:
        samples: deque[tuple[float, int]] = deque(maxlen=32)
        while not self._done.wait(self.config.status_interval_s):
            samples.append((time.monotonic(), self._counters["rows_out"]))
            self._write_status(self._throughput(samples))
            write_heartbeat(self.heartbeat_path)

    @staticmethod
    def _throughput(samples: deque[tuple[float, int]]) -> float:
        if len(samples) < 2:
            return 0.0
        (t0, r0), (t1, r1) = samples[0], samples[-1]
        return (r1 - r0) / (t1 - t0) if t1 > t0 else 0.0

    def _write_status(self, throughput_rps: float = 0.0) -> None:
        counters = self._counters.snapshot()
        with self._state_lock:
            state = self._state
        session = self._session
        payload: dict[str, Any] = {
            "state": state,
            "pid": os.getpid(),
            "started_at": self._started_at,
            "updated_at": time.time(),
            "source": self.source.describe(),
            "fmt": self.config.fmt,
            "chunk_requests": self.config.chunk_requests,
            "until_idle_s": self.config.until_idle_s,
            "queue": self._queue.stats(),
            "counters": counters,
            "lag_rows": counters["rows_queued"] + counters["rows_buffered"],
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
