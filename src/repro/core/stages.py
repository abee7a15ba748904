"""The reconstruction stages and the per-segment sequence they run in.

A reconstruction is four stage objects, each a small callable with one
responsibility:

- :class:`InferStage` — software evaluation: decompose every old-trace
  gap into device time and idle time (measured or inferred model);
- :class:`EmulateStage` — hardware evaluation: replay the request
  pattern on the target device, sleeping the inferred idle;
- :class:`PostprocessStage` — restore asynchronous-submission timing
  where the old trace shows the submitter cannot have waited;
- :class:`MetricsStage` — summarise what the run did (durations, idle
  slept, async revivals) into :class:`ReconstructionMetrics`.

:class:`~repro.core.pipeline.TraceTracker` holds the stages.  Once a
segment's gaps are decomposed, :func:`reconstruct_segment` flags its
asynchronous gaps, emulates it and post-processes it; the whole-trace
run and :class:`StreamingReconstructionSession` both call it, so batch
and stream differ only in where the idle decomposition comes from.
The session consumes a trace as time-ordered
:class:`~repro.trace.trace.BlockTrace` chunks (e.g. from a
:class:`~repro.trace.io.reader.TraceReader`), reconstructing each
segment as it arrives with one request of carry-over so the
chunk-boundary gaps are decomposed too.  Peak *working-set* memory
(parse buffers, per-gap extraction arrays, replay state) is bounded by
the chunk size; only the reconstructed output columns accumulate.

Streaming notes:

- Each chunk's replay starts from a cold target device, so
  order-dependent simulator state (head position, write-buffer fill)
  does not flow across chunk boundaries.  For gap-invariant devices
  the chunked and whole-trace reconstructions agree to float rounding;
  for gap-sensitive devices they differ exactly as two independent
  cold runs would.
- A stream has one latency model, because the model describes the
  old device, not a window of it.  Chunks without device stamps are
  decomposed by a fit of their own only during a warm-up of
  :attr:`StreamingReconstructionSession.WARMUP_FITS` fits; the
  coefficient-wise median of those fits is then frozen and decomposes
  every later chunk.  A chunk too short to fit alone borrows the
  median of the fits made before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..inference.idle import IdleExtraction, extract_idle, extract_idle_with_model
from ..inference.model import LatencyModel
from ..replay.batch import replay_with_idle_batch
from ..replay.postprocess import detect_async_indices, revive_async
from ..replay.replayer import ReplayResult
from ..storage.device import StorageDevice
from ..trace.trace import BlockTrace
from .config import TraceTrackerConfig

if TYPE_CHECKING:
    from .pipeline import TraceTracker

__all__ = [
    "InferStage",
    "EmulateStage",
    "PostprocessStage",
    "MetricsStage",
    "ReconstructionMetrics",
    "StreamedReconstruction",
    "StreamingReconstructionSession",
    "reconstruct_segment",
    "span_speedup",
]


def span_speedup(old_duration_us: float, new_duration_us: float) -> float:
    """Old span over new span (how much faster the new system is).

    An empty new span reads as infinitely faster, or as 1 when the old
    span is empty too.
    """
    if new_duration_us <= 0.0:
        return float("inf") if old_duration_us > 0 else 1.0
    return old_duration_us / new_duration_us


@dataclass(frozen=True, slots=True)
class ReconstructionMetrics:
    """What one reconstruction run did, in numbers.

    Attributes
    ----------
    n_requests:
        Requests reconstructed.
    old_duration_us / new_duration_us:
        Trace spans before and after remastering.
    slept_idle_us:
        Total inferred idle the emulation preserved.
    n_async_gaps:
        Old-trace gaps classified as asynchronous submissions.
    used_measured_tsdev:
        ``True`` when the ":math:`T_{sdev}` known" fast path ran.
    n_chunks:
        Segments processed (1 for whole-trace runs).
    """

    n_requests: int
    old_duration_us: float
    new_duration_us: float
    slept_idle_us: float
    n_async_gaps: int
    used_measured_tsdev: bool
    n_chunks: int = 1

    @property
    def speedup(self) -> float:
        """Old span over new span (see :func:`span_speedup`)."""
        return span_speedup(self.old_duration_us, self.new_duration_us)


@dataclass(frozen=True, slots=True)
class InferStage:
    """Software evaluation: gap decomposition into T_sdev + T_idle."""

    def run(self, old_trace: BlockTrace, model: LatencyModel | None = None) -> IdleExtraction:
        """Decompose every inter-arrival gap of ``old_trace``.

        Measured device times win when the trace carries them (the
        paper's ":math:`T_{sdev}` known" fast path).  Otherwise
        ``model`` decomposes the gaps when given; with no model, one
        is inferred from ``old_trace`` itself.
        """
        if model is not None and not old_trace.has_device_times:
            return extract_idle_with_model(old_trace, model)
        return extract_idle(old_trace)


@dataclass(frozen=True, slots=True)
class EmulateStage:
    """Hardware evaluation: replay the pattern with inferred idles."""

    method: str = "tracetracker"

    def run(
        self, old_trace: BlockTrace, target: StorageDevice, idle_us: np.ndarray
    ) -> ReplayResult:
        """Replay ``old_trace``'s pattern on ``target``, sleeping ``idle_us``."""
        return replay_with_idle_batch(old_trace, target, idle_us=idle_us, method=self.method)


@dataclass(frozen=True, slots=True)
class PostprocessStage:
    """Asynchronous-timing revival on the replayed trace."""

    #: Floor for each revived gap (a submission still needs a sliver of
    #: host time).
    min_async_gap_us: float = TraceTrackerConfig.min_async_gap_us

    def run(
        self,
        replay: ReplayResult,
        extraction: IdleExtraction,
        async_indices: np.ndarray,
    ) -> BlockTrace:
        """Revive asynchronous submission gaps on the replayed trace."""
        # An async submitter still pays the channel hand-off, so each
        # revived gap is floored at the request's measured channel
        # occupancy on the new device.
        channel_floor = np.maximum(replay.channel_delays()[:-1], self.min_async_gap_us)
        return revive_async(
            replay.trace,
            async_indices,
            min_gap_us=channel_floor,
            old_gaps_us=extraction.tintt_us,
        )


@dataclass(frozen=True, slots=True)
class MetricsStage:
    """Summarise a reconstruction into :class:`ReconstructionMetrics`."""

    def run(
        self,
        old_trace: BlockTrace,
        new_trace: BlockTrace,
        extraction: IdleExtraction,
        async_indices: np.ndarray,
        n_chunks: int = 1,
    ) -> ReconstructionMetrics:
        """Fold the stage artefacts into one metrics record."""
        return ReconstructionMetrics(
            n_requests=len(new_trace),
            old_duration_us=old_trace.duration,
            new_duration_us=new_trace.duration,
            slept_idle_us=extraction.total_idle_us(),
            n_async_gaps=int(async_indices.size),
            used_measured_tsdev=extraction.used_measured_tsdev,
            n_chunks=n_chunks,
        )


@dataclass(frozen=True, slots=True)
class StreamedReconstruction:
    """Output of a chunked reconstruction run.

    The per-gap extraction arrays are not retained (that is the point
    of streaming); :attr:`metrics` carries the aggregate numbers.
    """

    trace: BlockTrace
    metrics: ReconstructionMetrics
    method: str


def reconstruct_segment(
    old_trace: BlockTrace,
    target: StorageDevice,
    extraction: IdleExtraction,
    emulate: EmulateStage,
    postprocess: PostprocessStage | None,
) -> tuple[BlockTrace, np.ndarray]:
    """Reconstruct one segment whose gaps ``extraction`` decomposed.

    Flags the asynchronous gaps, replays ``old_trace``'s pattern on
    ``target`` sleeping the inferred idle, and revives the async gaps
    unless ``postprocess`` is ``None`` (the paper's ``Dynamic``).
    Returns the new trace and the async gap indices.  A whole-trace
    run calls this once; a streaming session once per chunk.
    """
    async_indices = detect_async_indices(extraction.tintt_us, extraction.tsdev_us)
    replay = emulate.run(old_trace, target, extraction.tidle_us)
    new_trace = replay.trace
    if postprocess is not None:
        new_trace = postprocess.run(replay, extraction, async_indices)
    return new_trace, async_indices


def _trace_to_state(trace: BlockTrace | None) -> dict | None:
    """JSON-able columns of a (tiny) carry/pending trace.

    Floats round-trip exactly: ``json`` serialises via ``repr``, which
    emits the shortest string that parses back to the same binary64 —
    so a restored session replays bit-identically.
    """
    if trace is None:
        return None
    return {
        "timestamps": trace.timestamps.tolist(),
        "lbas": trace.lbas.tolist(),
        "sizes": trace.sizes.tolist(),
        "ops": trace.ops.tolist(),
        "issues": None if trace.issues is None else trace.issues.tolist(),
        "completes": None if trace.completes is None else trace.completes.tolist(),
        "syncs": None if trace.syncs is None else trace.syncs.tolist(),
        "name": trace.name,
        "metadata": dict(trace.metadata),
    }


def _trace_from_state(state: dict | None) -> BlockTrace | None:
    """Rebuild a carry/pending trace from :func:`_trace_to_state`."""
    if state is None:
        return None
    return BlockTrace(
        timestamps=state["timestamps"],
        lbas=state["lbas"],
        sizes=state["sizes"],
        ops=state["ops"],
        issues=state["issues"],
        completes=state["completes"],
        syncs=state["syncs"],
        name=state["name"],
        metadata=state["metadata"],
    )


def _median_model(fits: list[LatencyModel]) -> LatencyModel:
    """The coefficient-wise median of ``fits``."""
    columns = [fit.describe() for fit in fits]
    return LatencyModel(
        **{key: float(np.median([c[key] for c in columns])) for key in columns[0]}
    )


class StreamingReconstructionSession:
    """Chunk-at-a-time reconstruction with checkpointable state.

    The engine of :meth:`~repro.core.pipeline.TraceTracker.
    reconstruct_stream`, one chunk at a time: :meth:`feed` consumes one
    chunk and returns the reconstructed piece already spliced onto the
    output timeline (or ``None`` while the stream is still too short to
    decompose), :meth:`finish` flushes a single-request stream, and
    :meth:`metrics` folds the running aggregates into
    :class:`ReconstructionMetrics`.  Each chunk is processed with the
    previous chunk's last request prepended (the *carry*), so the
    boundary gap gets the same idle decomposition an uncut trace would
    give it; the carry's replayed copy is then dropped and the segment
    is spliced onto the output timeline at the carry's already-emitted
    submit time.

    **One latency model per stream.**  The inferred model describes the
    old device, not a chunk.  So the session fits a model to each chunk
    that needs inference only until it holds :attr:`WARMUP_FITS` fits
    (the warm-up).  It then freezes the coefficient-wise median of
    those fits and decomposes every later chunk with it.  A warm-up
    chunk whose own fit fails (no request group large enough) is
    decomposed with the median of the fits made so far and adds no
    fit; with no fit yet, the error stands.  Chunks with device stamps
    take the measured path throughout.

    The whole cross-chunk state is the carried request, the warm-up
    fits, the frozen model and a handful of scalars; :meth:`state_dict`
    serialises it to a JSON-able dict and :meth:`load_state` restores
    it, so a process SIGKILLed between chunks resumes with output
    bit-identical to an uninterrupted run.  State commits only after a
    chunk fully reconstructs — a chunk that raises mid-flight leaves
    the session unchanged and retryable.
    """

    #: Version stamp carried by :meth:`state_dict` documents.
    STATE_VERSION = 2
    #: Chunk fits whose coefficient-wise median becomes the frozen model.
    WARMUP_FITS = 16

    def __init__(self, tracker: TraceTracker, target: StorageDevice) -> None:
        self.tracker = tracker
        self.target = target
        self._carry: BlockTrace | None = None
        self._pending: BlockTrace | None = None  # undersized head segments
        self._splice_at = 0.0
        self._old_duration = 0.0
        self._old_start: float | None = None
        self._slept = 0.0
        self._n_async = 0
        self._used_measured = True
        self._n_chunks = 0
        self._n_requests = 0
        self._out_start: float | None = None
        self._out_last: float | None = None
        self._fits: list[LatencyModel] = []
        self._model: LatencyModel | None = None

    # -- driving -------------------------------------------------------

    def feed(self, chunk: BlockTrace) -> BlockTrace | None:
        """Consume one time-ordered chunk; return the emitted piece.

        Returns ``None`` for empty chunks and while the stream head is
        still a single request (folded into the next chunk).  The
        returned piece is final — already shifted to its splice point —
        and is never revised by later chunks.  The chunk's gaps are
        decomposed by its own fit during warm-up and by the frozen
        model after it (see the class docstring).
        """
        if len(chunk) == 0:
            return None
        old_start = (
            float(chunk.timestamps[0]) if self._old_start is None else self._old_start
        )
        old_duration = float(chunk.timestamps[-1]) - old_start
        if self._pending is not None:
            chunk = self._pending.concat(chunk)
        work = chunk if self._carry is None else self._carry.concat(chunk)
        if len(work) < 2:
            # A 1-request stream head cannot be decomposed yet; fold it
            # into the next chunk (carry stays unset — the request is
            # still waiting to be reconstructed).
            self._old_start = old_start
            self._old_duration = old_duration
            self._pending = work
            return None
        extraction, fits = self._extract(work)
        new_work, async_indices = reconstruct_segment(
            work, self.target, extraction, self.tracker.emulate, self.tracker.postprocess
        )
        if self._carry is None:
            piece = new_work
        else:
            # Drop the carry's replayed copy; keep the boundary gap by
            # aligning the carry at its previously-emitted time.
            piece = new_work.select(slice(1, None)).shifted(
                self._splice_at - float(new_work.timestamps[0])
            )
        # The chunk fully reconstructed — commit the session state.
        # Each gap is decomposed exactly once: work_k's gaps are
        # chunk_k's internal gaps plus the one boundary gap its carry
        # introduces, and the carry advances every round.
        self._old_start = old_start
        self._old_duration = old_duration
        self._pending = None
        self._n_chunks += 1
        self._slept += float(extraction.tidle_us.sum())
        self._n_async += int(async_indices.size)
        self._used_measured = self._used_measured and extraction.used_measured_tsdev
        self._splice_at = float(piece.timestamps[-1])
        self._carry = chunk.select(slice(-1, None))
        self._fits = fits
        if self._model is None and len(fits) >= self.WARMUP_FITS:
            self._model = _median_model(fits)
        self._record_piece(piece)
        return piece

    def _extract(self, work: BlockTrace) -> tuple[IdleExtraction, list[LatencyModel]]:
        """Decompose ``work``'s gaps; return the extraction and the fits after it."""
        infer = self.tracker.infer
        if self._model is not None:
            return infer.run(work, model=self._model), self._fits
        try:
            extraction = infer.run(work)
        except ValueError:
            if not self._fits:
                raise
            return infer.run(work, model=_median_model(self._fits)), self._fits
        if extraction.report is None:  # measured device times: nothing was fitted
            return extraction, self._fits
        return extraction, [*self._fits, extraction.report.model]

    def finish(self) -> BlockTrace | None:
        """Flush a stream that ended while still a single request.

        Returns the bare replay of the held request, or ``None`` when
        there is nothing pending (the common case).  Idempotent.
        """
        if self._pending is None:
            return None
        # The whole stream held a single request: replay it bare.
        replay = self.tracker.emulate.run(
            self._pending, self.target, np.zeros(len(self._pending))
        )
        piece = replay.trace
        self._pending = None
        self._n_chunks += 1
        self._record_piece(piece)
        return piece

    def _record_piece(self, piece: BlockTrace) -> None:
        """Track output extent/counters for incremental metrics."""
        self._n_requests += len(piece)
        if self._out_start is None:
            self._out_start = float(piece.timestamps[0])
        self._out_last = float(piece.timestamps[-1])

    # -- aggregates ----------------------------------------------------

    @property
    def n_chunks(self) -> int:
        """Segments reconstructed so far."""
        return self._n_chunks

    @property
    def n_requests(self) -> int:
        """Requests emitted so far."""
        return self._n_requests

    def metrics(self) -> ReconstructionMetrics:
        """The running aggregates as :class:`ReconstructionMetrics`.

        Equal to the metrics of the concatenated output — the duration
        is the same two floats subtracted, the counters the same sums.
        """
        if self._n_requests == 0:
            raise ValueError("cannot reconstruct an empty stream")
        if self._n_requests < 2 or self._out_start is None or self._out_last is None:
            new_duration = 0.0
        else:
            new_duration = self._out_last - self._out_start
        return ReconstructionMetrics(
            n_requests=self._n_requests,
            old_duration_us=self._old_duration,
            new_duration_us=new_duration,
            slept_idle_us=self._slept,
            n_async_gaps=self._n_async,
            used_measured_tsdev=self._used_measured,
            n_chunks=self._n_chunks,
        )

    # -- checkpointing -------------------------------------------------

    def state_dict(self) -> dict:
        """The full cross-chunk state as a JSON-able dict."""
        return {
            "version": self.STATE_VERSION,
            "carry": _trace_to_state(self._carry),
            "pending": _trace_to_state(self._pending),
            "splice_at": self._splice_at,
            "old_duration": self._old_duration,
            "old_start": self._old_start,
            "slept": self._slept,
            "n_async": self._n_async,
            "used_measured": self._used_measured,
            "n_chunks": self._n_chunks,
            "n_requests": self._n_requests,
            "out_start": self._out_start,
            "out_last": self._out_last,
            "fits": [fit.describe() for fit in self._fits],
            "model": None if self._model is None else self._model.describe(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this session.

        Raises ``ValueError`` for a document of another
        :attr:`STATE_VERSION` and ``KeyError`` for one missing a field.
        """
        if state.get("version") != self.STATE_VERSION:
            raise ValueError(
                f"unsupported stream-session state version {state.get('version')!r}"
            )
        self._carry = _trace_from_state(state["carry"])
        self._pending = _trace_from_state(state["pending"])
        self._splice_at = float(state["splice_at"])
        self._old_duration = float(state["old_duration"])
        self._old_start = None if state["old_start"] is None else float(state["old_start"])
        self._slept = float(state["slept"])
        self._n_async = int(state["n_async"])
        self._used_measured = bool(state["used_measured"])
        self._n_chunks = int(state["n_chunks"])
        self._n_requests = int(state["n_requests"])
        self._out_start = None if state["out_start"] is None else float(state["out_start"])
        self._out_last = None if state["out_last"] is None else float(state["out_last"])
        self._fits = [LatencyModel(**fit) for fit in state["fits"]]
        self._model = None if state["model"] is None else LatencyModel(**state["model"])
