"""The TraceTracker pipeline: infer → emulate → post-process.

This is the paper's primary contribution assembled from the substrates:

1. **software evaluation** — infer the old system's latency model from
   the trace alone (or read it off measured stamps when available) and
   decompose every inter-arrival gap into device time and idle time
   (:mod:`repro.inference`);
2. **hardware evaluation** — replay the request pattern on the target
   device, sleeping the inferred idle between requests, collecting the
   new trace blktrace-style (:mod:`repro.replay`);
3. **post-processing** — restore asynchronous-submission timing where
   the old trace shows the submitter cannot have waited
   (:mod:`repro.replay.postprocess`).

The stages live in :mod:`repro.core.stages`.  :class:`TraceTracker`
holds them and runs them itself: :meth:`~TraceTracker.reconstruct`
over a whole trace, and :meth:`~TraceTracker.reconstruct_stream` and
:meth:`~TraceTracker.stream_session` over time-ordered chunks of a
trace larger than memory.  Both take the per-segment path of
:func:`~repro.core.stages.reconstruct_segment`; they differ only in
where the idle decomposition comes from.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..inference.idle import IdleExtraction
from ..storage.device import StorageDevice
from ..trace.trace import BlockTrace
from .config import TraceTrackerConfig
from .stages import (
    EmulateStage,
    InferStage,
    MetricsStage,
    PostprocessStage,
    ReconstructionMetrics,
    StreamedReconstruction,
    StreamingReconstructionSession,
    reconstruct_segment,
)

__all__ = ["ReconstructionResult", "TraceTracker"]


@dataclass(frozen=True, slots=True)
class ReconstructionResult:
    """Everything a reconstruction run produced.

    Attributes
    ----------
    trace:
        The remastered block trace on the target device.
    extraction:
        The idle decomposition of the old trace (model, idle array,
        async mask) — Figure 16/17 style analyses read from here.
    async_indices:
        Old-trace gap indices treated as asynchronous submissions.
    method:
        Label (``"tracetracker"`` for the full pipeline).
    metrics:
        Aggregate numbers for the run (durations, idle slept, async
        revivals) from the metrics stage.
    """

    trace: BlockTrace
    extraction: IdleExtraction
    async_indices: np.ndarray
    method: str
    metrics: ReconstructionMetrics


class TraceTracker:
    """Hardware/software co-evaluation trace reconstructor.

    >>> from repro.storage import FlashArray
    >>> from repro.workloads import get_spec, generate_intents, collect_trace
    >>> from repro.storage import HDDModel
    >>> old = collect_trace(generate_intents(get_spec("MSNFS").scaled(500)), HDDModel())
    >>> result = TraceTracker().reconstruct(old, FlashArray())
    >>> len(result.trace) == len(old)
    True
    """

    method_name = "tracetracker"

    def __init__(self, config: TraceTrackerConfig | None = None) -> None:
        self.config = config or TraceTrackerConfig()
        self.infer = InferStage()
        self.emulate = EmulateStage(method=self.method_name)
        self.postprocess = PostprocessStage() if self.config.postprocess else None
        self.metrics = MetricsStage()

    def reconstruct(self, old_trace: BlockTrace, target: StorageDevice) -> ReconstructionResult:
        """Remaster ``old_trace`` for the ``target`` storage system.

        Returns the reconstructed trace plus all intermediate artefacts.
        The old trace is not modified.
        """
        extraction = self.infer.run(old_trace)
        new_trace, async_indices = reconstruct_segment(
            old_trace, target, extraction, self.emulate, self.postprocess
        )
        return ReconstructionResult(
            trace=new_trace,
            extraction=extraction,
            async_indices=async_indices,
            method=self.method_name,
            metrics=self.metrics.run(old_trace, new_trace, extraction, async_indices),
        )

    def reconstruct_stream(
        self, chunks: Iterable[BlockTrace], target: StorageDevice
    ) -> StreamedReconstruction:
        """Remaster a trace delivered as time-ordered chunks.

        ``chunks`` is any iterable of :class:`BlockTrace` segments —
        typically a :class:`~repro.trace.io.reader.TraceReader` over a
        file too large to materialise.  One :meth:`stream_session`
        consumes them; see
        :class:`~repro.core.stages.StreamingReconstructionSession` for
        the carry-over semantics and the stream's one latency model.
        """
        session = self.stream_session(target)
        pieces: list[BlockTrace] = []
        for chunk in chunks:
            piece = session.feed(chunk)
            if piece is not None:
                pieces.append(piece)
        tail = session.finish()
        if tail is not None:
            pieces.append(tail)
        if not pieces:
            raise ValueError("cannot reconstruct an empty stream")
        return StreamedReconstruction(
            trace=BlockTrace.concat_all(pieces),
            metrics=session.metrics(),
            method=self.method_name,
        )

    def stream_session(self, target: StorageDevice) -> StreamingReconstructionSession:
        """A resumable chunk-at-a-time reconstruction session.

        The incremental form of :meth:`reconstruct_stream`: the
        streaming service (:mod:`repro.service`) feeds it chunks as
        they arrive and checkpoints its state between chunks, so a
        killed daemon resumes bit-identically.
        """
        return StreamingReconstructionSession(self, target)
