"""Baseline trace-reconstruction methods the paper compares against.

Five methods appear in the evaluation (Section V):

- ``Acceleration`` — divide all inter-arrival times by a constant
  factor (the paper borrows factor 100 from a flash-lifetime study);
- ``Revision`` — replay back-to-back on the target device;
- ``Fixed-th`` — replay, inferring idle with a single fixed
  threshold (the paper sweeps 10-100 ms on an HDD node and settles on
  10 ms);
- ``Dynamic`` — TraceTracker's inference-driven idle, but without the
  asynchronous post-processing;
- ``TraceTracker`` — the full pipeline
  (:class:`repro.core.pipeline.TraceTracker`).

``Dynamic`` is ``TraceTrackerMethod`` with post-processing switched off
by a class attribute.

All methods implement the same protocol — ``reconstruct(old_trace,
target) -> BlockTrace`` — so comparison harnesses treat them
uniformly.
"""

from __future__ import annotations

import abc

import numpy as np

from ..replay.batch import replay_back_to_back_batch, replay_with_idle_batch
from ..storage.device import StorageDevice
from ..trace.trace import BlockTrace
from .config import TraceTrackerConfig
from .pipeline import TraceTracker

__all__ = [
    "ReconstructionMethod",
    "Acceleration",
    "Revision",
    "FixedThreshold",
    "Dynamic",
    "TraceTrackerMethod",
    "standard_methods",
]


class ReconstructionMethod(abc.ABC):
    """Common protocol: old trace in, remastered trace out."""

    #: Display name used by benches and EXPERIMENTS.md tables.
    name: str = "method"

    @abc.abstractmethod
    def reconstruct(self, old_trace: BlockTrace, target: StorageDevice) -> BlockTrace:
        """Produce the remastered trace for the target device."""

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(name={self.name!r})"


class Acceleration(ReconstructionMethod):
    """Static acceleration: every timestamp divided by a constant.

    No replay happens — the target device is ignored — which is
    precisely the method's weakness: :math:`T_{cdel}`, :math:`T_{sdev}`
    and :math:`T_{idle}` are all scaled indiscriminately.
    """

    def __init__(self, factor: float = 100.0) -> None:
        if factor <= 0:
            raise ValueError("acceleration factor must be positive")
        self.factor = factor
        self.name = f"acceleration-{factor:g}x"

    def reconstruct(self, old_trace: BlockTrace, target: StorageDevice) -> BlockTrace:
        scaled = old_trace.rebased().timestamps / self.factor
        out = old_trace.with_timestamps(scaled)
        out.metadata["method"] = self.name
        return out


class Revision(ReconstructionMethod):
    """Back-to-back replay on the target device.

    Inter-arrival times become realistic for the new hardware, but all
    idleness and asynchronous overlap are dropped.
    """

    name = "revision"

    def reconstruct(self, old_trace: BlockTrace, target: StorageDevice) -> BlockTrace:
        return replay_back_to_back_batch(old_trace, target, method=self.name).trace


class FixedThreshold(ReconstructionMethod):
    """Replay with threshold-inferred idle.

    Any old gap above the threshold is assumed to contain
    ``gap - threshold`` of idle; gaps below it are assumed to be pure
    service time.  The threshold stands in for the *worst-case* device
    latency of the old storage.
    """

    def __init__(self, threshold_us: float = 10_000.0) -> None:
        if threshold_us <= 0:
            raise ValueError("threshold must be positive")
        self.threshold_us = threshold_us
        self.name = f"fixed-th-{threshold_us / 1000:g}ms"

    def reconstruct(self, old_trace: BlockTrace, target: StorageDevice) -> BlockTrace:
        gaps = old_trace.inter_arrival_times()
        idle = np.clip(gaps - self.threshold_us, 0.0, None)
        return replay_with_idle_batch(old_trace, target, idle_us=idle, method=self.name).trace


class TraceTrackerMethod(ReconstructionMethod):
    """The full pipeline wrapped in the comparison protocol."""

    name = "tracetracker"
    #: Whether the tracker revives asynchronous gaps after replay.
    postprocess = True

    def __init__(self) -> None:
        self._tracker = TraceTracker(TraceTrackerConfig(postprocess=self.postprocess))

    def reconstruct(self, old_trace: BlockTrace, target: StorageDevice) -> BlockTrace:
        trace = self._tracker.reconstruct(old_trace, target).trace
        trace.metadata["method"] = self.name
        return trace


class Dynamic(TraceTrackerMethod):
    """TraceTracker's inference-driven idle without post-processing."""

    name = "dynamic"
    postprocess = False


def standard_methods() -> list[ReconstructionMethod]:
    """The paper's five methods with their published parameters."""
    return [
        Acceleration(100.0),
        Revision(),
        FixedThreshold(10_000.0),
        Dynamic(),
        TraceTrackerMethod(),
    ]
