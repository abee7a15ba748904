"""Trace replayer: the hardware-emulation half of TraceTracker.

Section IV: "We then delay :math:`T_{idle}` using sleep() and issue the
i-th I/O instruction (composed of the same information of the old block
trace) to the underlying brand-new device.  We iterate this process for
all n I/O instructions.  During this phase, we collect the new block
trace using blktrace."

Here the sleep is virtual (the replayer advances a virtual clock) and
the device is a simulator, but the arithmetic is identical: request
``i + 1`` is submitted ``idle[i]`` microseconds after request ``i``
completes on the *new* device.  The collector records what blktrace
would see: submit, issue, and completion stamps per request.
"""

from __future__ import annotations

import numpy as np

from ..storage.device import Completion, StorageDevice
from ..trace.record import OpType
from ..trace.trace import BlockTrace
from .collector import TraceCollector

__all__ = ["ReplayResult", "replay_with_idle", "replay_back_to_back"]


def _validated_idle(n: int, idle_us: np.ndarray | None) -> np.ndarray:
    """Checked idle periods for an ``n``-request replay.

    The one idle validator every replay engine shares.  ``idle_us`` may
    have length ``n - 1`` or ``n`` (the trailing entry is ignored);
    ``None`` means no idle and yields ``n - 1`` zeros.  Negative or
    non-finite periods raise ``ValueError`` before the device is
    touched: a NaN or infinite think time would otherwise poison every
    later stamp.
    """
    if idle_us is None:
        return np.zeros(max(0, n - 1), dtype=np.float64)
    idle_arr = np.asarray(idle_us, dtype=np.float64)
    if len(idle_arr) not in (n - 1, n):
        raise ValueError(f"idle array must have length {n - 1} (or {n}), got {len(idle_arr)}")
    if not np.isfinite(idle_arr).all() or (idle_arr < 0).any():
        raise ValueError("idle periods must be finite and non-negative")
    return idle_arr


def _check_requests(old_trace: BlockTrace) -> None:
    """Reject request rows the scalar oracles refuse, before any device state changes.

    The one request-column check both fast replay entry points share.
    They never call ``submit`` and read op codes as "0 is a read,
    anything else a write", so without it a negative LBA or a code
    outside :class:`~repro.trace.record.OpType` would replay where
    :func:`replay_with_idle` and ``replay_queue_depth_scalar`` raise.
    The errors are the oracles' own, for the first offending row.
    """
    if np.any(old_trace.lbas < 0):
        raise ValueError("lba must be non-negative")
    ops = old_trace.ops
    if ops.min() < OpType.READ or ops.max() > OpType.WRITE:
        bad = ops[(ops < OpType.READ) | (ops > OpType.WRITE)]
        raise ValueError(f"{int(bad[0])} is not a valid OpType")


class ReplayResult:
    """Outcome of a replay run, stamp columns in array form.

    Attributes
    ----------
    trace:
        The newly collected block trace (with measured device times).
    device_name:
        The device the replay ran against.
    submits, acks, starts, finishes:
        Per-request timing columns (µs), aligned with the trace — the
        four stamps of a :class:`~repro.storage.device.Completion`.
        Both the scalar and the vectorised batch replay engines fill
        these; the row-wise ``completions`` view is materialised only
        on demand.
    """

    __slots__ = ("trace", "device_name", "submits", "acks", "starts", "finishes", "_completions")

    def __init__(
        self,
        trace: BlockTrace,
        device_name: str,
        submits: np.ndarray,
        acks: np.ndarray,
        starts: np.ndarray,
        finishes: np.ndarray,
        completions: tuple[Completion, ...] | None = None,
    ) -> None:
        self.trace = trace
        self.device_name = device_name
        self.submits = np.asarray(submits, dtype=np.float64)
        self.acks = np.asarray(acks, dtype=np.float64)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.finishes = np.asarray(finishes, dtype=np.float64)
        self._completions = completions

    @property
    def completions(self) -> tuple[Completion, ...]:
        """Row-wise completion stamps (materialised lazily)."""
        if self._completions is None:
            self._completions = tuple(
                Completion(submit=s, start=st, ack=a, finish=f)
                for s, st, a, f in zip(
                    self.submits.tolist(),
                    self.starts.tolist(),
                    self.acks.tolist(),
                    self.finishes.tolist(),
                )
            )
        return self._completions

    def device_times(self) -> np.ndarray:
        """Measured per-request device times on the new hardware."""
        return self.finishes - self.starts

    def latencies(self) -> np.ndarray:
        """End-to-end per-request latencies ``finish - submit``."""
        return self.finishes - self.submits

    def channel_delays(self) -> np.ndarray:
        """Per-request host-interface occupancy ``ack - submit``."""
        return self.acks - self.submits


def replay_with_idle(
    old_trace: BlockTrace,
    device: StorageDevice,
    idle_us: np.ndarray | None = None,
    method: str = "replay",
) -> ReplayResult:
    """Replay a trace on a device, sleeping ``idle_us[i]`` after request ``i``.

    Parameters
    ----------
    old_trace:
        The request pattern to re-issue (addresses, sizes, op types are
        preserved verbatim).
    device:
        Target storage; reset before the run for reproducibility.
    idle_us:
        Idle to insert after each request (length ``len(old_trace) - 1``
        or ``len(old_trace)``; the trailing entry, if present, is
        ignored).  ``None`` means no idle (back-to-back replay).
    method:
        Label stored in the produced trace's metadata.

    Replay is synchronous, as the paper's emulation is: the next
    request is prepared only after the previous one completes.  The
    asynchronous timing of the original workload is restored afterwards
    by :func:`repro.replay.postprocess.revive_async`.
    """
    n = len(old_trace)
    if n == 0:
        raise ValueError("cannot replay an empty trace")
    idle_arr = _validated_idle(n, idle_us)
    device.reset()
    collector = TraceCollector(
        name=old_trace.name,
        metadata={
            **old_trace.metadata,
            "method": method,
            "replayed_on": device.name,
        },
    )
    clock = 0.0
    completions: list[Completion] = []
    for i in range(n):
        completion = device.submit(
            OpType(int(old_trace.ops[i])),
            int(old_trace.lbas[i]),
            int(old_trace.sizes[i]),
            clock,
        )
        completions.append(completion)
        collector.observe(
            submit=clock,
            lba=int(old_trace.lbas[i]),
            size=int(old_trace.sizes[i]),
            op=int(old_trace.ops[i]),
            completion=completion,
        )
        if i < n - 1:
            clock = completion.finish + float(idle_arr[i])
    return ReplayResult(
        trace=collector.build(),
        device_name=device.name,
        submits=np.array([c.submit for c in completions]),
        acks=np.array([c.ack for c in completions]),
        starts=np.array([c.start for c in completions]),
        finishes=np.array([c.finish for c in completions]),
        completions=tuple(completions),
    )


def replay_back_to_back(
    old_trace: BlockTrace, device: StorageDevice, method: str = "revision"
) -> ReplayResult:
    """Replay with zero inserted idle — the ``Revision`` baseline.

    Every request is issued the moment the previous one completes,
    which is how straight trace-replay tools drive a faster device:
    realistic :math:`T_{cdel}`/:math:`T_{sdev}`, but all user idleness
    and async overlap lost.
    """
    return replay_with_idle(old_trace, device, idle_us=None, method=method)
