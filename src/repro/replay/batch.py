"""Vectorised batch replay engine.

:func:`replay_with_idle_batch` produces results identical to the scalar
:func:`~repro.replay.replayer.replay_with_idle` while avoiding its
per-request Python overhead.  Three regimes:

1. **Vector path** — when the target device can price the whole request
   stream up front (``device.service_batch`` returns an array: the
   device's latencies are *gap-invariant*, a pure function of request
   order), all four stamp columns come out of one cumulative sum.  The
   scalar replayer's clock recurrence is

   .. math::

      ack_i = clock_i + T_{cdel,i}, \\quad
      finish_i = ack_i + svc_i, \\quad
      clock_{i+1} = finish_i + idle_i

   which is exactly a running sum over the interleaved sequence
   ``[T_cdel_0, svc_0, idle_0, T_cdel_1, svc_1, idle_1, ...]`` — and
   ``np.cumsum`` performs the same left-to-right chain of IEEE-754
   additions, so the stamps are *bit-identical* to the scalar loop's.

2. **Streaming flash loop** — flash SSDs and flash arrays whose
   latencies depend on real submission instants (a write-back buffer
   draining in the background) return ``None`` from
   ``service_batch``.  Devices with a ``flash_layout`` then run
   :func:`repro.replay.qdepth._flash_loop` with the synchronous think
   rule: the queue-depth engine's loop, which walks stripe fragments
   inline and runs the member SSDs' memoised fast paths without
   per-request dispatch.

3. **Fast fallback** — every other gap-sensitive device (fault
   wrappers, RAID) is driven through
   ``device._service`` in a tight loop that performs the same
   arithmetic as ``StorageDevice.submit`` with the validation hoisted
   out and the trace assembled from columns instead of per-row appends.

Either way the produced :class:`~repro.replay.replayer.ReplayResult`
matches the scalar engine's stamps exactly; the property suite
(`tests/test_replay_batch.py`) enforces this across every device type.
"""

from __future__ import annotations

import numpy as np

from ..storage.device import StorageDevice
from ..trace.record import OpType
from ..trace.trace import BlockTrace
from .qdepth import _flash_loop
from .replayer import ReplayResult, _check_requests, _validated_idle

__all__ = ["replay_with_idle_batch", "replay_back_to_back_batch"]


def _normalized_idle(n: int, idle_us: np.ndarray | None) -> np.ndarray:
    """Validate and pad the idle array to length ``n`` (trailing zero)."""
    padded = np.zeros(n, dtype=np.float64)
    padded[: n - 1] = _validated_idle(n, idle_us)[: n - 1]
    return padded


def _replay_metadata(old_trace: BlockTrace, device: StorageDevice, method: str) -> dict:
    return {**old_trace.metadata, "method": method, "replayed_on": device.name}


def replay_with_idle_batch(
    old_trace: BlockTrace,
    device: StorageDevice,
    idle_us: np.ndarray | None = None,
    method: str = "replay",
) -> ReplayResult:
    """Batch equivalent of :func:`~repro.replay.replayer.replay_with_idle`.

    Same contract and same results as the scalar replayer; see the
    module docstring for how the two execution regimes achieve that.
    """
    n = len(old_trace)
    if n == 0:
        raise ValueError("cannot replay an empty trace")
    idle = _normalized_idle(n, idle_us)
    _check_requests(old_trace)
    device.reset()
    svc = device.service_batch(old_trace.ops, old_trace.lbas, old_trace.sizes)
    metadata = _replay_metadata(old_trace, device, method)
    t_cdel = device.channel.delay_batch_us(old_trace.ops, old_trace.sizes)
    layout = device.flash_layout() if svc is None else None
    if svc is not None:
        # One interleaved running sum reproduces the scalar clock chain
        # addition-for-addition (see module docstring).
        increments = np.empty(3 * n, dtype=np.float64)
        increments[0::3] = t_cdel
        increments[1::3] = svc
        increments[2::3] = idle
        cum = np.cumsum(increments)
        acks = cum[0::3]
        finishes = cum[1::3]
        submits = np.empty(n, dtype=np.float64)
        submits[0] = 0.0
        submits[1:] = cum[2::3][:-1]
        starts = acks
    elif layout is not None:
        submits, acks, starts, finishes = _flash_loop(layout, old_trace, t_cdel, idle)
    else:
        submits, acks, starts, finishes = _replay_scalar_fast(old_trace, device, t_cdel, idle)
    trace = BlockTrace(
        timestamps=submits,
        lbas=old_trace.lbas,
        sizes=old_trace.sizes,
        ops=old_trace.ops,
        issues=submits.copy(),  # driver-level stamp, as the collector records
        completes=finishes,
        name=old_trace.name,
        metadata=metadata,
    )
    return ReplayResult(
        trace=trace,
        device_name=device.name,
        submits=submits,
        acks=acks,
        starts=starts,
        finishes=finishes,
    )


def _replay_scalar_fast(
    old_trace: BlockTrace, device: StorageDevice, t_cdel: np.ndarray, idle: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tight scalar loop for gap-sensitive devices without a flash layout.

    Performs the exact per-request arithmetic of ``device.submit`` —
    channel delay, then ``_service`` — with conversions hoisted out of
    the loop.  The device has already been reset and the columns
    validated by the caller.
    """
    n = len(old_trace)
    ops = [OpType.READ if op == 0 else OpType.WRITE for op in old_trace.ops.tolist()]
    lbas = old_trace.lbas.tolist()
    sizes = old_trace.sizes.tolist()
    idle_list = idle.tolist()
    t_cdel = t_cdel.tolist()
    service = device._service
    submits = np.empty(n, dtype=np.float64)
    acks = np.empty(n, dtype=np.float64)
    starts = np.empty(n, dtype=np.float64)
    finishes = np.empty(n, dtype=np.float64)
    clock = 0.0
    for i in range(n):
        op = ops[i]
        ack = clock + t_cdel[i]
        start, finish = service(op, lbas[i], sizes[i], ack)
        submits[i] = clock
        acks[i] = ack
        starts[i] = start
        finishes[i] = finish
        clock = finish + idle_list[i]
    return submits, acks, starts, finishes


def replay_back_to_back_batch(
    old_trace: BlockTrace, device: StorageDevice, method: str = "revision"
) -> ReplayResult:
    """Batch equivalent of :func:`~repro.replay.replayer.replay_back_to_back`."""
    return replay_with_idle_batch(old_trace, device, idle_us=None, method=method)
