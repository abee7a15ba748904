"""Synchronous replay without per-request ``submit`` overhead.

:func:`replay_with_idle_batch` produces results identical to the scalar
:func:`~repro.replay.replayer.replay_with_idle`.  It sends the trace
through :func:`repro.replay.qdepth.submit_stream` under the synchronous
rule — request ``i + 1`` is submitted ``idle[i]`` after request ``i``
*finishes*, with no window — and the dispatcher picks the loop:

- when the device prices the whole stream up front
  (``device.service_batch`` returns an array: its latencies are
  *gap-invariant*, a pure function of request order), all four stamp
  columns come out of one interleaved cumulative sum;
- flash SSDs and flash arrays run the streaming flash loop;
- every other device whose latencies depend on real submission instants
  (an HDD with a write-back cache, RAID over such members or over
  flash) runs the heap event loop over ``device._service``.

The property suite (`tests/test_replay_batch.py`) enforces bit-identity
with the scalar replayer across every device type.
"""

from __future__ import annotations

import numpy as np

from ..storage.device import StorageDevice
from ..trace.trace import BlockTrace
from .qdepth import _padded_idle, _replay_result, submit_stream
from .replayer import ReplayResult, _check_requests

__all__ = ["replay_with_idle_batch", "replay_back_to_back_batch"]


def replay_with_idle_batch(
    old_trace: BlockTrace,
    device: StorageDevice,
    idle_us: np.ndarray | None = None,
    method: str = "replay",
) -> ReplayResult:
    """Batch equivalent of :func:`~repro.replay.replayer.replay_with_idle`.

    Same contract and same results as the scalar replayer; see the
    module docstring for how the loops achieve that.
    """
    n = len(old_trace)
    if n == 0:
        raise ValueError("cannot replay an empty trace")
    idle = _padded_idle(n, idle_us)
    _check_requests(old_trace)
    stamps = submit_stream(device, old_trace.ops, old_trace.lbas, old_trace.sizes, idle)
    metadata = {**old_trace.metadata, "method": method, "replayed_on": device.name}
    return _replay_result(old_trace, device, metadata, stamps)


def replay_back_to_back_batch(
    old_trace: BlockTrace, device: StorageDevice, method: str = "revision"
) -> ReplayResult:
    """Batch equivalent of :func:`~repro.replay.replayer.replay_back_to_back`."""
    return replay_with_idle_batch(old_trace, device, idle_us=None, method=method)
