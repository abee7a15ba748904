"""Post-processing: reviving asynchronous timing (Section IV).

The hardware emulation replays synchronously, so a request the original
application issued *without* waiting (asynchronous mode — the
``(i-1)``-th request of Figure 2b) is spuriously delayed by the new
device's service time.  The paper's fix:

1. from the *old* trace, record the indices whose inter-arrival time is
   shorter than the (inferred or measured) device time — those
   submissions cannot have waited for the device;
2. in the *new* trace, for exactly those indices, subtract the new
   measured device time from the inter-arrival time "and update the
   next instruction based on the results".

:func:`detect_async_indices` implements step 1 and
:func:`revive_async` step 2.
"""

from __future__ import annotations

import numpy as np

from ..trace.trace import BlockTrace

__all__ = ["detect_async_indices", "revive_async"]


def detect_async_indices(tintt_us: np.ndarray, tsdev_us: np.ndarray) -> np.ndarray:
    """Gap indices whose old inter-arrival time undercuts the device time.

    ``tintt_us`` are the old trace's gaps; ``tsdev_us`` the device time
    of each gap's *leading* request (same length).  A gap shorter than
    the leading request's service time implies the next request was
    prepared while the device was still busy — an asynchronous
    submission.
    """
    tintt = np.asarray(tintt_us, dtype=np.float64)
    tsdev = np.asarray(tsdev_us, dtype=np.float64)
    if tintt.shape != tsdev.shape:
        raise ValueError("tintt and tsdev must align")
    return np.flatnonzero(tintt < tsdev)


def revive_async(
    new_trace: BlockTrace,
    async_indices: np.ndarray,
    min_gap_us: float | np.ndarray = 0.0,
    old_gaps_us: np.ndarray | None = None,
) -> BlockTrace:
    """Tighten the new trace's gaps at asynchronous submission points.

    For each flagged gap the *new* measured device time of the leading
    request is subtracted from that gap (clamped at ``min_gap_us``),
    and all subsequent timestamps shift left accordingly.  Per-request
    device times are preserved — only the submission schedule changes,
    which mirrors how an async submitter overlaps its next submission
    with the in-flight request.

    ``min_gap_us`` may be a scalar or a per-gap array (length
    ``len(new_trace) - 1``).  An asynchronous submitter still occupies
    the host for the channel hand-off, so the reconstruction pipeline
    passes each request's measured channel delay as the floor.

    ``old_gaps_us`` (optional, per-gap) refines the revival: an
    asynchronous gap contains *no* device wait at all — it is CPU burst
    plus channel occupancy, both host-side quantities that survive the
    hardware change — so when the old gaps are supplied each flagged
    gap is restored to the old gap itself, clamped between the channel
    floor and the replayed gap.

    Requires the new trace to carry measured device times (a replay
    product always does).
    """
    if not new_trace.has_device_times:
        raise ValueError("post-processing needs the new trace's measured device times")
    n = len(new_trace)
    if n < 2:
        return new_trace
    idx = np.asarray(async_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n - 1):
        raise ValueError("async gap indices out of range")
    floor = np.asarray(min_gap_us, dtype=np.float64)
    if floor.ndim not in (0, 1):
        raise ValueError("min_gap_us must be a scalar or a per-gap array")
    if floor.ndim == 1 and len(floor) != n - 1:
        raise ValueError(f"per-gap floors must have length {n - 1}, got {len(floor)}")
    assert new_trace.issues is not None and new_trace.completes is not None
    # One full-length array: the gaps, adjusted at the async indices
    # (the only rows whose device times are needed).
    adjusted = np.diff(new_trace.timestamps)
    gaps_at_idx = adjusted[idx]
    floor_at_idx = floor[idx] if floor.ndim == 1 else floor
    if old_gaps_us is not None:
        old_arr = np.asarray(old_gaps_us, dtype=np.float64)
        if len(old_arr) != n - 1:
            raise ValueError(f"old gaps must have length {n - 1}, got {len(old_arr)}")
        adjusted[idx] = np.clip(old_arr[idx], floor_at_idx, gaps_at_idx)
    else:
        tsdev_at_idx = new_trace.completes[idx] - new_trace.issues[idx]
        adjusted[idx] = np.maximum(gaps_at_idx - tsdev_at_idx, floor_at_idx)
    new_ts = np.empty(n, dtype=np.float64)
    new_ts[0] = new_trace.timestamps[0]
    np.cumsum(adjusted, out=new_ts[1:])
    new_ts[1:] += new_ts[0]
    delta = new_ts - new_trace.timestamps
    return BlockTrace(
        timestamps=new_ts,
        lbas=new_trace.lbas,
        sizes=new_trace.sizes,
        ops=new_trace.ops,
        issues=new_trace.issues + delta,
        completes=new_trace.completes + delta,
        syncs=new_trace.syncs,
        name=new_trace.name,
        metadata={**new_trace.metadata, "postprocessed": True, "n_async_gaps": int(idx.size)},
    )
