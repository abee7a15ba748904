"""Queue-depth replay: asynchronous replay with bounded outstanding I/O.

The paper's emulation issues synchronously and repairs asynchrony in
post-processing.  An alternative (and the natural extension once the
sync flags are *known*, as they are for synthetic traces) is to replay
with a bounded submission window, the way ``fio`` drives a device at
``iodepth > 1``: up to ``queue_depth`` requests may be in flight; a new
request is submitted as soon as a slot frees *and* its think time has
elapsed.

:func:`replay_queue_depth_scalar` is the original discrete-event loop
over :meth:`~repro.storage.device.StorageDevice.submit`, kept as the
readable specification and the bit-identity oracle for the test suite.
Its in-flight window is a plain list it re-filters per request
(O(n·qd) comprehensions), and every request pays the full
``submit``/``Completion``/collector overhead.

:func:`replay_queue_depth` is the production entry point.  It picks
one of three engines, all bit-identical to the oracle:

- the *FIFO chain* (:func:`_qdepth_fifo_fast`).  When the device
  prices the whole stream up front (``service_batch``) *and* queueing
  is a single FIFO server (``fifo_single_server``, or trivially at
  ``queue_depth == 1``), the window recurrence collapses to scalar
  arithmetic over precomputed channel-delay and service columns: the
  in-flight set of a FIFO device is always the trailing ``qd``
  requests, so "wait for the oldest outstanding completion" is one
  comparison against ``finishes[i - qd]``.
- the *streaming flash loop* (:func:`_flash_loop`), for devices with a
  ``flash_layout`` (flash SSDs and flash arrays).  It walks each
  request's stripe fragments inline, looks each fragment's
  relative-service entry up in the members' shared memo, and runs the
  members' fast paths without method dispatch.  The synchronous
  engine (:func:`~repro.replay.batch.replay_with_idle_batch`) runs the
  same loop with the sync think rule.
- the *heap event loop* (:func:`_qdepth_events`), for every other
  device: it drives ``device._service`` directly with the per-request
  conversions hoisted out.

Both event engines keep the in-flight window in a binary heap with
expiry batched per completion wave: expired completions are only swept
when the window *looks* full, so a replay that never saturates the
window pays one length check per request instead of a pop scan.

Used by tests and available to studies that want target-load
sensitivity (e.g. how reconstruction fidelity changes when the replayer
is allowed genuine overlap).
"""

from __future__ import annotations

import heapq
from array import array

import numpy as np

from ..storage.device import StorageDevice
from ..storage.flash import _entry_commit, _entry_idle_sparse
from ..trace.record import OpType
from ..trace.trace import BlockTrace
from .collector import TraceCollector
from .replayer import ReplayResult, _check_requests, _validated_idle

__all__ = ["replay_queue_depth", "replay_queue_depth_scalar"]

#: Rows of input columns the streaming flash loop turns into Python
#: lists at a time.  Bounds the per-row Python objects it holds to one
#: block, whatever the trace length (as ``CSV_BLOCK_ROWS`` does for the
#: CSV writer).
FLASH_BLOCK_ROWS = 4096


def _qdepth_metadata(old_trace: BlockTrace, device: StorageDevice, method: str, qd: int) -> dict:
    return {
        **old_trace.metadata,
        "method": method,
        "replayed_on": device.name,
        "queue_depth": qd,
    }


def replay_queue_depth(
    old_trace: BlockTrace,
    device: StorageDevice,
    idle_us: np.ndarray | None = None,
    queue_depth: int = 4,
    method: str = "qdepth-replay",
    engine: str = "auto",
) -> ReplayResult:
    """Replay with up to ``queue_depth`` requests in flight.

    Submission rule: request ``i + 1`` becomes *ready* ``idle_us[i]``
    after request ``i`` was submitted (think time runs from submission,
    not completion — the asynchronous interpretation), and is submitted
    at ``max(ready, slot_free)`` where ``slot_free`` is when the oldest
    in-flight request completes, window-style.

    With ``queue_depth=1`` this degenerates to the synchronous replay of
    :func:`repro.replay.replayer.replay_with_idle` (think measured from
    completion).

    Stamps are bit-identical to :func:`replay_queue_depth_scalar`
    (property-tested across every device type); see the module
    docstring for how each engine achieves that.

    ``engine`` selects the execution strategy: ``"auto"`` (default)
    takes the FIFO chain where the device allows it, else the streaming
    flash loop for devices with a ``flash_layout``, else the heap event
    loop; ``"plan"`` skips the FIFO chain and ``"events"`` forces the
    heap event loop (used by the differential identity suite — all
    three produce bit-identical stamps).  On a device without a flash
    layout, ``"plan"`` runs the heap event loop.

    Returns the same :class:`ReplayResult` shape as the synchronous
    replayer.
    """
    if engine not in ("auto", "plan", "events"):
        raise ValueError(f"unknown engine {engine!r}")
    n = len(old_trace)
    if n == 0:
        raise ValueError("cannot replay an empty trace")
    if queue_depth < 1:
        raise ValueError("queue depth must be at least 1")
    idle_arr = _validated_idle(n, idle_us)
    _check_requests(old_trace)
    device.reset()
    # The precomputed-service regime needs gap-invariant durations for
    # the actual arrival pattern.  ``service_batch`` guarantees them for
    # idle-at-arrival streams, which queue_depth == 1 produces; for
    # deeper windows a request can arrive while the device is busy, and
    # only a single-FIFO-server device (``fifo_single_server``) keeps
    # its durations order-determined under queued arrivals.
    svc = None
    if engine == "auto" and (queue_depth == 1 or device.fifo_single_server):
        svc = device.service_batch(old_trace.ops, old_trace.lbas, old_trace.sizes)
    metadata = _qdepth_metadata(old_trace, device, method, queue_depth)
    t_cdel = device.channel.delay_batch_us(old_trace.ops, old_trace.sizes)
    layout = None
    if svc is None and engine != "events":
        layout = device.flash_layout()
    if svc is not None:
        submits, acks, starts, finishes = _qdepth_fifo_fast(
            t_cdel, svc, idle_arr, queue_depth
        )
    elif layout is not None:
        submits, acks, starts, finishes = _flash_loop(
            layout, old_trace, t_cdel, idle_arr, queue_depth
        )
    else:
        submits, acks, starts, finishes = _qdepth_events(
            old_trace, device, t_cdel, idle_arr, queue_depth
        )
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


def _qdepth_fifo_fast(
    t_cdel: np.ndarray, svc: np.ndarray, idle_arr: np.ndarray, queue_depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Window recurrence over precomputed channel/service columns.

    For a FIFO single-server device, finishes are non-decreasing, so
    the in-flight set after filtering is always the trailing window and
    "the oldest outstanding completion" is ``finishes[i - qd]``.  The
    per-request arithmetic is exactly the scalar engine's chain —
    ``clock → ack = clock + t_cdel → start = max(ack, busy) →
    finish = start + svc`` — performed on Python floats (same IEEE-754
    doubles, same operation order, so the stamps are bit-identical).
    """
    n = len(svc)
    submits = np.empty(n, dtype=np.float64)
    acks = np.empty(n, dtype=np.float64)
    starts = np.empty(n, dtype=np.float64)
    finishes = np.empty(n, dtype=np.float64)
    t_cdel_l = t_cdel.tolist()
    svc_l = svc.tolist()
    idle_l = idle_arr.tolist()
    finishes_l: list[float] = []
    append_finish = finishes_l.append
    clock = 0.0
    prev_finish = 0.0
    qd = queue_depth
    for i in range(n):
        if i >= qd and finishes_l[i - qd] > clock:
            clock = finishes_l[i - qd]
        ack = clock + t_cdel_l[i]
        start = ack if ack >= prev_finish else prev_finish
        finish = start + svc_l[i]
        submits[i] = clock
        acks[i] = ack
        starts[i] = start
        finishes[i] = finish
        append_finish(finish)
        prev_finish = finish
        if i < n - 1:
            clock = ack + idle_l[i]
    return submits, acks, starts, finishes


def _qdepth_events(
    old_trace: BlockTrace,
    device: StorageDevice,
    t_cdel: np.ndarray,
    idle_arr: np.ndarray,
    queue_depth: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Heap-based discrete-event loop for gap-sensitive devices.

    Performs the exact per-request arithmetic of ``device.submit`` with
    the validation and conversions hoisted out; the in-flight window
    lives in a binary heap with lazy expiry (completions at or before
    the clock are popped on demand), replacing the scalar engine's
    O(n·qd) list re-filtering.
    """
    n = len(old_trace)
    ops = [OpType.READ if op == 0 else OpType.WRITE for op in old_trace.ops.tolist()]
    lbas = old_trace.lbas.tolist()
    sizes = old_trace.sizes.tolist()
    t_cdel_l = t_cdel.tolist()
    idle_l = idle_arr.tolist()
    service = device._service
    heappush, heappop = heapq.heappush, heapq.heappop
    in_flight: list[float] = []
    submits = np.empty(n, dtype=np.float64)
    acks = np.empty(n, dtype=np.float64)
    starts = np.empty(n, dtype=np.float64)
    finishes = np.empty(n, dtype=np.float64)
    clock = 0.0
    for i in range(n):
        # Expired completions are swept only when the window looks
        # full — the heap may carry stale entries, but the blocking
        # decision (and hence every stamp) is unchanged: after the
        # sweep the live count is exactly what eager expiry would see.
        if len(in_flight) >= queue_depth:
            while in_flight and in_flight[0] <= clock:
                heappop(in_flight)
            if len(in_flight) >= queue_depth:
                clock = heappop(in_flight)
        ack = clock + t_cdel_l[i]
        start, finish = service(ops[i], lbas[i], sizes[i], ack)
        heappush(in_flight, finish)
        submits[i] = clock
        acks[i] = ack
        starts[i] = start
        finishes[i] = finish
        if i < n - 1:
            clock = ack + idle_l[i]
    return submits, acks, starts, finishes


def _flash_loop(
    layout: tuple[list, int | None],
    old_trace: BlockTrace,
    t_cdel: np.ndarray,
    idle_arr: np.ndarray,
    queue_depth: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Streaming replay over flash members, synchronous or queue-depth.

    ``layout`` is the device's ``flash_layout()``: its member SSDs and
    the stripe unit in sectors (``None`` for a standalone SSD).  Each
    request is cut into stripe fragments with the arithmetic of
    ``FlashArray._service``; each fragment's ``_RelService`` comes from
    the members' shared relative-service memo (``_rel_entry`` on a
    miss).  The body inlines ``FlashSSD._service`` branch for branch —
    horizon check, slot-range idle probe, slot-range commit,
    write-buffer admission, and the ``_busy_read``/``_busy_program``
    walks when the touched slots are busy — so every stamp and every
    piece of member state (busy stamps, buffer occupancy, horizon) is
    bit-identical to driving ``device._service`` per request.

    The two replay modes differ only in the think rule.  Synchronous
    replay (``queue_depth=None``) submits the next request ``idle``
    after this one *finishes*.  Queue-depth replay submits it ``idle``
    after this one's *ack*, but no earlier than a slot frees in the
    window of ``queue_depth`` outstanding requests.

    No per-request Python object lives for the whole stream: input
    columns become lists ``FLASH_BLOCK_ROWS`` rows at a time, and ack
    and finish stamps go straight into ``array('d')`` buffers.  Submits
    are derived afterwards from the think rule elementwise (the same
    additions the loop performs) and starts equal acks, each overridden
    at the rows recorded in compact index/value buffers: window-full
    waits, and a standalone SSD's buffered write admitted late.
    """
    members, stripe = layout
    array_level = stripe is not None
    # A standalone SSD is a one-member array whose stripe unit no int64
    # extent crosses, so each of its requests is one fragment.
    ss = stripe if array_level else 1 << 64
    n_members = len(members)
    memo = members[0]._rel_cache  # one geometry, one shared memo
    rel_entry = members[0]._rel_entry
    ps = members[0]._page_sectors
    td = members[0]._total_dies
    window = queue_depth is not None
    qd = queue_depth
    n = len(old_trace)
    heappush, heappop = heapq.heappush, heapq.heappop
    in_flight: list[float] = []
    acks = array("d")
    finishes = array("d")
    append_ack = acks.append
    append_finish = finishes.append
    bump_rows, bump_clocks = array("q"), array("d")
    late_rows, late_starts = array("q"), array("d")
    # Per-member state mirrored into locals: busy lists are shared
    # objects (mutated in place, so the member's own slow paths stay
    # coherent), horizons and buffer byte counts are plain floats/ints
    # written back once at the end — and synced whenever a slow path
    # re-enters member methods that read them.
    dbs = [m._die_busy for m in members]
    cbs = [m._chan_busy for m in members]
    hors = [m._state_horizon for m in members]
    bufs = [m._buffered for m in members]
    bbs = [m._buffered_bytes for m in members]
    caps = [m._buffer_capacity for m in members]
    bw_us = [m.geometry.buffer_write_us for m in members]
    bw4 = [m.channel.bandwidth_mb_s * 4 for m in members]
    clock = 0.0
    for b0 in range(0, n, FLASH_BLOCK_ROWS):
        b1 = min(b0 + FLASH_BLOCK_ROWS, n)
        idle_l = idle_arr[b0:b1].tolist()
        if len(idle_l) < b1 - b0:
            idle_l.append(0.0)  # the last request's think time is never used
        for i, op, lba, size, tc, idle in zip(
            range(b0, b1),
            old_trace.ops[b0:b1].tolist(),
            old_trace.lbas[b0:b1].tolist(),
            old_trace.sizes[b0:b1].tolist(),
            t_cdel[b0:b1].tolist(),
            idle_l,
        ):
            if window and len(in_flight) >= qd:
                while in_flight and in_flight[0] <= clock:
                    heappop(in_flight)
                if len(in_flight) >= qd:
                    clock = heappop(in_flight)
                    bump_rows.append(i)
                    bump_clocks.append(clock)
            ack = clock + tc
            finish = ack
            cursor = lba
            remaining = size
            while remaining > 0:
                stripe_i = cursor // ss
                chunk = ss - (cursor - stripe_i * ss)
                if chunk > remaining:
                    chunk = remaining
                mi = stripe_i % n_members
                first = cursor // ps
                n_pages = (cursor + chunk - 1) // ps - first + 1
                e = memo.get((op, first % td, n_pages, chunk))
                if e is None:
                    e = rel_entry(OpType(op), first, n_pages, chunk)
                cursor += chunk
                remaining -= chunk
                db = dbs[mi]
                cb = cbs[mi]
                if e.is_read:
                    if ack >= hors[mi] or _entry_idle_sparse(db, cb, e, ack):
                        _entry_commit(db, cb, e, ack)
                        h = ack + e.horizon
                        if h > hors[mi]:
                            hors[mi] = h
                        f = ack + e.svc
                    else:
                        f = members[mi]._busy_read(e, ack)
                        if f > hors[mi]:
                            hors[mi] = f
                elif e.buffered:
                    nbytes = e.nbytes
                    buf = bufs[mi]
                    bb = bbs[mi]
                    while buf and buf[0][0] <= ack:
                        __, freed = buf.popleft()
                        bb -= freed
                    if bb + nbytes <= caps[mi] and (
                        ack >= hors[mi] or _entry_idle_sparse(db, cb, e, ack)
                    ):
                        buf.append((ack + e.drain_rel, nbytes))
                        bbs[mi] = bb + nbytes
                        _entry_commit(db, cb, e, ack)
                        h = ack + e.horizon
                        if h > hors[mi]:
                            hors[mi] = h
                        f = ack + e.svc
                    else:
                        ssd = members[mi]
                        ssd._buffered_bytes = bb
                        start = ssd._buffer_admit(nbytes, ack)
                        ack_done = start + bw_us[mi] + nbytes / bw4[mi]
                        drain = ssd._busy_program(e, ack_done)
                        buf.append((drain, nbytes))
                        bbs[mi] = ssd._buffered_bytes + nbytes
                        if drain > hors[mi]:
                            hors[mi] = drain
                        f = ack_done
                        if not array_level:
                            late_rows.append(i)
                            late_starts.append(start)
                else:
                    if ack >= hors[mi] or _entry_idle_sparse(db, cb, e, ack):
                        _entry_commit(db, cb, e, ack)
                        h = ack + e.horizon
                        if h > hors[mi]:
                            hors[mi] = h
                        f = ack + e.svc
                    else:
                        f = members[mi]._busy_program(e, ack)
                        if f > hors[mi]:
                            hors[mi] = f
                if f > finish:
                    finish = f
            append_ack(ack)
            append_finish(finish)
            if window:
                heappush(in_flight, finish)
                clock = ack + idle
            else:
                clock = finish + idle
    for m, h, bb in zip(members, hors, bbs):
        m._state_horizon = h
        m._buffered_bytes = bb
    acks_arr = np.frombuffer(acks, dtype=np.float64)
    finishes_arr = np.frombuffer(finishes, dtype=np.float64)
    submits = np.empty(n, dtype=np.float64)
    submits[0] = 0.0
    np.add(
        (acks_arr if window else finishes_arr)[: n - 1], idle_arr[: n - 1], out=submits[1:]
    )
    submits[np.frombuffer(bump_rows, dtype=np.int64)] = np.frombuffer(bump_clocks)
    starts = acks_arr.copy()
    starts[np.frombuffer(late_rows, dtype=np.int64)] = np.frombuffer(late_starts)
    return submits, acks_arr, starts, finishes_arr


def replay_queue_depth_scalar(
    old_trace: BlockTrace,
    device: StorageDevice,
    idle_us: np.ndarray | None = None,
    queue_depth: int = 4,
    method: str = "qdepth-replay",
) -> ReplayResult:
    """Reference queue-depth replay (the bit-identity oracle).

    The original request-at-a-time loop over ``device.submit`` with a
    list-filtered in-flight window.  Kept verbatim as the readable
    specification; the property suite asserts
    :func:`replay_queue_depth` reproduces its stamps bit-for-bit.
    """
    n = len(old_trace)
    if n == 0:
        raise ValueError("cannot replay an empty trace")
    if queue_depth < 1:
        raise ValueError("queue depth must be at least 1")
    idle_arr = _validated_idle(n, idle_us)
    device.reset()
    collector = TraceCollector(
        name=old_trace.name,
        metadata=_qdepth_metadata(old_trace, device, method, queue_depth),
    )
    completions = []
    in_flight_finish: list[float] = []  # finish times of outstanding requests
    clock = 0.0
    for i in range(n):
        # Free slots that completed by now; if the window is full, wait
        # for the oldest outstanding completion.
        in_flight_finish = [f for f in in_flight_finish if f > clock]
        if len(in_flight_finish) >= queue_depth:
            in_flight_finish.sort()
            clock = in_flight_finish[0]
            in_flight_finish = in_flight_finish[1:]
        if queue_depth == 1 and completions:
            # Degenerate synchronous mode: think runs from completion.
            clock = max(clock, completions[-1].finish)
        completion = device.submit(
            OpType(int(old_trace.ops[i])),
            int(old_trace.lbas[i]),
            int(old_trace.sizes[i]),
            clock,
        )
        completions.append(completion)
        in_flight_finish.append(completion.finish)
        collector.observe(
            submit=clock,
            lba=int(old_trace.lbas[i]),
            size=int(old_trace.sizes[i]),
            op=int(old_trace.ops[i]),
            completion=completion,
        )
        if i < n - 1:
            # Host is occupied for the channel hand-off, then thinks.
            clock = completion.ack + float(idle_arr[i])
    return ReplayResult(
        trace=collector.build(),
        device_name=device.name,
        submits=np.array([c.submit for c in completions]),
        acks=np.array([c.ack for c in completions]),
        starts=np.array([c.start for c in completions]),
        finishes=np.array([c.finish for c in completions]),
        completions=tuple(completions),
    )
