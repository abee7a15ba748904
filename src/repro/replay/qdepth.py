"""One submission rule for trace collection and replay.

A host sends a request stream to a device in three ways: to collect a
trace from an intent stream (:func:`repro.workloads.generator.
collect_trace`), to replay an old trace synchronously
(:func:`~repro.replay.batch.replay_with_idle_batch`), and to replay it
behind a queue-depth window (:func:`replay_queue_depth`).  All three
follow one rule.  The clock starts at ``lead``; request ``i`` is
submitted at the clock, crosses the channel (``ack = clock + T_cdel``)
and is serviced; then

.. math::

   clock \\leftarrow (finish_i \\text{ if } wait_i \\text{ else } ack_i) + gap_i

and, with a window, no request is submitted while ``queue_depth``
earlier ones are outstanding.  The three callers differ only in the
parameters:

- synchronous replay: ``lead = 0``, ``gap = idle``, every request waits,
  no window;
- queue-depth replay: ``lead = 0``, ``gap = idle``, no request waits (think
  time runs from the ack, the asynchronous interpretation), a window of
  ``queue_depth``;
- collection: ``lead = 0 + thinks[0]``, ``gap[i] = thinks[i + 1]``, ``wait``
  is the intent stream's sync flags, no window.

:func:`submit_stream` is the one dispatcher.  It picks one loop per
device family, each bit-identical to driving ``device.submit`` request
by request:

- the *interleaved cumulative sum* (:func:`_cumsum_chain`), when
  ``service_batch`` prices the stream (HDDs without a write-back cache,
  RAID over such members, constant-latency devices), there is no window
  and every request waits: the clock chain is then one running sum;
- the *priced FIFO loop* (:func:`_fifo_loop`), when ``service_batch``
  prices the stream and either the device is one FIFO server
  (``fifo_single_server``) or no two requests can overlap (a window of
  one): ``start = max(ack, previous finish)`` over the priced column;
- the *streaming flash loop* (:func:`_flash_loop`), for devices with a
  ``flash_layout`` (flash SSDs and flash arrays): NumPy cuts each block
  of requests into stripe fragments and keys their shapes, and the loop
  runs only the timing recurrence over the members' memoised fast
  paths, without method dispatch;
- the *heap event loop* (:func:`_service_loop`), for every other
  device: it drives ``device._service`` directly with the per-request
  conversions hoisted out.

The window of the flash and event loops is a binary heap with expiry
batched per completion wave: expired completions are only swept when
the window *looks* full, so a replay that never saturates the window
pays one length check per request instead of a pop scan.

:func:`replay_queue_depth_scalar` is the original discrete-event loop
over :meth:`~repro.storage.device.StorageDevice.submit`, kept as the
readable specification and the bit-identity oracle for queue-depth
replay.  Queue-depth replay is available to studies that want
target-load sensitivity (e.g. how reconstruction fidelity changes when
the replayer is allowed genuine overlap).
"""

from __future__ import annotations

import heapq
from array import array
from itertools import repeat

import numpy as np

from ..storage.device import StorageDevice
from ..storage.flash import _entry_commit, _entry_idle_sparse, page_span, shape_key
from ..trace.record import OpType
from ..trace.trace import BlockTrace
from .collector import TraceCollector
from .replayer import ReplayResult, _check_requests, _validated_idle

__all__ = ["submit_stream", "replay_queue_depth", "replay_queue_depth_scalar"]

#: Requests the streaming flash loop prepares at a time: NumPy cuts
#: their stripe fragments and keys their shapes, and the fragment
#: columns become Python lists.  Bounds the per-fragment NumPy columns
#: and Python objects it holds to one block, whatever the trace length
#: (as ``CSV_BLOCK_ROWS`` does for the CSV writer), while amortising
#: the per-block NumPy calls over thousands of rows.
FLASH_BLOCK_ROWS = 4096

Stamps = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def submit_stream(
    device: StorageDevice,
    ops: np.ndarray,
    lbas: np.ndarray,
    sizes: np.ndarray,
    gap: np.ndarray,
    lead: float = 0.0,
    wait: bool | np.ndarray = True,
    queue_depth: int | None = None,
) -> Stamps:
    """Reset ``device`` and send it the stream under the submission rule.

    ``gap`` holds one think time per request (the last is never used);
    ``wait`` is one flag for every request or a flag per request;
    ``queue_depth`` is the window, ``None`` for none.  Returns the
    ``(submits, acks, starts, finishes)`` stamp columns.  The caller
    validates the columns; see the module docstring for the loops.
    """
    device.reset()
    t_cdel = device.channel.delay_batch_us(ops, sizes)
    # ``service_batch`` prices each request as if it arrived at an idle
    # device.  That holds when no two requests can overlap — every
    # request waits with no window, or the window holds one — and on a
    # single FIFO server under any arrivals, whose service order is the
    # request order.
    sync = queue_depth is None and np.ndim(wait) == 0 and bool(wait)
    svc = None
    if sync or queue_depth == 1 or device.fifo_single_server:
        svc = device.service_batch(ops, lbas, sizes)
    if svc is not None and sync:
        return _cumsum_chain(t_cdel, svc, lead, gap)
    waits = np.broadcast_to(np.asarray(wait, dtype=bool), (len(ops),))
    if svc is not None:
        return _fifo_loop(t_cdel, svc, lead, gap, waits, queue_depth)
    layout = device.flash_layout()
    if layout is not None:
        return _flash_loop(layout, ops, lbas, sizes, t_cdel, lead, gap, waits, queue_depth)
    return _service_loop(device, ops, lbas, sizes, t_cdel, lead, gap, waits, queue_depth)


def _cumsum_chain(t_cdel: np.ndarray, svc: np.ndarray, lead: float, gap: np.ndarray) -> Stamps:
    """Every request waits, no window, services priced: one running sum.

    The clock chain ``ack = clock + T_cdel``, ``finish = ack + svc``,
    ``clock = finish + gap`` is a running sum over the interleaved
    sequence ``[lead + T_cdel_0, svc_0, gap_0, T_cdel_1, svc_1, ...]``,
    and ``np.cumsum`` performs the same left-to-right chain of IEEE-754
    additions, so the stamps are bit-identical to a loop's.  Every
    request arrives at an idle device, so it starts at its ack.
    """
    n = len(svc)
    increments = np.empty(3 * n, dtype=np.float64)
    increments[0::3] = t_cdel
    increments[1::3] = svc
    increments[2::3] = gap
    increments[:1] += lead
    cum = np.cumsum(increments)
    acks = cum[0::3]
    finishes = cum[1::3]
    submits = np.empty(n, dtype=np.float64)
    submits[:1] = lead  # an empty stream has no first submit
    submits[1:] = cum[2::3][:-1]
    return submits, acks, acks, finishes


def _fifo_loop(
    t_cdel: np.ndarray,
    svc: np.ndarray,
    lead: float,
    gap: np.ndarray,
    waits: np.ndarray,
    queue_depth: int | None,
) -> Stamps:
    """The submission rule over priced services on one FIFO server.

    Per request: ``ack = clock + T_cdel``, ``start = max(ack, previous
    finish)``, ``finish = start + svc`` — the exact arithmetic of a
    single-server ``_service`` with the order-determined service times
    ``service_batch`` priced up front, on Python floats (same IEEE-754
    doubles, same operation order).  A FIFO server finishes in order,
    so the oldest outstanding request of a full window is always
    request ``i - queue_depth``.  The loop records submits and
    finishes; acks and starts follow elementwise from them with the
    same additions and comparisons.
    """
    n = len(svc)
    submits, finishes = array("d"), array("d")
    append_submit, append_finish = submits.append, finishes.append
    window = queue_depth is not None
    qd = queue_depth
    clock = lead
    finish = 0.0
    for i, tc, s, g, w in zip(
        range(n), t_cdel.tolist(), svc.tolist(), gap.tolist(), waits.tolist()
    ):
        if window and i >= qd and finishes[i - qd] > clock:
            clock = finishes[i - qd]
        ack = clock + tc
        finish = (ack if ack >= finish else finish) + s
        append_submit(clock)
        append_finish(finish)
        clock = (finish if w else ack) + g
    submits_arr = np.frombuffer(submits, dtype=np.float64)
    finishes_arr = np.frombuffer(finishes, dtype=np.float64)
    acks = submits_arr + t_cdel
    starts = np.maximum(acks, np.concatenate(([0.0], finishes_arr[:-1])))
    return submits_arr, acks, starts, finishes_arr


def _service_loop(
    device: StorageDevice,
    ops: np.ndarray,
    lbas: np.ndarray,
    sizes: np.ndarray,
    t_cdel: np.ndarray,
    lead: float,
    gap: np.ndarray,
    waits: np.ndarray,
    queue_depth: int | None,
) -> Stamps:
    """The submission rule over ``device._service``, request by request.

    Performs the exact per-request arithmetic of ``device.submit`` with
    the validation and conversions hoisted out.  The window lives in a
    binary heap with lazy expiry (completions at or before the clock
    are popped on demand), replacing the scalar oracle's O(n·qd) list
    re-filtering.
    """
    op_types = [OpType.READ if op == 0 else OpType.WRITE for op in ops.tolist()]
    service = device._service
    heappush, heappop = heapq.heappush, heapq.heappop
    in_flight: list[float] = []
    window = queue_depth is not None
    qd = queue_depth
    submits, acks, starts, finishes = array("d"), array("d"), array("d"), array("d")
    clock = lead
    for op, lba, size, tc, g, w in zip(
        op_types, lbas.tolist(), sizes.tolist(), t_cdel.tolist(), gap.tolist(), waits.tolist()
    ):
        # Expired completions are swept only when the window looks
        # full — the heap may carry stale entries, but the blocking
        # decision (and hence every stamp) is unchanged: after the
        # sweep the live count is exactly what eager expiry would see.
        if window and len(in_flight) >= qd:
            while in_flight and in_flight[0] <= clock:
                heappop(in_flight)
            if len(in_flight) >= qd:
                clock = heappop(in_flight)
        ack = clock + tc
        start, finish = service(op, lba, size, ack)
        if window:
            heappush(in_flight, finish)
        submits.append(clock)
        acks.append(ack)
        starts.append(start)
        finishes.append(finish)
        clock = (finish if w else ack) + g
    return tuple(np.frombuffer(col, dtype=np.float64) for col in (submits, acks, starts, finishes))


def _fragments(
    ops: np.ndarray,
    lbas: np.ndarray,
    sizes: np.ndarray,
    stripe: int | None,
    n_members: int,
    page_sectors: int,
    total_dies: int,
) -> tuple:
    """Cut one block of requests into stripe fragments, as NumPy columns.

    The arithmetic of ``FlashArray._service``: an extent is chopped at
    stripe boundaries and stripe ``k`` lives on member ``k mod
    n_members``.  Returns ``(ops, first_pages, n_pages, sectors,
    members, lasts, rows)``, one element per fragment in request order:
    ``lasts`` flags the fragment that ends its request and ``rows``
    gives its request within the block.  A standalone SSD (``stripe``
    None) keeps each request whole, and its ``members``, ``lasts`` and
    ``rows`` are ``None``.

    Offsets are taken within the request's first stripe and each
    fragment's first page, and a fragment's first sector is kept
    modulo the sectors of ``total_dies`` pages — its page offset and
    die slot, all a shape reads of it, survive — so no intermediate
    value passes int64, whatever sector an extent ends at.
    """
    if stripe is None:
        first, n_pages = page_span(lbas, sizes, page_sectors)
        return ops, first, n_pages, sizes, None, None, None
    stripes, off = np.divmod(lbas, stripe)
    end = off + (sizes - 1)  # last sector, from the first stripe's start
    count = end // stripe + 1
    rows = np.repeat(np.arange(len(count)), count)
    ordinal = np.arange(len(rows)) - (np.cumsum(count) - count)[rows]
    lasts = ordinal == count[rows] - 1
    lo = np.where(ordinal == 0, off[rows], 0)
    hi = np.where(lasts, end[rows] % stripe, stripe - 1)
    frag_stripes = stripes[rows] + ordinal
    cursors = frag_stripes % (page_sectors * total_dies) * stripe + lo
    sectors = hi - lo + 1
    first, n_pages = page_span(cursors, sectors, page_sectors)
    return ops[rows], first, n_pages, sectors, frag_stripes % n_members, lasts, rows


def _flash_loop(
    layout: tuple[list, int | None],
    ops: np.ndarray,
    lbas: np.ndarray,
    sizes: np.ndarray,
    t_cdel: np.ndarray,
    lead: float,
    gap: np.ndarray,
    waits: np.ndarray,
    queue_depth: int | None,
) -> Stamps:
    """The submission rule over flash members, fragment by fragment.

    ``layout`` is the device's ``flash_layout()``: its member SSDs and
    the stripe unit in sectors (``None`` for a standalone SSD).  NumPy
    prepares each block of ``FLASH_BLOCK_ROWS`` requests up front: it
    cuts the requests into stripe fragments (:func:`_fragments`) and
    gives each fragment a member index and one :func:`~repro.storage.
    flash.shape_key`; one dict lookup per fragment then resolves the
    members' shared relative-service memo (``_rel_entry`` on a miss).
    The loop itself runs only the timing recurrence over the fragment
    columns, with a last-fragment-of-request flag: the window, and
    ``FlashSSD._service`` inlined branch for branch — idle probe,
    commit, write-buffer admission, and the ``_busy_read``/
    ``_busy_program`` walks when a touched slot is busy.  A one-page
    shape is probed with two list reads and committed with two stores;
    a multi-page shape takes the horizon check and the slot-slice probe
    and commit.  Every stamp and every piece of member state (busy
    stamps, buffer occupancy, horizon) is bit-identical to driving
    ``device._service`` per request.

    Nothing built per request or fragment outlives its block: the
    fragment columns, keys and entries are rebuilt for each block, and
    ack and finish stamps go straight into ``array('d')`` buffers.
    Submits are derived afterwards from the rule elementwise (the same
    additions the loop performs) and starts equal acks, each overridden
    at the rows recorded in compact index/value buffers: window-full
    waits, and a standalone SSD's buffered write admitted late.  With
    no late row, ``starts`` is the acks array itself.
    """
    members, stripe = layout
    array_level = stripe is not None
    memo = members[0]._rel_cache  # one geometry, one shared memo
    rel_entry = members[0]._rel_entry
    ps = members[0]._page_sectors
    td = members[0]._total_dies
    window = queue_depth is not None
    qd = queue_depth
    n = len(ops)
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
    clock = lead
    for b0 in range(0, n, FLASH_BLOCK_ROWS):
        b1 = min(b0 + FLASH_BLOCK_ROWS, n)
        f_ops, firsts, pages, sectors, f_members, lasts, rows = _fragments(
            ops[b0:b1], lbas[b0:b1], sizes[b0:b1], stripe, len(members), ps, td
        )
        keys = shape_key(f_ops, firsts, pages, sectors, ps, td).tolist()
        try:
            entries = list(map(memo.__getitem__, keys))
        except KeyError:
            for k, key in enumerate(keys):
                if key not in memo:
                    rel_entry(OpType(int(f_ops[k])), int(firsts[k]), int(pages[k]), int(sectors[k]))
            entries = list(map(memo.__getitem__, keys))
        del f_ops, firsts, pages, sectors, keys  # before the stamp lists grow
        tcs, gs, ws = t_cdel[b0:b1], gap[b0:b1], waits[b0:b1]
        if rows is not None:
            tcs, gs, ws = tcs[rows], gs[rows], ws[rows]
        last = True
        for e, mi, tc, g, w, ends in zip(
            entries,
            repeat(0) if f_members is None else f_members.tolist(),
            tcs.tolist(),
            gs.tolist(),
            ws.tolist(),
            repeat(True) if lasts is None else lasts.tolist(),
        ):
            if last:  # the first fragment of a request
                if window and len(in_flight) >= qd:
                    while in_flight and in_flight[0] <= clock:
                        heappop(in_flight)
                    if len(in_flight) >= qd:
                        clock = heappop(in_flight)
                        bump_rows.append(len(acks))
                        bump_clocks.append(clock)
                ack = clock + tc
                finish = ack
            db = dbs[mi]
            cb = cbs[mi]
            one = e.one_page
            buffered = e.buffered
            if buffered:
                nbytes = e.nbytes
                buf = bufs[mi]
                bb = bbs[mi]
                while buf and buf[0][0] <= ack:
                    __, freed = buf.popleft()
                    bb -= freed
                fits = bb + nbytes <= caps[mi]
            else:
                fits = True
            if fits and (
                db[one[0]] <= ack and cb[one[2]] <= ack
                if one is not None
                else ack >= hors[mi] or _entry_idle_sparse(db, cb, e, ack)
            ):
                if buffered:
                    buf.append((ack + e.drain_rel, nbytes))
                    bbs[mi] = bb + nbytes
                if one is not None:
                    db[one[0]] = ack + one[1]
                    cb[one[2]] = ack + one[3]
                else:
                    _entry_commit(db, cb, e, ack)
                h = ack + e.horizon
                if h > hors[mi]:
                    hors[mi] = h
                f = ack + e.svc
            elif buffered:
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
                    late_rows.append(len(acks))
                    late_starts.append(start)
            else:
                f = (members[mi]._busy_read if e.is_read else members[mi]._busy_program)(e, ack)
                if f > hors[mi]:
                    hors[mi] = f
            if f > finish:
                finish = f
            last = ends
            if last:
                append_ack(ack)
                append_finish(finish)
                if window:
                    heappush(in_flight, finish)
                clock = (finish if w else ack) + g
    for m, h, bb in zip(members, hors, bbs):
        m._state_horizon = h
        m._buffered_bytes = bb
    acks_arr = np.frombuffer(acks, dtype=np.float64)
    finishes_arr = np.frombuffer(finishes, dtype=np.float64)
    submits = np.empty(n, dtype=np.float64)
    submits[:1] = lead  # an empty stream has no first submit
    np.copyto(submits[1:], acks_arr[:-1])
    np.copyto(submits[1:], finishes_arr[:-1], where=waits[:-1])
    submits[1:] += gap[:-1]
    submits[np.frombuffer(bump_rows, dtype=np.int64)] = np.frombuffer(bump_clocks)
    starts = acks_arr
    if late_rows:  # only a standalone SSD admits a buffered write late
        starts = acks_arr.copy()
        starts[np.frombuffer(late_rows, dtype=np.int64)] = np.frombuffer(late_starts)
    return submits, acks_arr, starts, finishes_arr


def _padded_idle(n: int, idle_us: np.ndarray | None) -> np.ndarray:
    """Validated idle periods, one per request (the last one is zero)."""
    padded = np.zeros(n, dtype=np.float64)
    padded[: n - 1] = _validated_idle(n, idle_us)[: n - 1]
    return padded


def _qdepth_metadata(old_trace: BlockTrace, device: StorageDevice, method: str, qd: int) -> dict:
    return {
        **old_trace.metadata,
        "method": method,
        "replayed_on": device.name,
        "queue_depth": qd,
    }


def _replay_result(
    old_trace: BlockTrace, device: StorageDevice, metadata: dict, stamps: Stamps
) -> ReplayResult:
    """The replayed trace and its stamps, as both replay entry points return them."""
    submits, acks, starts, finishes = stamps
    trace = BlockTrace(
        timestamps=submits,
        lbas=old_trace.lbas,
        sizes=old_trace.sizes,
        ops=old_trace.ops,
        issues=submits,  # driver-level stamp, as the collector records
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


def replay_queue_depth(
    old_trace: BlockTrace,
    device: StorageDevice,
    idle_us: np.ndarray | None = None,
    queue_depth: int = 4,
    method: str = "qdepth-replay",
) -> ReplayResult:
    """Replay with up to ``queue_depth`` requests in flight.

    Submission rule: request ``i + 1`` becomes *ready* ``idle_us[i]``
    after request ``i``'s channel ack (think time runs from the ack,
    not from completion — the asynchronous interpretation), and is
    submitted at ``max(ready, slot_free)`` where ``slot_free`` is when
    the oldest in-flight request completes, window-style.

    With ``queue_depth=1`` the next request is submitted at
    ``max(ack[i] + idle[i], finish[i])``.  That is the synchronous
    pacing of :func:`repro.replay.replayer.replay_with_idle`
    (``finish[i] + idle[i]``) only when the idle periods are zero.

    Stamps are bit-identical to :func:`replay_queue_depth_scalar`
    (property-tested across every device type); :func:`submit_stream`
    picks the loop.  Returns the same :class:`ReplayResult` shape as
    the synchronous replayer.
    """
    n = len(old_trace)
    if n == 0:
        raise ValueError("cannot replay an empty trace")
    if queue_depth < 1:
        raise ValueError("queue depth must be at least 1")
    idle = _padded_idle(n, idle_us)
    _check_requests(old_trace)
    stamps = submit_stream(
        device, old_trace.ops, old_trace.lbas, old_trace.sizes, idle,
        wait=False, queue_depth=queue_depth,
    )
    return _replay_result(
        old_trace, device, _qdepth_metadata(old_trace, device, method, queue_depth), stamps
    )


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
