"""Flash SSD model: channels, dies, planes, page operations, write buffer.

This is one device of the paper's all-flash array: "a single device
consists of 18 channels, 36 dies, and 72 planes" (Section V).  The model
tracks per-channel and per-die availability so that large or
well-striped requests enjoy internal parallelism while single-page
random requests see the raw page latency — the behaviour that gives
flash its characteristic latency/bandwidth profile:

- a read occupies the target die for the page read, then the die's
  channel for the page transfer out;
- a write occupies the channel for the transfer in, then the die for
  the program operation;
- an optional DRAM write buffer acknowledges writes at transfer speed
  and drains programs in the background, throttling when full — this is
  why a modern NVMe drive acks a 4 KB write in tens of microseconds
  while a program takes closer to a millisecond.

Pages are striped over dies round-robin by page number, the classic
channel-first interleaving.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..trace.record import SECTOR_BYTES, OpType
from .channel import PCIE3_X4, InterfaceChannel
from .device import StorageDevice

__all__ = ["FlashGeometry", "FlashSSD"]


def page_span(lbas, sizes, page_sectors: int):
    """``(first_page, n_pages)`` of the page extent touching a sector extent.

    Works elementwise on arrays and on plain ints.  The page count is
    taken from the extent's offset in its first page rather than from
    its end sector, so no int64 intermediate exceeds that offset plus
    the extent's length: a column stays exact even for an extent that
    runs past sector ``2**63 - 1`` (on Python ints the two forms are
    equal).  The scalar ``_pages_of`` walk, ``FlashSSD._service`` and
    the streaming flash loop's NumPy cut all take their extents from
    here.
    """
    first = lbas // page_sectors
    n_pages = (lbas % page_sectors + sizes - 1) // page_sectors + 1
    return first, n_pages


def shape_key(ops, first_pages, n_pages, sectors, page_sectors: int, total_dies: int):
    """The memo key of request shape ``(op, first_page % total_dies, n_pages, sectors)``.

    One integer per shape, elementwise on arrays and on plain ints (as
    :func:`page_span`).  A page count exceeds ``sectors //
    page_sectors`` by 0, 1 or 2 (the extent's offset in its first page
    decides which), so the key packs that excess in place of the count:
    distinct shapes get distinct keys, and an int64 column stays exact
    while ``6 * total_dies * (sectors + 1) < 2**63`` — far past any
    extent whose page walk could finish.
    """
    excess = n_pages - sectors // page_sectors
    return ((sectors * 3 + excess) * total_dies + first_pages % total_dies) * 2 + ops


class _RelService:
    """Memoised *relative* outcome of one request shape on an idle SSD.

    All values are offsets from the request's ``t_ready``.  Because the
    die/channel striping pattern of a page extent depends only on
    ``first_page % total_dies`` and the page count, one relative
    computation serves every request with the same shape — the replay
    hot path becomes a dict lookup plus a sparse state update.  Entries
    are plain data keyed by :func:`shape_key` in the shared memo:
    ``FlashSSD._service``, the streaming flash loop that collection and
    both replay modes run (``repro.replay.qdepth._flash_loop``) and the
    busy walks ``FlashSSD._busy_read``/``_busy_program`` all read the
    same fields, so every engine prices a shape identically.  The loop
    keys a whole block of fragments with NumPy, looks each key up once
    and calls ``FlashSSD._rel_entry`` on a miss.

    Die and channel state is *slot-indexed* (die ``page % total_dies``,
    channel ``page % channels``), so the slots a shape touches form a
    contiguous circular range.  The entry precomputes that range as at
    most two ``[a, b)`` segments plus, when every touched die (channel)
    lands on the same relative stamp — true for any extent of at most
    ``channels`` pages, i.e. every single-wave shape — the shared
    *uniform* value.  The streaming loop's idle probe of a multi-page
    shape then collapses to ``max()`` over a list slice and its commit
    to a slice assignment (:func:`_entry_idle_sparse`,
    :func:`_entry_commit`).  A one-page shape — most fragments of the
    catalog traces — also records ``one_page``, its ``(die slot, die
    offset, channel, channel offset)``: the loop probes it with two list
    reads and commits it with two stores.
    """

    __slots__ = (
        "svc", "drain_rel", "die_items", "chan_items", "horizon", "walk",
        "die_segs", "die_uval", "chan_segs", "chan_uval", "one_page",
        "is_read", "nbytes", "buffered", "walk_pairs", "walk_op_us",
    )

    def __init__(
        self,
        svc: float,
        drain_rel: float,
        die_rel: dict[int, float],
        chan_rel: dict[int, float],
        slot: int,
        n_pages: int,
        total_dies: int,
        channels: int,
        walk: list[tuple[int, int, float]] | None = None,
    ) -> None:
        self.svc = svc
        self.drain_rel = drain_rel
        #: (die slot, relative busy-until) pairs, first-visit page order.
        self.die_items = list(die_rel.items())
        self.chan_items = list(chan_rel.items())
        peak = max(
            max((v for _, v in self.die_items), default=0.0),
            max((v for _, v in self.chan_items), default=0.0),
        )
        self.horizon = max(svc, drain_rel, peak)
        #: Per-page ``(channel, die slot, op_us)`` tuples in page order —
        #: the shape's occupancy walk with the striping modulos and the
        #: multi-plane speedups resolved once, so the replay engine's
        #: busy path can re-run the scalar recurrence without dict or
        #: geometry lookups.
        self.walk = walk
        # Touched-slot ranges: [a1, b1) and the wrapped [0, b2).
        k = n_pages if n_pages < total_dies else total_dies
        if slot + k <= total_dies:
            self.die_segs = (slot, slot + k, 0)
        else:
            self.die_segs = (slot, total_dies, slot + k - total_dies)
        base_c = slot % channels
        kc = n_pages if n_pages < channels else channels
        if base_c + kc <= channels:
            self.chan_segs = (base_c, base_c + kc, 0)
        else:
            self.chan_segs = (base_c, channels, base_c + kc - channels)
        die_vals = list(die_rel.values())
        self.die_uval = die_vals[0] if die_vals.count(die_vals[0]) == len(die_vals) else None
        chan_vals = list(chan_rel.values())
        self.chan_uval = (
            chan_vals[0] if chan_vals.count(chan_vals[0]) == len(chan_vals) else None
        )
        if n_pages == 1:
            [(d, dv)] = self.die_items
            [(c, cv)] = self.chan_items
            self.one_page = (d, dv, c, cv)
        else:
            self.one_page = None
        # Request-shape flags the streaming loop needs per fragment;
        # the shape key includes op and size, so they are entry facts.
        # ``buffered`` marks a write the write buffer admits.  Filled by
        # ``FlashSSD._rel_entry``.
        self.is_read = True
        self.nbytes = 0
        self.buffered = False
        # Uniform-op walk split: ``walk_pairs`` is the (channel, slot)
        # page sequence and ``walk_op_us`` the shared per-page array
        # time, set when every page has the same op time and no die or
        # channel is visited twice (``n_pages <= channels``) so page
        # outcomes are mutually independent.  The busy walks then
        # compute only the exceptional busy slots page by page and
        # bulk-write the uniform remainder with slice assignments.
        if walk and n_pages <= channels and all(w[2] == walk[0][2] for w in walk):
            self.walk_pairs = [(ch, s) for ch, s, __ in walk]
            self.walk_op_us = walk[0][2]
        else:
            self.walk_pairs = None
            self.walk_op_us = None


def _entry_idle_sparse(db: list, cb: list, e: _RelService, t_ready: float) -> bool:
    """Exact sparse idle probe over the entry's contiguous slot ranges.

    Equivalent to ``FlashSSD._state_idle_for`` with the horizon tier
    already checked by the caller (the streaming flash loop, which
    keeps member horizons in locals and probes one-page shapes
    inline): ``True`` iff no touched die or channel is busy past
    ``t_ready``.  ``max()`` over a list slice is the same comparison
    set as the scalar per-item loop.
    """
    a, b, b2 = e.die_segs
    if max(db[a:b]) > t_ready:
        return False
    if b2 and max(db[:b2]) > t_ready:
        return False
    a, b, b2 = e.chan_segs
    if max(cb[a:b]) > t_ready:
        return False
    if b2 and max(cb[:b2]) > t_ready:
        return False
    return True


def _entry_commit(db: list, cb: list, e: _RelService, t_ready: float) -> None:
    """Apply the entry's busy-stamp update; bitwise ``_commit_fast`` twin.

    Uniform single-wave shapes commit with slice assignments (the
    shared stamp ``t_ready + v`` equals what the per-item loop writes,
    same operands); non-uniform shapes fall back to the item loop.
    The caller owns the horizon update (the streaming flash loop
    mirrors member horizons into locals and writes them back once).
    """
    u = e.die_uval
    if u is not None:
        a, b, b2 = e.die_segs
        v = t_ready + u
        db[a:b] = [v] * (b - a)
        if b2:
            db[:b2] = [v] * b2
    else:
        for s, rel in e.die_items:
            db[s] = t_ready + rel
    u = e.chan_uval
    if u is not None:
        a, b, b2 = e.chan_segs
        v = t_ready + u
        cb[a:b] = [v] * (b - a)
        if b2:
            cb[:b2] = [v] * b2
    else:
        for c, rel in e.chan_items:
            cb[c] = t_ready + rel


#: Relative services depend only on (geometry, plane interleave,
#: channel), all immutable — so every SSD with the same configuration
#: (e.g. the four members of each freshly-built evaluation array)
#: shares one memo and the cache stays warm across device instances.
_SHARED_REL_CACHES: dict[object, dict[int, "_RelService"]] = {}


@dataclass(frozen=True, slots=True)
class FlashGeometry:
    """Structural and timing parameters of one SSD.

    Defaults approximate a 2015-era NVMe device (the Intel 750 class
    drive named in the paper): 18 channels × 2 dies, 8 KB pages, ~70 µs
    page read, ~900 µs program, 400 MB/s per-channel bus.
    """

    channels: int = 18
    dies_per_channel: int = 2
    planes_per_die: int = 2
    page_kb: int = 8
    read_us: float = 68.0
    program_us: float = 900.0
    channel_mb_s: float = 400.0
    write_buffer_kb: int = 512
    buffer_write_us: float = 18.0

    def __post_init__(self) -> None:
        if min(self.channels, self.dies_per_channel, self.planes_per_die, self.page_kb) <= 0:
            raise ValueError("geometry counts must be positive")
        if min(self.read_us, self.program_us, self.channel_mb_s, self.buffer_write_us) <= 0:
            raise ValueError("timing parameters must be positive")
        if self.write_buffer_kb < 0:
            raise ValueError("write buffer size must be non-negative")

    @property
    def total_dies(self) -> int:
        """Dies across all channels."""
        return self.channels * self.dies_per_channel

    @property
    def total_planes(self) -> int:
        """Planes across all dies."""
        return self.total_dies * self.planes_per_die

    @property
    def page_sectors(self) -> int:
        """Sectors per flash page."""
        return self.page_kb * 1024 // SECTOR_BYTES

    @property
    def page_transfer_us(self) -> float:
        """Time to move one page over a flash channel bus."""
        return self.page_kb * 1024 / (self.channel_mb_s * 1e6) * 1e6

    def die_of_page(self, page: int) -> tuple[int, int]:
        """(channel, die-within-channel) for a page, channel-first striping."""
        die_global = page % self.total_dies
        return die_global % self.channels, die_global // self.channels


class FlashSSD(StorageDevice):
    """One NVMe SSD with internal channel/die parallelism.

    Parameters
    ----------
    geometry:
        Structure and NAND timings; defaults match the paper's device.
    channel:
        Host link; defaults to PCIe 3.0 x4.
    plane_interleave:
        When ``True`` (default), multi-plane commands cut effective
        page-op latency by the plane count for requests spanning
        multiple consecutive pages on one die — a standard NAND
        optimisation the array needs to reach its headline bandwidth.
    """

    def __init__(
        self,
        geometry: FlashGeometry | None = None,
        channel: InterfaceChannel = PCIE3_X4,
        plane_interleave: bool = True,
    ) -> None:
        super().__init__(channel)
        self.geometry = geometry or FlashGeometry()
        self.plane_interleave = plane_interleave
        g = self.geometry
        # Flat lists (index = ch * dies_per_channel + die) rather than
        # NumPy arrays: the service paths read and write one scalar at a
        # time, where list indexing is several times cheaper.
        self._die_busy: list[float] = [0.0] * g.total_dies
        self._chan_busy: list[float] = [0.0] * g.channels
        # Write buffer: FIFO of (drain_complete_time, bytes) entries.
        self._buffered: deque[tuple[float, int]] = deque()
        self._buffered_bytes = 0
        # Fast-path bookkeeping: memoised relative services and the
        # global busy horizon (max of every die/channel/drain stamp).
        self._rel_cache = _SHARED_REL_CACHES.setdefault(
            (self.geometry, plane_interleave, channel), {}
        )
        self._state_horizon = 0.0
        # Scalars hoisted out of the per-request path (geometry is
        # frozen, but its properties recompute on every access).
        self._page_sectors = g.page_sectors
        self._total_dies = g.total_dies
        self._buffer_capacity = g.write_buffer_kb * 1024
        self._xfer_us = g.page_transfer_us
        # Die/channel state is *slot-indexed*: die slot = page %
        # total_dies, channel = page % channels (total_dies is a
        # multiple of channels, so the two stripings agree).  A page
        # extent therefore touches a contiguous circular slot range —
        # what lets the memoised entries describe their footprint as
        # slices.  ``_map_ch`` caches slot -> channel for the page
        # walks (list indexing beats a per-page modulo).
        self._map_ch = (np.arange(self._total_dies, dtype=np.int64) % g.channels).tolist()

    @property
    def name(self) -> str:
        """Human-readable model name."""
        g = self.geometry
        return f"flash({g.channels}ch/{g.total_dies}die/{g.total_planes}pl)"

    def fingerprint(self) -> str:
        return f"{super().fingerprint()}|{self.geometry!r}|interleave={self.plane_interleave}"

    def reset(self) -> None:
        """Cold state: all channels and dies idle, buffer empty.

        The relative-service memo survives resets — it depends only on
        the (immutable) geometry, not on simulator state.
        """
        super().reset()
        g = self.geometry
        self._die_busy = [0.0] * g.total_dies
        self._chan_busy = [0.0] * g.channels
        self._buffered.clear()
        self._buffered_bytes = 0
        self._state_horizon = 0.0

    # ------------------------------------------------------------------

    def _pages_of(self, lba: int, size: int) -> range:
        """Flash pages touched by a sector extent."""
        first, n_pages = page_span(lba, size, self._page_sectors)
        return range(first, first + n_pages)

    def _page_op_us(self, base_us: float, n_pages_on_die: int) -> float:
        """Effective per-page array time with multi-plane interleaving."""
        if not self.plane_interleave or n_pages_on_die <= 1:
            return base_us
        speedup = min(self.geometry.planes_per_die, n_pages_on_die)
        return base_us / speedup

    def _read_pages(self, pages: range, t_ready: float) -> float:
        """Service a read: die array read, then channel transfer out.

        Retained scalar walk — the oracle for the memoised per-shape
        walk :meth:`_busy_read` and for the memo's relative services.
        """
        g = self.geometry
        td = self._total_dies
        map_ch = self._map_ch
        xfer_us = g.page_transfer_us
        per_die_count: dict[int, int] = {}
        for page in pages:
            slot = page % td
            per_die_count[slot] = per_die_count.get(slot, 0) + 1
        finish = t_ready
        die_busy, chan_busy = self._die_busy, self._chan_busy
        for page in pages:
            slot = page % td
            ch = map_ch[slot]
            read_us = self._page_op_us(g.read_us, per_die_count[slot])
            read_done = max(t_ready, die_busy[slot]) + read_us
            xfer_done = max(read_done, chan_busy[ch]) + xfer_us
            die_busy[slot] = read_done
            chan_busy[ch] = xfer_done
            if xfer_done > finish:
                finish = xfer_done
        return finish

    def _program_pages(self, pages: range, t_ready: float) -> float:
        """Drain writes to NAND: channel transfer in, then program.

        Retained scalar walk — the oracle for the memoised per-shape
        walk :meth:`_busy_program` and for the memo's relative services.
        """
        g = self.geometry
        td = self._total_dies
        map_ch = self._map_ch
        xfer_us = g.page_transfer_us
        per_die_count: dict[int, int] = {}
        for page in pages:
            slot = page % td
            per_die_count[slot] = per_die_count.get(slot, 0) + 1
        finish = t_ready
        die_busy, chan_busy = self._die_busy, self._chan_busy
        for page in pages:
            slot = page % td
            ch = map_ch[slot]
            xfer_done = max(t_ready, chan_busy[ch]) + xfer_us
            prog_us = self._page_op_us(g.program_us, per_die_count[slot])
            prog_done = max(xfer_done, die_busy[slot]) + prog_us
            chan_busy[ch] = xfer_done
            die_busy[slot] = prog_done
            if prog_done > finish:
                finish = prog_done
        return finish

    def _buffer_admit(self, nbytes: int, now: float) -> float:
        """Earliest time ``nbytes`` fit in the write buffer.

        Entries whose background drain completed before ``now`` are
        retired first; if space is still short, admission waits for the
        oldest in-flight drains.
        """
        capacity = self.geometry.write_buffer_kb * 1024
        while self._buffered and self._buffered[0][0] <= now:
            __, freed = self._buffered.popleft()
            self._buffered_bytes -= freed
        admit_at = now
        while self._buffered_bytes + nbytes > capacity and self._buffered:
            drain_time, freed = self._buffered.popleft()
            self._buffered_bytes -= freed
            admit_at = max(admit_at, drain_time)
        return admit_at

    # ------------------------------------------------------------------
    # memoised relative-service fast path
    # ------------------------------------------------------------------

    def _rel_read(self, first_page: int, n_pages: int) -> _RelService:
        """:meth:`_read_pages` re-run with ``t_ready = 0`` on idle state."""
        g = self.geometry
        td = self._total_dies
        pages = range(first_page, first_page + n_pages)
        per_die_count: dict[int, int] = {}
        for page in pages:
            slot = page % td
            per_die_count[slot] = per_die_count.get(slot, 0) + 1
        die_rel: dict[int, float] = {}
        chan_rel: dict[int, float] = {}
        walk: list[tuple[int, int, float]] = []
        svc = 0.0
        for page in pages:
            slot = page % td
            ch = self._map_ch[slot]
            read_us = self._page_op_us(g.read_us, per_die_count[slot])
            walk.append((ch, slot, read_us))
            read_done = die_rel.get(slot, 0.0) + read_us
            xfer_done = max(read_done, chan_rel.get(ch, 0.0)) + g.page_transfer_us
            die_rel[slot] = read_done
            chan_rel[ch] = xfer_done
            svc = max(svc, xfer_done)
        return _RelService(
            svc, 0.0, die_rel, chan_rel, first_page % td, n_pages,
            td, g.channels, walk=walk,
        )

    def _rel_program(
        self, first_page: int, n_pages: int, base: float
    ) -> tuple[float, dict[int, float], dict[int, float], list]:
        """:meth:`_program_pages` re-run at relative time ``base`` on idle state."""
        g = self.geometry
        td = self._total_dies
        pages = range(first_page, first_page + n_pages)
        per_die_count: dict[int, int] = {}
        for page in pages:
            slot = page % td
            per_die_count[slot] = per_die_count.get(slot, 0) + 1
        die_rel: dict[int, float] = {}
        chan_rel: dict[int, float] = {}
        walk: list[tuple[int, int, float]] = []
        finish = base
        for page in pages:
            slot = page % td
            ch = self._map_ch[slot]
            xfer_done = max(base, chan_rel.get(ch, 0.0)) + g.page_transfer_us
            prog_us = self._page_op_us(g.program_us, per_die_count[slot])
            walk.append((ch, slot, prog_us))
            prog_done = max(xfer_done, die_rel.get(slot, 0.0)) + prog_us
            chan_rel[ch] = xfer_done
            die_rel[slot] = prog_done
            finish = max(finish, prog_done)
        return finish, die_rel, chan_rel, walk

    def _rel_entry(self, op: OpType, first_page: int, n_pages: int, size: int) -> _RelService:
        """Cached relative service for one request shape."""
        g = self.geometry
        key = shape_key(op, first_page, n_pages, size, self._page_sectors, self._total_dies)
        entry = self._rel_cache.get(key)
        if entry is not None:
            return entry
        nbytes = size * SECTOR_BYTES
        if op is OpType.READ:
            entry = self._rel_read(first_page, n_pages)
        else:
            slot = first_page % self._total_dies
            if g.write_buffer_kb > 0 and nbytes <= g.write_buffer_kb * 1024:
                ack_rel = g.buffer_write_us + nbytes / (self.channel.bandwidth_mb_s * 4)
                drain_rel, die_rel, chan_rel, walk = self._rel_program(
                    first_page, n_pages, ack_rel
                )
                entry = _RelService(
                    ack_rel, drain_rel, die_rel, chan_rel, slot, n_pages,
                    self._total_dies, g.channels, walk=walk,
                )
            else:
                finish_rel, die_rel, chan_rel, walk = self._rel_program(first_page, n_pages, 0.0)
                entry = _RelService(
                    finish_rel, 0.0, die_rel, chan_rel, slot, n_pages,
                    self._total_dies, g.channels, walk=walk,
                )
            entry.is_read = False
            entry.buffered = 0 < nbytes <= self._buffer_capacity
        entry.nbytes = nbytes
        self._rel_cache[key] = entry
        return entry

    def _state_idle_for(self, entry: _RelService, t_ready: float) -> bool:
        """Whether every die/channel this request touches is idle at ``t_ready``.

        Two tiers: a scalar horizon check (no state reads at all), then
        a sparse check over just the touched entries.  Both are safe for
        non-monotone ``t_ready`` (a smaller request at the same submit
        time has a smaller channel delay): the horizon is the global
        running maximum, and the busy lists are always current.
        """
        if t_ready >= self._state_horizon:
            return True
        die_busy = self._die_busy
        for flat, _ in entry.die_items:
            if die_busy[flat] > t_ready:
                return False
        chan_busy = self._chan_busy
        for ch, _ in entry.chan_items:
            if chan_busy[ch] > t_ready:
                return False
        return True

    def _commit_fast(self, entry: _RelService, t_ready: float) -> None:
        """Apply the request's memoised sparse state update; bump the horizon."""
        die_busy = self._die_busy
        for flat, value in entry.die_items:
            die_busy[flat] = t_ready + value
        chan_busy = self._chan_busy
        for ch, value in entry.chan_items:
            chan_busy[ch] = t_ready + value
        horizon = t_ready + entry.horizon
        if horizon > self._state_horizon:
            self._state_horizon = horizon

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        g = self.geometry
        ps = self._page_sectors
        first_page, n_pages = page_span(lba, size, ps)
        entry = self._rel_cache.get(
            shape_key(op, first_page, n_pages, size, ps, self._total_dies)
        )
        if entry is None:
            entry = self._rel_entry(op, first_page, n_pages, size)
        if op is OpType.READ:
            # Hot path, inlined: tier-1 horizon check, sparse state
            # write, and the memoised relative finish.
            if t_ready >= self._state_horizon or self._state_idle_for(entry, t_ready):
                die_busy = self._die_busy
                for flat, value in entry.die_items:
                    die_busy[flat] = t_ready + value
                chan_busy = self._chan_busy
                for ch, value in entry.chan_items:
                    chan_busy[ch] = t_ready + value
                horizon = t_ready + entry.horizon
                if horizon > self._state_horizon:
                    self._state_horizon = horizon
                return t_ready, t_ready + entry.svc
            finish = self._read_pages(self._pages_of(lba, size), t_ready)
            self._state_horizon = max(self._state_horizon, finish)
            return t_ready, finish
        nbytes = size * SECTOR_BYTES
        if 0 < nbytes <= self._buffer_capacity:
            # Retire drained buffer entries (same rule _buffer_admit uses).
            while self._buffered and self._buffered[0][0] <= t_ready:
                __, freed = self._buffered.popleft()
                self._buffered_bytes -= freed
            fits = self._buffered_bytes + nbytes <= self._buffer_capacity
            if self._state_idle_for(entry, t_ready) and fits:
                self._buffered.append((t_ready + entry.drain_rel, nbytes))
                self._buffered_bytes += nbytes
                self._commit_fast(entry, t_ready)
                return t_ready, t_ready + entry.svc
            start = self._buffer_admit(nbytes, t_ready)
            ack_done = start + g.buffer_write_us + nbytes / (self.channel.bandwidth_mb_s * 4)
            drain_done = self._program_pages(self._pages_of(lba, size), ack_done)
            self._buffered.append((drain_done, nbytes))
            self._buffered_bytes += nbytes
            self._state_horizon = max(self._state_horizon, drain_done)
            return start, ack_done
        if self._state_idle_for(entry, t_ready):
            self._commit_fast(entry, t_ready)
            return t_ready, t_ready + entry.svc
        finish = self._program_pages(self._pages_of(lba, size), t_ready)
        self._state_horizon = max(self._state_horizon, finish)
        return t_ready, finish

    # ------------------------------------------------------------------
    # streaming replay loop support (repro.replay.qdepth._flash_loop)
    # ------------------------------------------------------------------

    def flash_layout(self) -> tuple[list["FlashSSD"], None]:
        """This SSD as the one member, unstriped (see ``StorageDevice.flash_layout``)."""
        return [self], None

    def _busy_read(self, entry: _RelService, t_ready: float) -> float:
        """Busy-state read walk with the shape's striping prefetched.

        Bit-identical to :meth:`_read_pages` (the retained oracle): the
        memoised walk replays the exact per-page recurrence with the
        modulo/dict work resolved at shape-evaluation time, at every
        extent size.  Shapes with independent pages compute only the
        exceptional busy dies/channels and slice-fill the uniform
        remainder.
        """
        xfer_us = self._xfer_us
        die_busy, chan_busy = self._die_busy, self._chan_busy
        pairs = entry.walk_pairs
        if pairs is not None:
            # Independent pages: an idle page's read_done is exactly
            # fl(t_ready + op) and its transfer fl(v1 + xfer) — the
            # same operands the per-page loop would use.
            v1 = t_ready + entry.walk_op_us
            w1 = v1 + xfer_us
            finish = t_ready
            die_over = None
            chan_over = None
            uniform = False
            for ch, slot in pairs:
                d = die_busy[slot]
                c = chan_busy[ch]
                if d <= t_ready and c <= v1:
                    uniform = True
                    continue
                read_done = (t_ready if t_ready >= d else d) + entry.walk_op_us
                xfer_done = (read_done if read_done >= c else c) + xfer_us
                if die_over is None:
                    die_over = []
                    chan_over = []
                die_over.append((slot, read_done))
                chan_over.append((ch, xfer_done))
                if xfer_done > finish:
                    finish = xfer_done
            if uniform and w1 > finish:
                finish = w1
            a, b, b2 = entry.die_segs
            die_busy[a:b] = [v1] * (b - a)
            if b2:
                die_busy[:b2] = [v1] * b2
            a, b, b2 = entry.chan_segs
            chan_busy[a:b] = [w1] * (b - a)
            if b2:
                chan_busy[:b2] = [w1] * b2
            if die_over is not None:
                for slot, v in die_over:
                    die_busy[slot] = v
                for ch, v in chan_over:
                    chan_busy[ch] = v
            return finish
        finish = t_ready
        for ch, slot, read_us in entry.walk:
            d = die_busy[slot]
            read_done = (t_ready if t_ready >= d else d) + read_us
            c = chan_busy[ch]
            xfer_done = (read_done if read_done >= c else c) + xfer_us
            die_busy[slot] = read_done
            chan_busy[ch] = xfer_done
            if xfer_done > finish:
                finish = xfer_done
        return finish

    def _busy_program(self, entry: _RelService, t_ready: float) -> float:
        """Busy-state program walk; oracle is :meth:`_program_pages`."""
        xfer_us = self._xfer_us
        die_busy, chan_busy = self._die_busy, self._chan_busy
        pairs = entry.walk_pairs
        if pairs is not None:
            v1 = t_ready + xfer_us
            w1 = v1 + entry.walk_op_us
            finish = t_ready
            die_over = None
            chan_over = None
            uniform = False
            for ch, slot in pairs:
                c = chan_busy[ch]
                d = die_busy[slot]
                if c <= t_ready:
                    if d <= v1:
                        uniform = True
                        continue
                    xfer_done = v1
                else:
                    xfer_done = c + xfer_us
                    if chan_over is None:
                        chan_over = []
                    chan_over.append((ch, xfer_done))
                prog_done = (xfer_done if xfer_done >= d else d) + entry.walk_op_us
                if die_over is None:
                    die_over = []
                die_over.append((slot, prog_done))
                if prog_done > finish:
                    finish = prog_done
            if uniform and w1 > finish:
                finish = w1
            a, b, b2 = entry.chan_segs
            chan_busy[a:b] = [v1] * (b - a)
            if b2:
                chan_busy[:b2] = [v1] * b2
            a, b, b2 = entry.die_segs
            die_busy[a:b] = [w1] * (b - a)
            if b2:
                die_busy[:b2] = [w1] * b2
            if chan_over is not None:
                for ch, v in chan_over:
                    chan_busy[ch] = v
            if die_over is not None:
                for slot, v in die_over:
                    die_busy[slot] = v
            return finish
        finish = t_ready
        for ch, slot, prog_us in entry.walk:
            c = chan_busy[ch]
            xfer_done = (t_ready if t_ready >= c else c) + xfer_us
            d = die_busy[slot]
            prog_done = (xfer_done if xfer_done >= d else d) + prog_us
            chan_busy[ch] = xfer_done
            die_busy[slot] = prog_done
            if prog_done > finish:
                finish = prog_done
        return finish
