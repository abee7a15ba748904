"""Bit-identity suite for the device-model fast paths.

Every fast path of the storage emulation layer must reproduce its
retained scalar oracle *exactly* — same IEEE-754 doubles, same
simulator state afterwards:

- the memoised busy walks (``FlashSSD._busy_read`` / ``_busy_program``,
  including the exception/slice split) against the scalar per-page
  walks ``FlashSSD._read_pages`` / ``_program_pages``, at every extent
  size from one page to many waves over the dies;
- ``service_batch`` pricing of the RAID levels against the synchronous
  scalar replay's stamps, and the flash family's refusal to price;
- the RAID member-stream decomposition against the fan-out the scalar
  ``_service`` performs request by request;
- the streaming flash loop, in sync and queue-depth replay, against
  the scalar replay oracles, including *simulator-state equivalence*
  (die/channel busy stamps, write-buffer occupancy, horizons, RNG
  state where present) and mixed batch/scalar use;
- large extents (up to 300 pages) end to end through every replay
  loop, and extents at the top of the int64 sector range;
- SHA-256 digests of the flash stamps and member state on catalog
  streams, pinned so a change to the shared memo entries themselves
  (which every engine and oracle read) shows.
"""

from __future__ import annotations

import hashlib
from functools import cache

import numpy as np
import pytest

from repro.experiments import new_node
from repro.experiments.pairs import build_pair_for
from repro.inference.idle import extract_idle
from repro.replay import (
    replay_back_to_back_batch,
    replay_queue_depth,
    replay_queue_depth_scalar,
    replay_with_idle,
    replay_with_idle_batch,
)
from repro.replay.qdepth import _flash_loop, _padded_idle
from repro.storage import (
    SATA_600,
    ConstantLatencyDevice,
    FlashArray,
    FlashGeometry,
    FlashSSD,
    HDDModel,
    Raid0,
    Raid1,
)
from repro.storage.flash import page_span, shape_key
from repro.storage.raid import _mirror_streams
from repro.trace.record import OpType
from repro.trace.trace import BlockTrace
from test_replay_batch import DEVICE_FACTORIES, assert_replays_identical, replay_through_loop

#: The last sector an int64 LBA column can name.
I64_TOP = 2**63 - 1

#: Geometries covering the default device, a tiny array-shaped layout,
#: single-plane dies, and a buffer-less configuration.
GEOMETRIES = {
    "default": FlashGeometry(),
    "tiny": FlashGeometry(channels=3, dies_per_channel=2, planes_per_die=2, page_kb=4),
    "single-plane": FlashGeometry(channels=4, dies_per_channel=1, planes_per_die=1),
    "no-buffer": FlashGeometry(write_buffer_kb=0),
    "wide-planes": FlashGeometry(channels=2, dies_per_channel=3, planes_per_die=4),
}


def _random_state(rng, ssd):
    """Random busy stamps: a mix of idle, mildly busy, and far-future."""
    g = ssd.geometry
    die = rng.uniform(0.0, 3000.0, g.total_dies)
    die[rng.random(g.total_dies) < 0.4] = 0.0
    chan = rng.uniform(0.0, 2000.0, g.channels)
    chan[rng.random(g.channels) < 0.4] = 0.0
    ssd._die_busy = die.tolist()
    ssd._chan_busy = chan.tolist()


def _clone_state(ssd):
    return list(ssd._die_busy), list(ssd._chan_busy)


def _assert_busy_walk_matches(ssd, op, first_page, n_pages, t_ready):
    """The memoised busy walk vs the page walk, from the SSD's current state."""
    pages = range(first_page, first_page + n_pages)
    entry = ssd._rel_entry(op, first_page, n_pages, n_pages * ssd.geometry.page_sectors)
    d0, c0 = _clone_state(ssd)
    if op is OpType.READ:
        oracle = ssd._read_pages(pages, t_ready)
        walk = ssd._busy_read
    else:
        oracle = ssd._program_pages(pages, t_ready)
        walk = ssd._busy_program
    d1, c1 = _clone_state(ssd)
    ssd._die_busy, ssd._chan_busy = list(d0), list(c0)
    assert walk(entry, t_ready) == oracle
    assert ssd._die_busy == d1
    assert ssd._chan_busy == c1


class TestWaveKernels:
    """Multi-wave extents: the memoised busy walks vs the page walks.

    An extent of more than ``total_dies`` pages visits each die in
    several waves.  The busy walks serve every extent size, so they are
    held to the page walks on every geometry, with multi-plane
    interleave on and off, from one page to several waves and past 64
    pages.
    """

    @pytest.mark.parametrize("geom_key", sorted(GEOMETRIES))
    @pytest.mark.parametrize("interleave", [True, False])
    def test_read_wave_bit_identical(self, geom_key, interleave):
        g = GEOMETRIES[geom_key]
        ssd = FlashSSD(geometry=g, plane_interleave=interleave)
        rng = np.random.default_rng(7)
        td = g.total_dies
        for n_pages in [1, 2, g.channels - 1, g.channels, g.channels + 1,
                        td - 1, td, td + 1, 2 * td, 3 * td + 5, 67, 130]:
            if n_pages < 1:
                continue
            for first_page in [0, 1, td - 1, 7 * td + 3]:
                for t_ready in [0.0, 123.456]:
                    _random_state(rng, ssd)
                    _assert_busy_walk_matches(ssd, OpType.READ, first_page, n_pages, t_ready)

    @pytest.mark.parametrize("geom_key", sorted(GEOMETRIES))
    @pytest.mark.parametrize("interleave", [True, False])
    def test_program_wave_bit_identical(self, geom_key, interleave):
        g = GEOMETRIES[geom_key]
        ssd = FlashSSD(geometry=g, plane_interleave=interleave)
        rng = np.random.default_rng(11)
        td = g.total_dies
        for n_pages in [1, 3, g.channels, g.channels + 2, td, td + 1, 2 * td + 3, 67, 130]:
            for first_page in [0, td - 2, 5 * td + 1]:
                for t_ready in [0.0, 987.25]:
                    _random_state(rng, ssd)
                    _assert_busy_walk_matches(ssd, OpType.WRITE, first_page, n_pages, t_ready)


class TestBusyWalks:
    """Memoised busy walks on entries keyed from sector extents."""

    @pytest.mark.parametrize("geom_key", sorted(GEOMETRIES))
    def test_busy_read_matches_oracle(self, geom_key):
        g = GEOMETRIES[geom_key]
        ssd = FlashSSD(geometry=g)
        rng = np.random.default_rng(23)
        ps = g.page_sectors
        for n_pages in [1, 2, g.channels, g.channels + 1, 67, 130]:
            for lba_page in [0, 3, g.total_dies + 1]:
                lba = lba_page * ps
                size = n_pages * ps
                entry = ssd._rel_entry(OpType.READ, lba // ps, n_pages, size)
                for t_ready in [0.0, 500.5]:
                    _random_state(rng, ssd)
                    d0, c0 = _clone_state(ssd)
                    oracle = ssd._read_pages(ssd._pages_of(lba, size), t_ready)
                    d1, c1 = _clone_state(ssd)
                    ssd._die_busy, ssd._chan_busy = list(d0), list(c0)
                    got = ssd._busy_read(entry, t_ready)
                    assert got == oracle
                    assert ssd._die_busy == d1
                    assert ssd._chan_busy == c1

    @pytest.mark.parametrize("geom_key", sorted(GEOMETRIES))
    def test_busy_program_matches_oracle(self, geom_key):
        g = GEOMETRIES[geom_key]
        ssd = FlashSSD(geometry=g)
        rng = np.random.default_rng(29)
        ps = g.page_sectors
        for n_pages in [1, 2, g.channels, g.channels + 2, 67, 130]:
            for lba_page in [0, 5]:
                lba = lba_page * ps
                size = n_pages * ps
                entry = ssd._rel_entry(OpType.WRITE, lba // ps, n_pages, size)
                for t_ready in [0.0, 77.125]:
                    _random_state(rng, ssd)
                    d0, c0 = _clone_state(ssd)
                    oracle = ssd._program_pages(ssd._pages_of(lba, size), t_ready)
                    d1, c1 = _clone_state(ssd)
                    ssd._die_busy, ssd._chan_busy = list(d0), list(c0)
                    got = ssd._busy_program(entry, t_ready)
                    assert got == oracle
                    assert ssd._die_busy == d1
                    assert ssd._chan_busy == c1


class TestMultiPlaneInterleave:
    """``_page_op_us`` edge cases: busy walks vs page walks."""

    def test_planes_per_die_one_no_speedup(self):
        g = FlashGeometry(channels=2, dies_per_channel=2, planes_per_die=1)
        ssd = FlashSSD(geometry=g)
        # Page count above the die count forces multi-visit waves.
        assert ssd._page_op_us(g.read_us, 3) == g.read_us
        self._assert_walks_match(g, plane_interleave=True)

    def test_interleave_disabled(self):
        self._assert_walks_match(FlashGeometry(), plane_interleave=False)

    @pytest.mark.parametrize("n_pages_per_die", [1, 2, 3, 5])
    def test_page_count_around_plane_count(self, n_pages_per_die):
        # planes_per_die = 2: covers below (1), at (2), above (3, 5).
        g = FlashGeometry(channels=2, dies_per_channel=1, planes_per_die=2)
        ssd = FlashSSD(geometry=g)
        _assert_busy_walk_matches(ssd, OpType.READ, 0, n_pages_per_die * g.total_dies, 0.0)

    @staticmethod
    def _assert_walks_match(g, plane_interleave):
        ssd = FlashSSD(geometry=g, plane_interleave=plane_interleave)
        for n_pages in [1, g.planes_per_die, g.planes_per_die + 1, 2 * g.total_dies]:
            ssd.reset()
            _assert_busy_walk_matches(ssd, OpType.WRITE, 3, n_pages, 10.0)


def _random_stream(rng, n, max_lba=1 << 22, max_size=600):
    return (
        rng.integers(0, 2, n).astype(np.int8),
        rng.integers(0, max_lba, n),
        rng.integers(1, max_size, n),
    )


def _assert_prices_sync_replay(make, ops, lbas, sizes, seed):
    """``service_batch`` on a cold device vs the synchronous scalar replay.

    Sync replay submits each request after the previous one finished,
    so every element of the batch price is that request's duration in
    the scalar replay.  It is compared as ``start + svc == finish``, the
    addition the device performs: ``finish - start`` would round.
    """
    svc = make().service_batch(ops, lbas, sizes)
    assert svc is not None
    n = len(ops)
    trace = BlockTrace(
        timestamps=np.arange(n, dtype=np.float64), lbas=lbas, sizes=sizes, ops=ops
    )
    idle = np.random.default_rng(seed).uniform(0.0, 500.0, n - 1)
    rep = replay_with_idle(trace, make(), idle)
    np.testing.assert_array_equal(rep.starts + svc, rep.finishes)


class TestGroupedServiceBatch:
    """Flash streams are never priced up front, and the page-span helper."""

    def test_array_service_batch_wide_extents(self):
        # The array prices no stream; extents spanning more stripes than
        # members revisit an SSD, whose fragments then queue behind each
        # other in the streaming flash loop exactly as in _service.
        ops = np.zeros(40, dtype=np.int8)
        lbas = np.arange(40, dtype=np.int64) * 13
        sizes = np.full(40, 8 * 2 * 7, dtype=np.int64)  # 7 stripes each
        assert FlashArray(n_ssds=3, stripe_kb=8).service_batch(ops, lbas, sizes) is None
        trace = BlockTrace(
            timestamps=np.arange(40, dtype=np.float64), lbas=lbas, sizes=sizes, ops=ops
        )
        idle = np.full(39, 50.0)
        assert_replays_identical(
            replay_with_idle_batch(trace, FlashArray(n_ssds=3, stripe_kb=8), idle),
            replay_with_idle(trace, FlashArray(n_ssds=3, stripe_kb=8), idle),
        )

    def test_page_span_matches_pages_of(self):
        ssd = FlashSSD()
        ps = ssd.geometry.page_sectors
        for lba, size in [(0, 1), (ps - 1, 1), (ps - 1, 2), (123456, 999), (I64_TOP, 1)]:
            first, n_pages = page_span(lba, size, ps)
            pages = ssd._pages_of(lba, size)
            assert pages.start == first and len(pages) == n_pages

    def test_page_span_column_exact_at_int64_top(self):
        ps = FlashSSD().geometry.page_sectors
        extents = [(I64_TOP, 1), (I64_TOP - 7, 8), (I64_TOP - 299, 300), (I64_TOP - ps, ps + 1)]
        lbas, sizes = (np.array(column, dtype=np.int64) for column in zip(*extents))
        first, n_pages = page_span(lbas, sizes, ps)
        assert list(zip(first.tolist(), n_pages.tolist())) == [
            page_span(lba, size, ps) for lba, size in extents
        ]

    def test_shape_key_is_one_to_one(self):
        """Distinct shapes get distinct keys, and the column form equals
        the int form."""
        ps, td = 16, 36
        shapes = {
            (op, page % td, n_pages, size)
            for op in (0, 1)
            for page in range(2 * td)
            for offset in range(ps)
            for size in range(1, 4 * ps)
            for n_pages in [page_span(page * ps + offset, size, ps)[1]]
        }
        keys = {shape_key(op, slot, n, size, ps, td) for op, slot, n, size in shapes}
        assert len(keys) == len(shapes)
        ops, slots, pages, sizes = (np.array(column) for column in zip(*sorted(shapes)))
        assert shape_key(ops, slots, pages, sizes, ps, td).tolist() == [
            shape_key(*shape, ps, td) for shape in sorted(shapes)
        ]


class _Recorder(ConstantLatencyDevice):
    """RAID member that logs ``(request, op, lba, size)`` for each call."""

    def __init__(self, current: list[int]) -> None:
        super().__init__(SATA_600)
        self.current = current
        self.log: list[tuple[int, int, int, int]] = []

    def _service(self, op, lba, size, t_ready):
        self.log.append((self.current[0], int(op), lba, size))
        return super()._service(op, lba, size, t_ready)


def _routed_by_service(raid, ops, lbas, sizes):
    """Per-member rows as the scalar ``_service`` fan-out routes them."""
    current = raid.members[0].current
    for i, (op, lba, size) in enumerate(zip(ops.tolist(), lbas.tolist(), sizes.tolist())):
        current[0] = i
        raid._service(OpType(op), lba, size, 0.0)
    return [m.log for m in raid.members]


def _rows(streams):
    """Per-member ``(request, op, lba, size)`` rows of built streams."""
    return [list(zip(*(np.asarray(col).tolist() for col in s))) for s in streams]


class TestRaidStreams:
    """RAID fan-out: the stream builders vs the scalar ``_service`` routing."""

    def test_raid0_streams_identical(self):
        rng = np.random.default_rng(43)
        current = [0]
        raid = Raid0([_Recorder(current) for _ in range(3)], stripe_kb=64)
        # At most 257 sectors: no extent spans more than 3 stripes.
        ops, lbas, sizes = _random_stream(rng, 200, max_size=2 * 128 + 2)
        streams = raid._member_streams(ops, lbas, sizes)
        assert streams is not None
        assert _rows(streams) == _routed_by_service(raid, ops, lbas, sizes)

    def test_raid0_wide_extent_rejected_by_both(self):
        # Both the stream builder and the batch gate refuse the stream.
        raid = Raid0([HDDModel(seed=s) for s in (1, 2)], stripe_kb=8)
        ops = np.zeros(3, dtype=np.int8)
        lbas = np.array([0, 5, 10])
        sizes = np.array([8, 8 * 2 * 5, 8])  # middle spans > 2 stripes
        assert raid._member_streams(ops, lbas, sizes) is None
        assert not raid.supports_batch(ops, lbas, sizes)
        assert raid.service_batch(ops, lbas, sizes) is None

    @pytest.mark.parametrize("counter", [0, 1, 5])
    def test_raid1_streams_identical(self, counter):
        rng = np.random.default_rng(47)
        current = [0]
        raid = Raid1([_Recorder(current) for _ in range(2)])
        raid._read_counter = counter
        ops, lbas, sizes = _random_stream(rng, 150)
        streams = _mirror_streams(ops, lbas, sizes, 2, counter)
        assert _rows(streams) == _routed_by_service(raid, ops, lbas, sizes)

    def test_raid_service_batch_end_to_end(self):
        rng = np.random.default_rng(59)
        for make in (
            lambda: Raid0([HDDModel(seed=s) for s in (1, 2, 3)], stripe_kb=64),
            lambda: Raid1([HDDModel(seed=s) for s in (1, 2)]),
        ):
            ops, lbas, sizes = _random_stream(rng, 120, max_size=2 * 128 + 2)
            _assert_prices_sync_replay(make, ops, lbas, sizes, 59)


def _flash_state(device):
    """Comparable simulator-state snapshot for flash-family devices."""
    ssds = device.ssds if isinstance(device, FlashArray) else [device]
    return [
        (
            s._die_busy,
            s._chan_busy,
            s._state_horizon,
            list(s._buffered),
            s._buffered_bytes,
        )
        for s in ssds
    ]


#: The flash-family entries of the device zoo: the streaming loop's devices.
FLASH_DEVICE_KEYS = ["flash-buffered", "flash-nobuffer", "array-default", "array-nobuffer"]


def _state_trace(idle_max: float) -> tuple[BlockTrace, np.ndarray]:
    rng = np.random.default_rng(61)
    n = 120
    trace = BlockTrace(
        timestamps=np.cumsum(rng.integers(1, 200, n)).astype(np.float64),
        lbas=rng.integers(0, 1 << 22, n),
        sizes=rng.integers(1, 600, n),
        ops=rng.integers(0, 2, n).astype(np.int8),
    )
    return trace, rng.uniform(0, idle_max, n - 1)


class TestPlanReplayStateEquivalence:
    """Streaming flash loop: stamps AND simulator state match the oracle."""

    @pytest.mark.parametrize("device_key", FLASH_DEVICE_KEYS)
    @pytest.mark.parametrize("queue_depth", [2, 4, 9])
    def test_state_after_replay(self, device_key, queue_depth):
        make = DEVICE_FACTORIES[device_key]
        trace, idle = _state_trace(800.0)
        fast_dev, oracle_dev = make(), make()
        fast = replay_queue_depth(trace, fast_dev, idle_us=idle, queue_depth=queue_depth)
        oracle = replay_queue_depth_scalar(
            trace, oracle_dev, idle_us=idle, queue_depth=queue_depth
        )
        assert_replays_identical(fast, oracle)
        assert _flash_state(fast_dev) == _flash_state(oracle_dev)

    @pytest.mark.parametrize("device_key", FLASH_DEVICE_KEYS)
    def test_state_after_sync_replay(self, device_key):
        """Sync replay: stamps, and the member horizons and buffered
        bytes the streaming loop writes back, through the dispatcher and
        with the loop run directly in its sync mode."""
        make = DEVICE_FACTORIES[device_key]
        # Short think times keep the busy and late-admission paths hot.
        trace, idle = _state_trace(300.0)
        oracle_dev, batch_dev, loop_dev = make(), make(), make()
        oracle = replay_with_idle(trace, oracle_dev, idle)
        assert_replays_identical(replay_with_idle_batch(trace, batch_dev, idle), oracle)
        assert _flash_state(batch_dev) == _flash_state(oracle_dev)
        t_cdel = loop_dev.channel.delay_batch_us(trace.ops, trace.sizes)
        stamps = _flash_loop(
            loop_dev.flash_layout(), trace.ops, trace.lbas, trace.sizes, t_cdel,
            0.0, _padded_idle(len(trace), idle), np.ones(len(trace), dtype=bool), None,
        )
        expected = (oracle.submits, oracle.acks, oracle.starts, oracle.finishes)
        for got, want in zip(stamps, expected):
            np.testing.assert_array_equal(got, want)
        assert _flash_state(loop_dev) == _flash_state(oracle_dev)

    def test_state_after_mixed_batch_and_scalar_use(self):
        """A refused pricing call, replay, then scalar submits — state stays lockstep."""
        rng = np.random.default_rng(67)
        n = 60
        trace = BlockTrace(
            timestamps=np.arange(n, dtype=np.float64),
            lbas=rng.integers(0, 1 << 20, n),
            sizes=rng.integers(1, 300, n),
            ops=np.zeros(n, dtype=np.int8),
        )
        d_fast, d_oracle = FlashArray(), FlashArray()
        # Flash prices no stream, and refusing consumes no state.
        assert d_fast.service_batch(trace.ops, trace.lbas, trace.sizes) is None
        assert _flash_state(d_fast) == _flash_state(d_oracle)
        # Replay (streaming loop vs oracle), then identical scalar submits.
        fast = replay_queue_depth(trace, d_fast, queue_depth=3)
        oracle = replay_queue_depth_scalar(trace, d_oracle, queue_depth=3)
        assert_replays_identical(fast, oracle)
        t = float(fast.finishes[-1]) + 1e4
        for j in range(8):
            c_fast = d_fast.submit(OpType.READ, int(trace.lbas[j]), int(trace.sizes[j]), t)
            c_oracle = d_oracle.submit(
                OpType.READ, int(trace.lbas[j]), int(trace.sizes[j]), t
            )
            assert (c_fast.start, c_fast.ack, c_fast.finish) == (
                c_oracle.start, c_oracle.ack, c_oracle.finish
            )
            t = c_fast.finish + 5.0
        assert _flash_state(d_fast) == _flash_state(d_oracle)

    def test_replay_identical_under_both_engines(self):
        """The dispatcher's pick (streaming flash loop) vs the heap event loop."""
        rng = np.random.default_rng(73)
        n = 80
        trace = BlockTrace(
            timestamps=np.arange(n, dtype=np.float64),
            lbas=rng.integers(0, 1 << 22, n),
            sizes=rng.integers(1, 600, n),
            ops=rng.integers(0, 2, n).astype(np.int8),
        )
        idle = rng.uniform(0, 500.0, n - 1)
        d1, d2 = FlashArray(), FlashArray()
        auto = replay_queue_depth(trace, d1, idle_us=idle, queue_depth=4)
        events = replay_through_loop("events", trace, d2, idle, 4)
        assert_replays_identical(auto, events)
        assert _flash_state(d1) == _flash_state(d2)

    def test_hdd_rng_state_unaffected(self):
        """Devices without a flash layout keep RNG lockstep (regression guard)."""
        rng = np.random.default_rng(71)
        n = 40
        trace = BlockTrace(
            timestamps=np.arange(n, dtype=np.float64),
            lbas=rng.integers(0, 1 << 20, n),
            sizes=rng.integers(1, 200, n),
            ops=rng.integers(0, 2, n).astype(np.int8),
        )
        d1, d2 = HDDModel(), HDDModel()
        fast = replay_queue_depth(trace, d1, queue_depth=4)
        oracle = replay_queue_depth_scalar(trace, d2, queue_depth=4)
        assert_replays_identical(fast, oracle)
        assert d1._rng.uniform() == d2._rng.uniform()


#: 1 KB pages: a 600-sector request spans 300 pages, over eight waves of
#: the 36 dies (no catalog request spans more than 17 pages).
_LARGE_PAGES = FlashGeometry(page_kb=1)

LARGE_EXTENT_DEVICES = {
    "flash": lambda: FlashSSD(geometry=_LARGE_PAGES),
    "array-2ssd": lambda: FlashArray(n_ssds=2, geometry=_LARGE_PAGES),
}


def _large_extent_trace() -> tuple[BlockTrace, np.ndarray]:
    rng = np.random.default_rng(83)
    n = 200
    trace = BlockTrace(
        timestamps=np.cumsum(rng.integers(1, 400, n)).astype(np.float64),
        lbas=rng.integers(0, 1 << 22, n),
        sizes=rng.integers(64, 601, n),
        ops=rng.integers(0, 2, n).astype(np.int8),
    )
    return trace, rng.uniform(0.0, 2000.0, n - 1)


class TestLargeExtents:
    """Extents of 32–301 pages through every replay loop, end to end."""

    @pytest.mark.parametrize("device_key", sorted(LARGE_EXTENT_DEVICES))
    def test_sync_batch_vs_scalar(self, device_key):
        make = LARGE_EXTENT_DEVICES[device_key]
        trace, idle = _large_extent_trace()
        assert_replays_identical(
            replay_with_idle_batch(trace, make(), idle),
            replay_with_idle(trace, make(), idle),
        )

    @pytest.mark.parametrize("device_key", sorted(LARGE_EXTENT_DEVICES))
    @pytest.mark.parametrize("queue_depth", [1, 3, 8])
    @pytest.mark.parametrize("loop", ["auto", "events"])
    def test_qdepth_vs_scalar_oracle(self, device_key, queue_depth, loop):
        make = LARGE_EXTENT_DEVICES[device_key]
        trace, idle = _large_extent_trace()
        fast = replay_through_loop(loop, trace, make(), idle, queue_depth)
        oracle = replay_queue_depth_scalar(
            trace, make(), idle_us=idle, queue_depth=queue_depth
        )
        assert_replays_identical(fast, oracle)


def _int64_top_trace() -> tuple[BlockTrace, np.ndarray]:
    """Extents that end at sector ``2**63 - 1``, cross the last 128 KB
    stripe below it, or run past it, with think times short enough for
    requests to overlap at depth 4."""
    last_stripe = I64_TOP - I64_TOP % 256
    rows = [
        (0, I64_TOP, 1),
        (1, I64_TOP - 7, 8),
        (0, I64_TOP - 299, 300),
        (1, last_stripe - 20, 40),
        (0, last_stripe - 3, 5),
        (1, I64_TOP - 15, 16),
        (0, last_stripe - 16, 17),
        (1, I64_TOP - 99, 200),
    ] * 3
    ops, lbas, sizes = zip(*rows)
    n = len(rows)
    trace = BlockTrace(
        timestamps=np.arange(n, dtype=np.float64),
        lbas=np.array(lbas, dtype=np.int64),
        sizes=np.array(sizes, dtype=np.int64),
        ops=np.array(ops, dtype=np.int8),
    )
    return trace, np.random.default_rng(89).uniform(0.0, 300.0, n - 1)


class TestInt64Extents:
    """The NumPy fragment cut stays exact at the top of the int64 range."""

    @pytest.mark.parametrize("make", [new_node, FlashSSD], ids=["new-node", "ssd"])
    def test_sync_batch_vs_scalar(self, make):
        trace, idle = _int64_top_trace()
        fast_dev, oracle_dev = make(), make()
        assert_replays_identical(
            replay_with_idle_batch(trace, fast_dev, idle),
            replay_with_idle(trace, oracle_dev, idle),
        )
        assert _flash_state(fast_dev) == _flash_state(oracle_dev)

    @pytest.mark.parametrize("make", [new_node, FlashSSD], ids=["new-node", "ssd"])
    def test_depth_4_vs_scalar_oracle(self, make):
        trace, idle = _int64_top_trace()
        fast_dev, oracle_dev = make(), make()
        assert_replays_identical(
            replay_queue_depth(trace, fast_dev, idle_us=idle, queue_depth=4),
            replay_queue_depth_scalar(trace, oracle_dev, idle_us=idle, queue_depth=4),
        )
        assert _flash_state(fast_dev) == _flash_state(oracle_dev)


#: SHA-256 of the four stamp columns and the member state after each
#: replay of a 10 000-request catalog trace.  The identity suites hold
#: the streaming loop to oracles that read the same memo entries, so
#: only a pin shows a change to the entries themselves.
PINNED_FLASH_DIGESTS = {
    ("msnfs-sync", "new-node"): "d25c9af2f757737a7f8285faceb527826d35b419c50fabdd94ed0c85c3075824",
    ("msnfs-sync", "ssd"): "b61928d3b6fe9efc6b23375644e3b80f6dab3b3fc8c53b16811d5396d3236f9f",
    ("msnfs-b2b", "new-node"): "a0505360e0fb78c9f34b69f398d51f81f6ce80b0895f8c9e84b711bd8ffb8606",
    ("msnfs-b2b", "ssd"): "5cdf2c54100472b3191f398ed66b07912c97d1b1b8a29bf58b4b18dec60b8f49",
    ("usr-qd8", "new-node"): "823979125bb1ed1e8481875e0688938dbe4438a44e1e0099e18efccdfe778bbb",
    ("usr-qd8", "ssd"): "9b4f13e69656ca02447d56de6a46a54a6e55521be58f623a2a10b02f595d2e8a",
}


@cache
def _old_trace_and_idle(workload: str) -> tuple[BlockTrace, np.ndarray]:
    """A catalog OLD trace and the idle periods extracted from it."""
    old = build_pair_for(workload, n_requests=10_000).old
    return old, extract_idle(old).tidle_us


def _replay_digest_case(case: str, device):
    if case == "usr-qd8":
        trace, idle = _old_trace_and_idle("usr")
        return replay_queue_depth(trace, device, idle_us=idle, queue_depth=8)
    trace, idle = _old_trace_and_idle("MSNFS")
    if case == "msnfs-b2b":
        return replay_back_to_back_batch(trace, device)
    return replay_with_idle_batch(trace, device, idle)


class TestFlashStampDigests:
    @staticmethod
    def _digest(result, device) -> str:
        digest = hashlib.sha256()
        for name in ("submits", "acks", "starts", "finishes"):
            column = getattr(result, name)
            digest.update(f"{name}:{column.dtype.str}:".encode())
            digest.update(np.ascontiguousarray(column).tobytes())
        digest.update(repr(_flash_state(device)).encode())
        return digest.hexdigest()

    @pytest.mark.parametrize("case, device_key", list(PINNED_FLASH_DIGESTS))
    def test_flash_stamps_are_pinned(self, case, device_key):
        device = new_node() if device_key == "new-node" else FlashSSD()
        result = _replay_digest_case(case, device)
        assert self._digest(result, device) == PINNED_FLASH_DIGESTS[(case, device_key)]


class TestFastVsScalarPathPin:
    """Satellite: pin the known ~1-ulp seed-revision delta precisely.

    The memoised fast path sums *relative* offsets before adding
    ``t_ready``; the seed-era scalar walk added ``t_ready`` first.  The
    two can differ at rounding level for multi-wave shapes — but the
    streaming-loop and scalar engines (which both read the same memoised
    relative-service entries) must agree with each other with tolerance
    zero.
    This test pins that contract across the zoo.
    """

    @pytest.mark.parametrize("device_key", sorted(DEVICE_FACTORIES))
    def test_batch_vs_scalar_tolerance_zero(self, device_key):
        from repro.replay import replay_with_idle, replay_with_idle_batch

        rng = np.random.default_rng(79)
        n = 64
        trace = BlockTrace(
            timestamps=np.cumsum(rng.integers(1, 400, n)).astype(np.float64),
            lbas=rng.integers(0, 1 << 22, n),
            sizes=rng.integers(1, 96, n),
            ops=rng.integers(0, 2, n).astype(np.int8),
        )
        idle = rng.uniform(0.0, 1e4, n - 1)
        make = DEVICE_FACTORIES[device_key]
        batch = replay_with_idle_batch(trace, make(), idle_us=idle)
        scalar = replay_with_idle(trace, make(), idle_us=idle)
        # Tolerance-zero: assert_array_equal is exact equality.
        assert_replays_identical(batch, scalar)
