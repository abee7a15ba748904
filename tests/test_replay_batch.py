"""Equivalence suite for the vectorised batch replay engine.

The batch engine's contract is strict: for every device type and every
valid (trace, idle) input, :func:`replay_with_idle_batch` must produce
*bit-identical* stamps to the scalar :func:`replay_with_idle` — whether
it took the cumulative-sum vector path (gap-invariant devices), the
streaming flash loop (flash SSDs and arrays) or the heap event loop
(e.g. an HDD with a write-back cache).  These tests enforce that
property with hypothesis across the device zoo.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import old_node
from repro.replay import (
    replay_back_to_back,
    replay_back_to_back_batch,
    replay_queue_depth,
    replay_with_idle,
    replay_with_idle_batch,
)
from repro.replay.qdepth import (
    _cumsum_chain,
    _fifo_loop,
    _flash_loop,
    _padded_idle,
    _qdepth_metadata,
    _replay_result,
    _service_loop,
    submit_stream,
)
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
from repro.trace.record import OpType
from repro.trace.trace import BlockTrace
from repro.workloads import collect_trace, generate_intents, get_spec
from test_properties import block_traces

# Factories build a fresh device per call so scalar and batch runs see
# identical cold state (shared memo caches are state-free by design).
DEVICE_FACTORIES = {
    "const": lambda: ConstantLatencyDevice(SATA_600, read_us=50.0, write_us=80.0),
    "hdd": lambda: HDDModel(),
    "hdd-cache": lambda: HDDModel(write_back_cache_kb=2048),
    "flash-nobuffer": lambda: FlashSSD(geometry=FlashGeometry(write_buffer_kb=0)),
    "flash-buffered": lambda: FlashSSD(),
    "array-default": lambda: FlashArray(),
    "array-nobuffer": lambda: FlashArray(geometry=FlashGeometry(write_buffer_kb=0)),
    "raid0-const": lambda: Raid0(
        [ConstantLatencyDevice(SATA_600) for _ in range(3)], stripe_kb=8
    ),
    "raid0-hdd": lambda: Raid0([HDDModel(seed=s) for s in (1, 2, 3)], stripe_kb=64),
    "raid1-hdd": lambda: Raid1([HDDModel(seed=s) for s in (1, 2)]),
}

#: Configurations whose latencies are gap-invariant: the vector path
#: must actually engage (service_batch returns an array).
VECTOR_CAPABLE = ("const", "hdd", "raid0-const", "raid0-hdd", "raid1-hdd")

#: Configurations that must refuse batch pricing: timing-dependent
#: internal state, and the flash family, which the streaming flash loop
#: serves whatever its buffer.
FALLBACK_ONLY = (
    "hdd-cache", "flash-nobuffer", "flash-buffered", "array-default", "array-nobuffer",
)


def assert_replays_identical(a, b):
    np.testing.assert_array_equal(a.submits, b.submits)
    np.testing.assert_array_equal(a.acks, b.acks)
    np.testing.assert_array_equal(a.starts, b.starts)
    np.testing.assert_array_equal(a.finishes, b.finishes)
    np.testing.assert_array_equal(a.trace.timestamps, b.trace.timestamps)
    np.testing.assert_array_equal(a.trace.issues, b.trace.issues)
    np.testing.assert_array_equal(a.trace.completes, b.trace.completes)
    np.testing.assert_array_equal(a.trace.lbas, b.trace.lbas)
    np.testing.assert_array_equal(a.trace.ops, b.trace.ops)
    assert a.trace.metadata == b.trace.metadata
    assert a.device_name == b.device_name


def replay_through_loop(loop, trace, device, idle_us=None, queue_depth=4):
    """Queue-depth replay through one named submission loop.

    ``"auto"`` is :func:`replay_queue_depth`, whose dispatcher picks the
    loop.  The others bypass the dispatcher: ``"events"`` runs the heap
    event loop over ``device._service`` on every device, and ``"plan"``
    runs the streaming flash loop on devices with a ``flash_layout``
    and the event loop on the rest.
    """
    if loop == "auto":
        return replay_queue_depth(trace, device, idle_us=idle_us, queue_depth=queue_depth)
    device.reset()
    n = len(trace)
    rule = (
        device.channel.delay_batch_us(trace.ops, trace.sizes),
        0.0,
        _padded_idle(n, idle_us),
        np.zeros(n, dtype=bool),
        queue_depth,
    )
    layout = device.flash_layout() if loop == "plan" else None
    if layout is not None:
        stamps = _flash_loop(layout, trace.ops, trace.lbas, trace.sizes, *rule)
    else:
        stamps = _service_loop(device, trace.ops, trace.lbas, trace.sizes, *rule)
    metadata = _qdepth_metadata(trace, device, "qdepth-replay", queue_depth)
    return _replay_result(trace, device, metadata, stamps)


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("device_key", sorted(DEVICE_FACTORIES))
    @given(trace=block_traces(min_n=2, max_n=50), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_stamps_bit_identical(self, device_key, trace, data):
        make = DEVICE_FACTORIES[device_key]
        idle = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=1e5),
                    min_size=len(trace) - 1,
                    max_size=len(trace) - 1,
                )
            )
        )
        scalar = replay_with_idle(trace, make(), idle)
        batch = replay_with_idle_batch(trace, make(), idle)
        assert_replays_identical(scalar, batch)

    @pytest.mark.parametrize("device_key", sorted(DEVICE_FACTORIES))
    @given(trace=block_traces(min_n=2, max_n=40))
    @settings(max_examples=10, deadline=None)
    def test_back_to_back_bit_identical(self, device_key, trace):
        make = DEVICE_FACTORIES[device_key]
        scalar = replay_back_to_back(trace, make())
        batch = replay_back_to_back_batch(trace, make())
        assert_replays_identical(scalar, batch)

    def test_byte_count_past_int64(self):
        """A 2**54 + 8-sector read is over 2**63 bytes: the channel delay
        must not wrap (it read -3.69e16 us against the oracle's +3.69e16)."""
        trace = BlockTrace([0.0, 1.0, 2.0], [0, 1000, 5000], [8, 2**54 + 8, 8], [0, 0, 0])
        idle = np.zeros(2)
        batch = replay_with_idle_batch(trace, old_node(), idle)
        assert_replays_identical(batch, replay_with_idle(trace, old_node(), idle))
        assert batch.acks[1] > 3e16

    def test_extent_past_int64_end(self):
        """An HDD extent that runs past sector 2**63 - 1 leaves the head on
        the last cylinder; a wrapped end once sent the next request on a
        625 s seek."""
        trace = BlockTrace(
            [0.0, 1.0, 2.0], [0, 2**63 - 100, 5000], [8, 200, 8], [0, 0, 0]
        )
        idle = np.zeros(2)
        assert_replays_identical(
            replay_with_idle_batch(trace, old_node(), idle),
            replay_with_idle(trace, old_node(), idle),
        )

    @pytest.mark.parametrize("device_key", VECTOR_CAPABLE)
    def test_vector_path_engages(self, device_key):
        rng = np.random.default_rng(3)
        n = 64
        ops = rng.integers(0, 2, n).astype(np.int8)
        lbas = rng.integers(0, 10**8, n)
        # Small extents: even the narrow-stripe RAID keeps fragments on
        # distinct members, so every capable config takes the vector path.
        sizes = rng.choice([8, 16], n)
        device = DEVICE_FACTORIES[device_key]()
        device.reset()
        svc = device.service_batch(ops, lbas, sizes)
        assert svc is not None
        assert svc.shape == (n,)
        assert np.all(svc >= 0.0)

    @pytest.mark.parametrize("device_key", FALLBACK_ONLY)
    def test_gap_sensitive_devices_refuse(self, device_key):
        rng = np.random.default_rng(4)
        n = 32
        lbas = rng.integers(0, 10**8, n)
        # Mixed, write-only and read-only streams are all refused.
        for ops in (
            rng.integers(0, 2, n).astype(np.int8),
            np.ones(n, dtype=np.int8),
            np.zeros(n, dtype=np.int8),
        ):
            device = DEVICE_FACTORIES[device_key]()
            assert device.service_batch(ops, lbas, np.full(n, 8)) is None


def _rule_stream():
    """One 40-request stream, its think times, and a nonzero lead."""
    rng = np.random.default_rng(41)
    n = 40
    ops = rng.integers(0, 2, n).astype(np.int8)
    lbas = rng.integers(0, 1 << 20, n)
    sizes = rng.integers(1, 64, n)
    gap = rng.uniform(0.0, 300.0, n)
    return ops, lbas, sizes, gap, 123.25, np.ones(n, dtype=bool)


class TestLoopsAgreeOnTheRule:
    """Every submission loop applies the rule with a nonzero lead alike.

    The host waits for every finish, and each loop that can serve the
    device must reproduce a per-request ``submit`` loop that starts its
    clock at the lead: the two priced loops and the heap event loop on
    a cache-less HDD (``service_batch`` prices its stream), and the
    streaming flash loop and the event loop on a bufferless SSD.
    """

    @staticmethod
    def _assert_loops_match_submit(make, loops):
        ops, lbas, sizes, gap, lead, __ = _rule_stream()
        device = make()
        submits, acks, starts, finishes = [], [], [], []
        clock = lead
        for op, lba, size, g in zip(ops.tolist(), lbas.tolist(), sizes.tolist(), gap.tolist()):
            c = device.submit(OpType(op), lba, size, clock)
            submits.append(c.submit)
            acks.append(c.ack)
            starts.append(c.start)
            finishes.append(c.finish)
            clock = c.finish + g
        expected = (submits, acks, starts, finishes)
        for name, run in loops.items():
            d = make()
            stamps = run(d, d.channel.delay_batch_us(ops, sizes))
            for got, want in zip(stamps, expected):
                np.testing.assert_array_equal(got, want, err_msg=name)
        np.testing.assert_array_equal(
            submit_stream(make(), ops, lbas, sizes, gap, lead=lead)[0], submits
        )

    def test_all_four_loops_match_submit(self):
        ops, lbas, sizes, gap, lead, waits = _rule_stream()

        def events(d, t):
            return _service_loop(d, ops, lbas, sizes, t, lead, gap, waits, None)

        self._assert_loops_match_submit(
            lambda: HDDModel(seed=9),
            {
                "cumsum": lambda d, t: _cumsum_chain(
                    t, d.service_batch(ops, lbas, sizes), lead, gap
                ),
                "fifo": lambda d, t: _fifo_loop(
                    t, d.service_batch(ops, lbas, sizes), lead, gap, waits, None
                ),
                "events": events,
            },
        )
        self._assert_loops_match_submit(
            lambda: FlashSSD(geometry=FlashGeometry(write_buffer_kb=0)),
            {
                "flash": lambda d, t: _flash_loop(
                    d.flash_layout(), ops, lbas, sizes, t, lead, gap, waits, None
                ),
                "events": events,
            },
        )


class TestBatchValidation:
    def test_empty_trace_rejected(self, const_device):
        from repro.trace import BlockTrace

        with pytest.raises(ValueError):
            replay_with_idle_batch(BlockTrace([], [], [], []), const_device, None)

    def test_idle_length_validation(self, const_device):
        from repro.trace import BlockTrace

        trace = BlockTrace([0.0, 10.0, 20.0], [0, 8, 16], [8, 8, 8], [0, 0, 0])
        with pytest.raises(ValueError, match="length"):
            replay_with_idle_batch(trace, const_device, np.zeros(1))
        with pytest.raises(ValueError, match="non-negative"):
            replay_with_idle_batch(trace, const_device, np.full(2, -1.0))

    def test_full_length_idle_accepted(self, const_device):
        from repro.trace import BlockTrace

        trace = BlockTrace([0.0, 10.0], [0, 8], [8, 8], [0, 0])
        result = replay_with_idle_batch(trace, const_device, np.zeros(2))
        assert len(result.trace) == 2

    def test_lazy_completions_match_arrays(self, const_device):
        from repro.trace import BlockTrace

        trace = BlockTrace([0.0, 10.0, 50.0], [0, 8, 16], [8, 8, 8], [0, 1, 0])
        result = replay_with_idle_batch(trace, const_device, np.array([5.0, 9.0]))
        for i, completion in enumerate(result.completions):
            assert completion.submit == result.submits[i]
            assert completion.ack == result.acks[i]
            assert completion.start == result.starts[i]
            assert completion.finish == result.finishes[i]


class TestFlashNonMonotoneReady:
    def test_same_timestamp_submissions_stay_exact(self):
        """t_ready is not monotone under submit(): a smaller request at
        the same submit time has a smaller channel delay.  The fast
        path must not lose busy-state stamps that a later, earlier-
        ``t_ready`` request still needs (regression: deferred updates
        used to be dropped once the horizon was passed)."""
        from repro.trace.record import OpType

        def drive(ssd):
            # Buffered write: drains in the background on page 0's die;
            # then, at one submit instant, a huge read (large channel
            # delay, t_ready beyond the drain horizon) followed by a
            # small read of page 0 (small channel delay, t_ready below
            # the drain stamp it must still observe).
            sequence = [
                (OpType.WRITE, 0, 8, 0.0),
                (OpType.READ, 10_000, 2048, 700.0),
                (OpType.READ, 0, 8, 700.0),
                (OpType.READ, 20_000, 2048, 900.0),
                (OpType.READ, 0, 8, 900.0),
            ]
            return np.array([ssd.submit(*request).finish for request in sequence])

        fast = drive(FlashSSD())
        reference = FlashSSD()
        # Forcing every request down the absolute-time slow path
        # reproduces the pre-memoisation semantics.
        reference._state_idle_for = lambda entry, t_ready: False
        slow = drive(reference)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-6)


class TestHDDBatchInternals:
    def test_uniform_block_draw_matches_scalar_stream(self):
        """The vector path's block RNG draw must equal n scalar draws."""
        a = np.random.default_rng(42)
        b = np.random.default_rng(42)
        block = a.uniform(0.0, 123.4, 100)
        singles = np.array([float(b.uniform(0.0, 123.4)) for _ in range(100)])
        np.testing.assert_array_equal(block, singles)

    def test_state_consumed_like_scalar(self):
        """service_batch leaves head/LBA state where scalar calls would."""
        from repro.trace.record import OpType

        lbas = np.array([1000, 1064, 5000])
        sizes = np.array([64, 64, 8])
        ops = np.zeros(3, dtype=np.int8)
        vec = HDDModel()
        vec.reset()
        vec.service_batch(ops, lbas, sizes)
        scalar = HDDModel()
        scalar.reset()
        t = 0.0
        for i in range(3):
            __, f = scalar._service(OpType.READ, int(lbas[i]), int(sizes[i]), t)
            t = f
        assert vec._head_cylinder == scalar._head_cylinder
        assert vec._last_end_lba == scalar._last_end_lba


class TestFastCollectEquivalence:
    @pytest.mark.parametrize("record_dev", [True, False])
    def test_fifo_collect_matches_scalar_path(self, record_dev, monkeypatch):
        intents = generate_intents(get_spec("MSNFS").scaled(400))
        fast = collect_trace(intents, HDDModel(), record_device_times=record_dev, record_sync_flags=True)
        monkeypatch.setattr(HDDModel, "fifo_single_server", False)
        scalar = collect_trace(intents, HDDModel(), record_device_times=record_dev, record_sync_flags=True)
        np.testing.assert_array_equal(fast.timestamps, scalar.timestamps)
        if record_dev:
            np.testing.assert_array_equal(fast.issues, scalar.issues)
            np.testing.assert_array_equal(fast.completes, scalar.completes)
        np.testing.assert_array_equal(fast.syncs, scalar.syncs)
        assert fast.metadata == scalar.metadata
