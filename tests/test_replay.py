"""Unit tests for the replayer, collector, and async post-processing."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.experiments.nodes import new_node, old_node
from repro.experiments.pairs import build_pair_for
from repro.replay import (
    detect_async_indices,
    replay_back_to_back,
    replay_queue_depth,
    replay_queue_depth_scalar,
    replay_with_idle,
    replay_with_idle_batch,
    revive_async,
)
from repro.storage import FlashSSD
from repro.trace import BlockTrace, OpType
from repro.workloads import collect_trace, generate_intents, get_spec

#: The four replay entry points: two scalar oracles, two fast engines.
ENTRY_POINTS = [
    replay_with_idle,
    replay_with_idle_batch,
    replay_queue_depth,
    replay_queue_depth_scalar,
]


def pattern_trace(n: int = 20) -> BlockTrace:
    ts = np.arange(n) * 10_000.0
    return BlockTrace(ts, np.arange(n) * 8, np.full(n, 8), np.tile([0, 1], n)[:n], name="p")


class TestReplayer:
    def test_preserves_request_pattern(self, const_device):
        old = pattern_trace()
        result = replay_with_idle(old, const_device, np.full(len(old) - 1, 100.0))
        np.testing.assert_array_equal(result.trace.lbas, old.lbas)
        np.testing.assert_array_equal(result.trace.sizes, old.sizes)
        np.testing.assert_array_equal(result.trace.ops, old.ops)

    def test_gaps_are_service_plus_idle(self, const_device):
        old = pattern_trace(5)
        idle = np.array([100.0, 200.0, 300.0, 400.0])
        result = replay_with_idle(old, const_device, idle)
        gaps = result.trace.inter_arrival_times()
        service = np.array([c.latency for c in result.completions[:-1]])
        np.testing.assert_allclose(gaps, service + idle)

    def test_collected_trace_has_device_times(self, const_device):
        result = replay_with_idle(pattern_trace(), const_device, None)
        assert result.trace.has_device_times
        # Driver-level stamps: device time = channel delay + service.
        dev = result.trace.device_times()
        reads = dev[result.trace.read_mask()]
        writes = dev[result.trace.write_mask()]
        np.testing.assert_allclose(
            reads, 100.0 + const_device.channel.delay_us(OpType.READ, 8)
        )
        np.testing.assert_allclose(
            writes, 200.0 + const_device.channel.delay_us(OpType.WRITE, 8)
        )

    def test_back_to_back_has_zero_idle(self, const_device):
        result = replay_back_to_back(pattern_trace(6), const_device)
        gaps = result.trace.inter_arrival_times()
        latencies = np.array([c.latency for c in result.completions[:-1]])
        np.testing.assert_allclose(gaps, latencies)

    def test_metadata_labels(self, const_device):
        result = replay_with_idle(pattern_trace(), const_device, None, method="m1")
        assert result.trace.metadata["method"] == "m1"
        assert result.trace.metadata["replayed_on"] == const_device.name

    def test_idle_length_validation(self, const_device):
        old = pattern_trace(5)
        with pytest.raises(ValueError, match="length"):
            replay_with_idle(old, const_device, np.zeros(2))
        with pytest.raises(ValueError, match="non-negative"):
            replay_with_idle(old, const_device, np.full(4, -1.0))

    def test_empty_trace_rejected(self, const_device):
        with pytest.raises(ValueError):
            replay_with_idle(BlockTrace([], [], [], []), const_device, None)

    def test_full_length_idle_array_accepted(self, const_device):
        old = pattern_trace(5)
        result = replay_with_idle(old, const_device, np.zeros(5))
        assert len(result.trace) == 5

    def test_device_reset_before_replay(self, const_device):
        old = pattern_trace(3)
        a = replay_with_idle(old, const_device, None).trace.timestamps
        b = replay_with_idle(old, const_device, None).trace.timestamps
        np.testing.assert_allclose(a, b)


class TestNonFiniteIdleRejected:
    """A NaN or infinite think time is refused up front by every engine.

    Accepting one would poison every later stamp (the clock chain adds
    it in); the scalar oracles used to fail late with an unrelated
    stamp-order error, and the fast engines returned non-finite stamps.
    """

    @pytest.fixture(scope="class")
    def dap(self) -> BlockTrace:
        return collect_trace(generate_intents(get_spec("DAP").scaled(50)), old_node())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("replay", ENTRY_POINTS)
    def test_rejected_by_every_entry_point(self, dap, replay, bad):
        idle = np.full(len(dap) - 1, 250.0)
        idle[10] = bad
        for node in (new_node, old_node):
            with pytest.raises(ValueError, match="idle periods must be finite and non-negative"):
                replay(dap, node(), idle)


class TestInvalidOpCodeRejected:
    """An op code outside ``OpType`` is refused by every engine on every node.

    A ``.npz`` trace carries any int8 op code through ``dump_trace`` and
    ``TraceReader``.  The scalar oracles raise on it; the fast engines
    read codes as "0 is a read, else a write", so they must check the
    column up front or replay such a row as a write.
    """

    @pytest.fixture(scope="class")
    def dap(self) -> BlockTrace:
        return collect_trace(generate_intents(get_spec("DAP").scaled(50)), old_node())

    @pytest.mark.parametrize("code", [2, -1])
    @pytest.mark.parametrize("replay", ENTRY_POINTS)
    def test_rejected_by_every_entry_point(self, dap, replay, code):
        ops = dap.ops.copy()
        ops[10] = code
        trace = BlockTrace(dap.timestamps, dap.lbas, dap.sizes, ops)
        idle = np.full(len(trace) - 1, 250.0)
        for node in (new_node, FlashSSD, old_node):
            with pytest.raises(ValueError, match=f"{code} is not a valid OpType"):
                replay(trace, node(), idle)


class TestReplayMemory:
    """Flash replay keeps no per-request Python object for the whole stream.

    Traced allocation on 20 000 DAP requests replayed on the NEW node,
    after a warm-up replay has memoised every request shape: the peak
    stays below 128 B/request (the stamp columns, which the trace shares
    rather than copies, the channel delays and transient
    temporaries), and nothing stays allocated once the result is
    dropped — no cache may keep per-stream data alive.
    """

    N_REQUESTS = 20_000

    @pytest.fixture(scope="class")
    def dap(self) -> BlockTrace:
        trace = build_pair_for("DAP", n_requests=self.N_REQUESTS).old
        # Warm-up: fragment shapes do not depend on timing, so one sync
        # replay memoises every shape either engine will look up.
        replay_with_idle_batch(trace, new_node(), np.full(len(trace) - 1, 250.0))
        return trace

    @pytest.mark.parametrize(
        "replay",
        [
            lambda trace, device, idle: replay_queue_depth(
                trace, device, idle_us=idle, queue_depth=8
            ),
            replay_with_idle_batch,
        ],
        ids=["qdepth-8", "sync"],
    )
    def test_bytes_per_request(self, dap, replay):
        n = len(dap)
        idle = np.full(n - 1, 250.0)
        device = new_node()
        tracemalloc.start()
        try:
            result = replay(dap, device, idle)
            __, peak = tracemalloc.get_traced_memory()
            del result
            retained, __ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 128
        assert retained / n < 1


class TestDetectAsync:
    def test_detects_short_gaps(self):
        tintt = np.array([100.0, 30.0, 500.0])
        tsdev = np.array([50.0, 50.0, 50.0])
        np.testing.assert_array_equal(detect_async_indices(tintt, tsdev), [1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            detect_async_indices(np.zeros(3), np.zeros(2))


class TestReviveAsync:
    def _new_trace(self) -> BlockTrace:
        # Gaps 300 each; device time 200 each.
        ts = np.array([0.0, 300.0, 600.0, 900.0])
        return BlockTrace(
            ts,
            [0, 8, 16, 24],
            [8, 8, 8, 8],
            [0, 0, 0, 0],
            issues=ts + 10.0,
            completes=ts + 210.0,
        )

    def test_flagged_gap_tightened_by_device_time(self):
        out = revive_async(self._new_trace(), np.array([1]))
        gaps = out.inter_arrival_times()
        np.testing.assert_allclose(gaps, [300.0, 100.0, 300.0])

    def test_unflagged_trace_unchanged(self):
        original = self._new_trace()
        out = revive_async(original, np.array([], dtype=int))
        np.testing.assert_allclose(out.timestamps, original.timestamps)

    def test_min_gap_floor(self):
        out = revive_async(self._new_trace(), np.array([0, 1, 2]), min_gap_us=150.0)
        assert (out.inter_arrival_times() >= 150.0).all()

    def test_device_times_preserved(self):
        original = self._new_trace()
        out = revive_async(original, np.array([1, 2]))
        np.testing.assert_allclose(out.device_times(), original.device_times())

    def test_requires_device_times(self):
        bare = BlockTrace([0.0, 10.0], [0, 8], [8, 8], [0, 0])
        with pytest.raises(ValueError):
            revive_async(bare, np.array([0]))

    def test_out_of_range_indices(self):
        with pytest.raises(ValueError):
            revive_async(self._new_trace(), np.array([99]))

    def test_metadata_annotated(self):
        out = revive_async(self._new_trace(), np.array([1]))
        assert out.metadata["postprocessed"] is True
        assert out.metadata["n_async_gaps"] == 1

    def test_short_trace_passthrough(self):
        t = BlockTrace([0.0], [0], [8], [0], issues=[0.0], completes=[10.0])
        assert revive_async(t, np.array([], dtype=int)) is t
