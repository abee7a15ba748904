"""Unit tests for queue-depth replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.replay import replay_queue_depth, replay_with_idle
from repro.storage import ConstantLatencyDevice, FlashArray, HDDModel, SATA_600
from repro.trace import BlockTrace


def pattern(n: int = 40) -> BlockTrace:
    ts = np.arange(n) * 10_000.0
    return BlockTrace(ts, np.arange(n) * 8, np.full(n, 8), np.zeros(n, dtype=int), name="p")


class TestQueueDepthReplay:
    def test_depth_one_matches_sync_replay_timing(self):
        old = pattern(10)
        device = ConstantLatencyDevice(SATA_600, read_us=200.0, write_us=200.0)
        qd = replay_queue_depth(old, device, queue_depth=1)
        device2 = ConstantLatencyDevice(SATA_600, read_us=200.0, write_us=200.0)
        sync = replay_with_idle(old, device2, None)
        # Same completion-driven pacing (identical durations).
        assert qd.trace.duration == pytest.approx(sync.trace.duration, rel=0.05)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ConstantLatencyDevice(SATA_600, read_us=200.0, write_us=200.0),
            HDDModel,
            FlashArray,
        ],
        ids=["const", "hdd", "flash-array"],
    )
    def test_depth_one_paces_from_ack_plus_idle_or_finish(self, make):
        """At depth 1 think time still runs from the ack: the next request
        is submitted at ``max(ack + idle, finish)``, not ``finish + idle``."""
        old = pattern(10)
        idle = np.full(9, 50.0)
        result = replay_queue_depth(old, make(), idle_us=idle, queue_depth=1)
        np.testing.assert_array_equal(
            result.submits[1:], np.maximum(result.acks[:-1] + idle, result.finishes[:-1])
        )

    def test_depth_one_is_not_sync_replay_with_idle(self):
        """With nonzero idle, depth 1 hides each think time behind the
        service: 50 µs of idle within 200 µs services saves 9 × 50 µs."""
        old = pattern(10)
        idle = np.full(9, 50.0)
        make = lambda: ConstantLatencyDevice(SATA_600, read_us=200.0, write_us=200.0)  # noqa: E731
        qd = replay_queue_depth(old, make(), idle_us=idle, queue_depth=1)
        sync = replay_with_idle(old, make(), idle)
        assert sync.trace.duration - qd.trace.duration == pytest.approx(9 * 50.0)

    def test_deeper_queue_is_faster(self):
        old = pattern(60)
        d1 = replay_queue_depth(old, FlashArray(), queue_depth=1).trace.duration
        d8 = replay_queue_depth(old, FlashArray(), queue_depth=8).trace.duration
        assert d8 < d1

    def test_window_bound_respected(self):
        old = pattern(30)
        device = ConstantLatencyDevice(SATA_600, read_us=1_000.0, write_us=1_000.0)
        result = replay_queue_depth(old, device, queue_depth=2)
        # At most 2 requests may be submitted before the first finishes.
        submits = result.trace.timestamps
        finishes = np.array([c.finish for c in result.completions])
        for i in range(2, len(submits)):
            assert submits[i] >= finishes[i - 2] - 1e-9

    def test_preserves_pattern_and_collects_device_times(self):
        old = pattern(15)
        result = replay_queue_depth(old, FlashArray(), queue_depth=4)
        np.testing.assert_array_equal(result.trace.lbas, old.lbas)
        assert result.trace.has_device_times
        assert result.trace.metadata["queue_depth"] == 4

    def test_idle_is_injected_between_submissions(self):
        old = pattern(5)
        idle = np.full(4, 50_000.0)
        device = ConstantLatencyDevice(SATA_600, read_us=10.0, write_us=10.0)
        result = replay_queue_depth(old, device, idle_us=idle, queue_depth=4)
        gaps = result.trace.inter_arrival_times()
        assert (gaps >= 50_000.0).all()

    def test_validation(self):
        old = pattern(5)
        device = ConstantLatencyDevice(SATA_600)
        with pytest.raises(ValueError):
            replay_queue_depth(old, device, queue_depth=0)
        with pytest.raises(ValueError):
            replay_queue_depth(old, device, idle_us=np.zeros(2))
        with pytest.raises(ValueError):
            replay_queue_depth(BlockTrace([], [], [], []), device)
        with pytest.raises(ValueError):
            replay_queue_depth(old, device, idle_us=np.full(4, -1.0))
