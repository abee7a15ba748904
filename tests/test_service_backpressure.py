"""The bounded chunk queue: watermark hysteresis, blocking puts, force."""

from __future__ import annotations

import threading
import time

import pytest

from repro.service import BoundedChunkQueue


def refused(queue, item="x"):
    """A put the closed gate blocks, aborted after one wait."""
    return not queue.put(item, should_abort=lambda: True, poll_s=0.001)


class TestValidation:
    def test_bad_watermarks(self):
        with pytest.raises(ValueError):
            BoundedChunkQueue(0)

    def test_default_low_watermark(self):
        """The low watermark is always max(1, high // 2)."""
        for high, low in ((1, 1), (2, 1), (3, 1), (4, 2), (5, 2), (8, 4), (16, 8)):
            assert BoundedChunkQueue(high).low_watermark == low


class TestGating:
    def test_gate_closes_at_high_and_reopens_at_low(self):
        queue = BoundedChunkQueue(4)  # low watermark 2
        for i in range(4):
            assert queue.put(i)
        assert refused(queue)  # blocked while gated
        assert queue.stats()["gated"]
        assert queue.get() == 0
        assert queue.stats()["gated"]  # 3 > low: hysteresis holds the gate closed
        assert refused(queue)
        assert queue.get() == 1
        assert not queue.stats()["gated"]  # drained to low: gate reopens
        assert queue.put(4)
        assert queue.stats()["n_put"] == 5
        assert queue.depth() == 3

    def test_block_policy_waits_for_consumer(self):
        queue = BoundedChunkQueue(2)  # low watermark 1
        queue.put("a")
        queue.put("b")
        assert queue.stats()["gated"]  # full: the next put waits
        done = []

        def producer():
            queue.put("c")  # blocks until the consumer drains to low
            done.append(time.monotonic())

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.1)
        assert not done  # still gated
        assert queue.get() == "a"  # depth 1 == low: gate opens
        thread.join(timeout=5.0)
        assert done
        assert queue.depth() == 2

    def test_block_put_aborts_on_request(self):
        queue = BoundedChunkQueue(1)
        queue.put("a")
        abort = threading.Event()
        results = []

        def producer():
            results.append(queue.put("b", should_abort=abort.is_set))

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        abort.set()
        thread.join(timeout=5.0)
        assert results == [False]

    def test_gate_closes_only_when_a_put_finds_the_queue_full(self):
        queue = BoundedChunkQueue(4)  # low watermark 2
        for i in range(4):
            assert queue.put(i)
        assert queue.get() == 0
        assert not queue.stats()["gated"]  # no put found it full
        assert queue.put(4)
        assert queue.stats()["gated"]
        assert refused(queue)
        assert queue.stats()["gated"] and queue.depth() == 4

    def test_force_bypasses_gate(self):
        queue = BoundedChunkQueue(1)
        queue.put("a")
        assert refused(queue)
        assert queue.put(("stop",), force=True)
        assert queue.depth() == 2

    def test_get_timeout_returns_none(self):
        assert BoundedChunkQueue(2).get(timeout=0.01) is None

    def test_depth_never_exceeds_high_watermark_under_load(self):
        """The watermark invariant the slow-consumer scenario relies on."""
        queue = BoundedChunkQueue(3)  # low watermark 1
        max_seen = 0
        stop = threading.Event()

        def consumer():
            nonlocal max_seen
            while not stop.is_set() or queue.depth():
                item = queue.get(timeout=0.01)
                if item is not None:
                    max_seen = max(max_seen, queue.depth() + 1)
                    time.sleep(0.002)  # slow consumer

        thread = threading.Thread(target=consumer)
        thread.start()
        for i in range(50):
            queue.put(i)
        stop.set()
        thread.join(timeout=10.0)
        assert queue.stats()["max_depth"] <= 3
        assert max_seen <= 3
