"""Unit tests for channels, the device ABC, and the constant device."""

from __future__ import annotations

import pytest

from repro.storage import (
    PCIE3_X4,
    SATA_300,
    SATA_600,
    ConstantLatencyDevice,
    InterfaceChannel,
)
from repro.storage.device import Completion
from repro.trace import OpType


class TestInterfaceChannel:
    def test_delay_includes_overhead_and_transfer(self):
        ch = InterfaceChannel("x", bandwidth_mb_s=512.0, read_overhead_us=10.0, write_overhead_us=20.0)
        # 8 sectors = 4096 bytes at 512 MB/s = 8 us.
        assert ch.delay_us(OpType.READ, 8) == pytest.approx(18.0)
        assert ch.delay_us(OpType.WRITE, 8) == pytest.approx(28.0)

    def test_transfer_scales_linearly(self):
        assert SATA_600.transfer_us(16) == pytest.approx(2 * SATA_600.transfer_us(8))

    def test_faster_links_have_smaller_delay(self):
        for size in (8, 64, 1024):
            assert PCIE3_X4.delay_us(OpType.READ, size) < SATA_600.delay_us(OpType.READ, size)
            assert SATA_600.delay_us(OpType.READ, size) < SATA_300.delay_us(OpType.READ, size)

    def test_validation(self):
        with pytest.raises(ValueError):
            InterfaceChannel("x", bandwidth_mb_s=0.0, read_overhead_us=1.0, write_overhead_us=1.0)
        with pytest.raises(ValueError):
            InterfaceChannel("x", bandwidth_mb_s=1.0, read_overhead_us=-1.0, write_overhead_us=1.0)
        with pytest.raises(ValueError):
            SATA_600.transfer_us(-1)


class TestCompletion:
    def test_derived_quantities(self):
        c = Completion(submit=0.0, start=10.0, ack=5.0, finish=110.0)
        assert c.latency == 110.0
        assert c.device_time == 100.0
        assert c.queue_wait == 5.0

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            Completion(submit=10.0, start=5.0, ack=11.0, finish=20.0)
        with pytest.raises(ValueError):
            Completion(submit=10.0, start=11.0, ack=5.0, finish=20.0)


class TestConstantLatencyDevice:
    def test_latency_is_channel_plus_service(self, const_device):
        c = const_device.submit(OpType.READ, 0, 8, 0.0)
        expected_cdel = const_device.channel.delay_us(OpType.READ, 8)
        assert c.ack == pytest.approx(expected_cdel)
        assert c.finish == pytest.approx(expected_cdel + 100.0)

    def test_fifo_queueing(self, const_device):
        first = const_device.submit(OpType.READ, 0, 8, 0.0)
        second = const_device.submit(OpType.READ, 8, 8, 0.0)
        assert second.start == pytest.approx(first.finish)

    def test_write_latency_differs(self, const_device):
        c = const_device.submit(OpType.WRITE, 0, 8, 0.0)
        assert c.device_time == pytest.approx(200.0)

    def test_submission_order_enforced(self, const_device):
        const_device.submit(OpType.READ, 0, 8, 100.0)
        with pytest.raises(ValueError, match="time-ordered"):
            const_device.submit(OpType.READ, 0, 8, 50.0)

    def test_reset_clears_state(self, const_device):
        const_device.submit(OpType.READ, 0, 8, 100.0)
        const_device.reset()
        c = const_device.submit(OpType.READ, 0, 8, 0.0)
        assert c.submit == 0.0
        assert c.queue_wait == pytest.approx(0.0)

    def test_invalid_requests_rejected(self, const_device):
        with pytest.raises(ValueError):
            const_device.submit(OpType.READ, 0, 0, 0.0)
        with pytest.raises(ValueError):
            const_device.submit(OpType.READ, -5, 8, 0.0)
