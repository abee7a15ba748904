"""Unit tests for the flash SSD model and the all-flash array."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage import FlashArray, FlashGeometry, FlashSSD
from repro.trace import OpType


class TestFlashGeometry:
    def test_paper_geometry_counts(self):
        g = FlashGeometry()
        # "a single device consists of 18 channels, 36 dies, and 72 planes"
        assert g.channels == 18
        assert g.total_dies == 36
        assert g.total_planes == 72

    def test_page_sectors(self):
        assert FlashGeometry(page_kb=8).page_sectors == 16

    def test_die_striping_covers_all_dies(self):
        g = FlashGeometry()
        seen = {g.die_of_page(p) for p in range(g.total_dies)}
        assert len(seen) == g.total_dies

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashGeometry(channels=0)
        with pytest.raises(ValueError):
            FlashGeometry(read_us=0.0)
        with pytest.raises(ValueError):
            FlashGeometry(write_buffer_kb=-1)


class TestFlashSSD:
    def test_small_read_latency_magnitude(self):
        ssd = FlashSSD()
        c = ssd.submit(OpType.READ, 0, 8, 0.0)
        # One page read + transfer + channel: order of 100 us (NVMe-class).
        assert 30.0 < c.device_time < 300.0

    def test_buffered_write_acks_fast(self):
        ssd = FlashSSD()
        c = ssd.submit(OpType.WRITE, 0, 8, 0.0)
        # Write-back buffer hides the ~900 us program latency.
        assert c.device_time < 100.0

    def test_large_read_exploits_parallelism(self):
        ssd = FlashSSD()
        small = ssd.submit(OpType.READ, 0, 16, 0.0).device_time
        ssd.reset()
        # 64 pages spread over 36 dies: much less than 64x one page.
        big = ssd.submit(OpType.READ, 0, 16 * 64, 0.0).device_time
        assert big < 20 * small

    def test_sustained_write_throttles_to_program_rate(self):
        geometry = FlashGeometry(write_buffer_kb=64)
        ssd = FlashSSD(geometry)
        t = 0.0
        finishes = []
        for i in range(200):
            c = ssd.submit(OpType.WRITE, i * 16, 16, t)
            finishes.append(c.finish)
            t = c.finish
        gaps = np.diff(finishes)
        # Early writes are absorbed at buffer speed; once the 64 KB
        # buffer is full, admission waits for background drains.
        assert np.mean(gaps[:5]) < np.mean(gaps[-20:])

    def test_read_faster_than_unbuffered_write(self):
        g = FlashGeometry(write_buffer_kb=0)
        ssd = FlashSSD(g)
        r = ssd.submit(OpType.READ, 0, 16, 0.0).device_time
        ssd.reset()
        w = ssd.submit(OpType.WRITE, 0, 16, 0.0).device_time
        assert r < w

    def test_reset_reproducible(self):
        ssd = FlashSSD()
        a = ssd.submit(OpType.READ, 123, 32, 0.0).finish
        ssd.reset()
        b = ssd.submit(OpType.READ, 123, 32, 0.0).finish
        assert a == b


def _served_fragments(arr: FlashArray, lba: int, size: int) -> list[tuple[int, int, int]]:
    """``(ssd_index, lba, size)`` of each member ``_service`` call one read makes."""
    calls: list[tuple[int, int, int]] = []
    for index, ssd in enumerate(arr.ssds):
        def record(op, frag_lba, frag_size, t_ready, index=index, service=ssd._service):
            calls.append((index, frag_lba, frag_size))
            return service(op, frag_lba, frag_size, t_ready)

        ssd._service = record
    arr._service(OpType.READ, lba, size, 0.0)
    return calls


class TestFlashArray:
    def test_paper_array_shape(self):
        arr = FlashArray()
        assert arr.n_ssds == 4
        assert "4x" in arr.name

    def test_fragments_split_on_stripe_boundaries(self):
        arr = FlashArray(stripe_kb=128)  # 256 sectors
        frags = _served_fragments(arr, lba=200, size=200)
        assert frags == [(0, 200, 56), (1, 256, 144)]
        assert sum(f[2] for f in frags) == 200

    def test_fragments_round_robin(self):
        arr = FlashArray(n_ssds=4, stripe_kb=128)
        frags = _served_fragments(arr, lba=0, size=256 * 4)
        assert [f[0] for f in frags] == [0, 1, 2, 3]

    def test_array_read_bandwidth_exceeds_single_ssd(self):
        # Stream large reads; the array must finish sooner than one SSD.
        def run(device) -> float:
            device.reset()
            t = 0.0
            for i in range(50):
                c = device.submit(OpType.READ, i * 2048, 2048, t)
                t = c.finish
            return t

        single = run(FlashSSD())
        array = run(FlashArray())
        assert array < single

    def test_array_headline_bandwidth(self):
        # Sustained sequential reads should reach several GB/s
        # (the paper's array peaks at 9 GB/s read).
        arr = FlashArray()
        t = 0.0
        total_bytes = 0
        for i in range(100):
            c = arr.submit(OpType.READ, i * 4096, 4096, t)  # 2 MB each
            total_bytes += 4096 * 512
            t = c.finish
        gb_per_s = total_bytes / (t / 1e6) / 1e9
        assert gb_per_s > 2.0

    def test_small_request_latency_close_to_single_ssd(self):
        arr = FlashArray()
        ssd = FlashSSD()
        a = arr.submit(OpType.READ, 0, 8, 0.0).device_time
        s = ssd.submit(OpType.READ, 0, 8, 0.0).device_time
        assert a == pytest.approx(s, rel=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashArray(n_ssds=0)
        with pytest.raises(ValueError):
            FlashArray(stripe_kb=0)

    def test_reset_resets_members(self):
        arr = FlashArray()
        a = arr.submit(OpType.READ, 0, 512, 0.0).finish
        arr.reset()
        b = arr.submit(OpType.READ, 0, 512, 0.0).finish
        assert a == b
