"""Unit tests for the HDD model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage import HDDGeometry, HDDModel
from repro.trace import OpType


class TestGeometry:
    def test_rotation_time(self):
        g = HDDGeometry(rpm=7200.0)
        assert g.rotation_us == pytest.approx(60e6 / 7200.0)

    def test_seek_zero_distance_is_free(self):
        assert HDDGeometry().seek_us(0) == 0.0

    def test_seek_monotone_in_distance(self):
        g = HDDGeometry()
        seeks = [g.seek_us(d) for d in (1, 10, 100, 10_000, 100_000)]
        assert all(a < b for a, b in zip(seeks, seeks[1:]))

    def test_average_seek_calibrated(self):
        g = HDDGeometry()
        avg_distance = int(g.cylinders / 3)
        assert g.seek_us(avg_distance) == pytest.approx(g.avg_seek_ms * 1e3, rel=0.01)

    def test_transfer_rate_sane(self):
        g = HDDGeometry()
        # ~100 MB/s media rate for the default geometry.
        mb_per_s = 512 / g.transfer_us_per_sector
        assert 50 < mb_per_s < 200

    def test_validation(self):
        with pytest.raises(ValueError):
            HDDGeometry(rpm=0.0)
        with pytest.raises(ValueError):
            HDDGeometry(avg_seek_ms=0.1, track_to_track_ms=0.8)

    def test_negative_seek_distance_rejected(self):
        with pytest.raises(ValueError):
            HDDGeometry().seek_us(-1)


class TestHDDModel:
    def test_sequential_faster_than_random(self):
        hdd = HDDModel()
        # Establish head position, then access sequentially vs far away.
        c0 = hdd.submit(OpType.READ, 1000, 8, 0.0)
        c_seq = hdd.submit(OpType.READ, 1008, 8, c0.finish + 10.0)
        hdd2 = HDDModel()
        d0 = hdd2.submit(OpType.READ, 1000, 8, 0.0)
        c_rand = hdd2.submit(OpType.READ, 500_000_000, 8, d0.finish + 10.0)
        assert c_seq.device_time < c_rand.device_time

    def test_sequential_is_pure_transfer(self):
        hdd = HDDModel()
        c0 = hdd.submit(OpType.READ, 0, 8, 0.0)
        c1 = hdd.submit(OpType.READ, 8, 8, c0.finish + 5.0)
        assert c1.device_time == pytest.approx(8 * hdd.geometry.transfer_us_per_sector)

    def test_random_latency_in_mechanical_range(self):
        hdd = HDDModel()
        rng = np.random.default_rng(3)
        times = []
        t = 0.0
        for _ in range(200):
            lba = int(rng.integers(0, hdd.geometry.total_sectors - 8))
            c = hdd.submit(OpType.READ, lba, 8, t)
            times.append(c.device_time)
            t = c.finish + 1.0
        mean_ms = np.mean(times) / 1e3
        # Mean random access: seek (~ms) + half rotation (4.2ms) + transfer.
        assert 4.0 < mean_ms < 30.0

    def test_deterministic_given_seed(self):
        def run() -> list[float]:
            hdd = HDDModel(seed=9)
            out = []
            t = 0.0
            for i in range(50):
                c = hdd.submit(OpType.WRITE, (i * 7919) % 10**6, 8, t)
                out.append(c.finish)
                t = c.finish + 1.0
            return out

        assert run() == run()

    def test_reset_restores_cold_state(self):
        hdd = HDDModel(seed=5)
        first = hdd.submit(OpType.READ, 12345, 8, 0.0)
        hdd.reset()
        again = hdd.submit(OpType.READ, 12345, 8, 0.0)
        assert first.finish == pytest.approx(again.finish)

    def test_queueing_behind_busy_spindle(self):
        hdd = HDDModel()
        c0 = hdd.submit(OpType.READ, 10_000_000, 64, 0.0)
        c1 = hdd.submit(OpType.READ, 900_000_000, 64, 0.0)
        assert c1.start >= c0.finish

    def test_write_back_cache_accelerates_writes(self):
        cached = HDDModel(write_back_cache_kb=8192, seed=2)
        plain = HDDModel(write_back_cache_kb=0, seed=2)
        c = cached.submit(OpType.WRITE, 77_000_000, 8, 0.0)
        p = plain.submit(OpType.WRITE, 77_000_000, 8, 0.0)
        assert c.device_time < p.device_time

    def test_expected_movd_in_range(self):
        hdd = HDDModel()
        # Half a rotation is 4.17 ms; seeks add several ms.
        assert 5_000 < hdd.expected_movd_us < 25_000
