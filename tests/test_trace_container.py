"""Unit tests for BlockTrace and TraceBuilder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace import BlockTrace, IORecord, OpType, TraceBuilder


def make_trace(n: int = 10, with_dev: bool = True) -> BlockTrace:
    ts = np.arange(n) * 100.0
    return BlockTrace(
        timestamps=ts,
        lbas=np.arange(n) * 8,
        sizes=np.full(n, 8),
        ops=np.tile([0, 1], n)[:n],
        issues=ts + 1.0 if with_dev else None,
        completes=ts + 50.0 if with_dev else None,
        name="t",
    )


class TestConstruction:
    def test_length_and_repr(self):
        t = make_trace(5)
        assert len(t) == 5
        assert "n=5" in repr(t)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="length"):
            BlockTrace([0.0, 1.0], [0], [8, 8], [0, 0])

    def test_unsorted_timestamps_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            BlockTrace([1.0, 0.0], [0, 8], [8, 8], [0, 0])

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            BlockTrace([0.0], [0], [0], [0])

    def test_issues_without_completes_rejected(self):
        with pytest.raises(ValueError, match="together"):
            BlockTrace([0.0], [0], [8], [0], issues=[0.0])

    def test_empty_trace_is_fine(self):
        t = BlockTrace([], [], [], [])
        assert len(t) == 0
        assert t.duration == 0.0


class TestDerived:
    def test_inter_arrival_times(self):
        t = make_trace(4)
        np.testing.assert_allclose(t.inter_arrival_times(), [100.0, 100.0, 100.0])

    def test_device_times(self):
        t = make_trace(3)
        np.testing.assert_allclose(t.device_times(), [49.0, 49.0, 49.0])

    def test_device_times_raise_without_stamps(self):
        t = make_trace(3, with_dev=False)
        with pytest.raises(ValueError, match="stamps"):
            t.device_times()

    def test_sequential_mask(self):
        # LBAs step by exactly the size => all but first sequential.
        t = make_trace(5)
        mask = t.sequential_mask()
        assert not mask[0]
        assert mask[1:].all()

    def test_sequential_mask_detects_jumps(self):
        t = BlockTrace([0.0, 1.0, 2.0], [0, 8, 100], [8, 8, 8], [0, 0, 0])
        assert list(t.sequential_mask()) == [False, True, False]

    def test_read_write_masks_partition(self):
        t = make_trace(10)
        assert (t.read_mask() | t.write_mask()).all()
        assert not (t.read_mask() & t.write_mask()).any()

    def test_total_and_mean_bytes(self):
        t = make_trace(4)
        assert t.total_bytes() == 4 * 8 * 512
        assert t.mean_request_bytes() == pytest.approx(8 * 512)


class TestTransforms:
    def test_shifted_and_rebased(self):
        t = make_trace(3).shifted(1000.0)
        assert t.timestamps[0] == 1000.0
        r = t.rebased()
        assert r.timestamps[0] == 0.0
        assert r.issues is not None and r.issues[0] == pytest.approx(1.0)

    def test_with_timestamps_drops_device_stamps(self):
        t = make_trace(3)
        t2 = t.with_timestamps(np.array([0.0, 1.0, 2.0]))
        assert not t2.has_device_times
        np.testing.assert_array_equal(t2.lbas, t.lbas)

    def test_select_by_slice_and_mask(self):
        t = make_trace(10)
        assert len(t.select(slice(0, 3))) == 3
        mask = t.read_mask()
        sub = t.select(mask)
        assert len(sub) == int(mask.sum())
        assert (sub.ops == int(OpType.READ)).all()

    def test_getitem_int_returns_record(self):
        t = make_trace(3)
        rec = t[1]
        assert isinstance(rec, IORecord)
        assert rec.timestamp == 100.0

    def test_iteration_yields_records(self):
        t = make_trace(4)
        recs = list(t)
        assert len(recs) == 4
        assert all(isinstance(r, IORecord) for r in recs)

    def test_concat_rejects_overlap(self):
        a = make_trace(3)
        with pytest.raises(ValueError, match="overlap"):
            a.concat(make_trace(3))

    def test_concat_after_shift(self):
        a = make_trace(3)
        b = make_trace(3).shifted(1_000.0)
        c = a.concat(b)
        assert len(c) == 6
        assert c.has_device_times


class TestBuilder:
    def test_builder_round_trip(self):
        b = TraceBuilder(name="b")
        b.append(0.0, 0, 8, 0, issue=1.0, complete=10.0)
        b.append(5.0, 8, 8, 1, issue=6.0, complete=30.0)
        t = b.build()
        assert len(t) == 2
        assert t.has_device_times
        assert t.name == "b"

    def test_builder_sorts_when_asked(self):
        b = TraceBuilder()
        b.append(10.0, 0, 8, 0)
        b.append(5.0, 8, 8, 0)
        t = b.build(sort=True)
        assert list(t.timestamps) == [5.0, 10.0]

    def test_builder_unsorted_build_raises_on_disorder(self):
        b = TraceBuilder()
        b.append(10.0, 0, 8, 0)
        b.append(5.0, 8, 8, 0)
        with pytest.raises(ValueError):
            b.build(sort=False)

    def test_inconsistent_device_stamp_use_rejected(self):
        b = TraceBuilder()
        b.append(0.0, 0, 8, 0, issue=1.0, complete=2.0)
        with pytest.raises(ValueError, match="inconsistent"):
            b.append(1.0, 8, 8, 0)

    def test_issue_without_complete_rejected(self):
        b = TraceBuilder()
        with pytest.raises(ValueError, match="completion"):
            b.append(0.0, 0, 8, 0, issue=1.0)

    def test_append_record(self):
        b = TraceBuilder()
        b.append_record(IORecord(timestamp=0.0, lba=0, size=8, op=OpType.READ))
        assert len(b) == 1
