"""Unit tests for the RAID-0 / RAID-1 layer."""

from __future__ import annotations

import pytest

from repro.storage import ConstantLatencyDevice, Raid0, Raid1, SATA_600
from repro.trace import OpType


def members(n: int = 2, read_us: float = 100.0, write_us: float = 100.0):
    return [ConstantLatencyDevice(SATA_600, read_us, write_us) for _ in range(n)]


class TestRaid0:
    def test_fragments_round_robin(self):
        raid = Raid0(members(2), stripe_kb=64)  # 128 sectors per stripe
        frags = raid._fragments(lba=0, size=512)
        assert [f[0] for f in frags] == [0, 1, 0, 1]
        assert sum(f[2] for f in frags) == 512

    def test_local_addresses_dense(self):
        raid = Raid0(members(2), stripe_kb=64)
        frags = raid._fragments(lba=0, size=512)
        # Member 0 receives stripes 0 and 2 at local offsets 0 and 128.
        locals_m0 = [f[1] for f in frags if f[0] == 0]
        assert locals_m0 == [0, 128]

    def test_striped_large_request_faster_than_single_member(self):
        single = ConstantLatencyDevice(SATA_600, 100.0, 100.0)
        raid = Raid0(members(4), stripe_kb=64)
        # 4 stripes land on 4 distinct members -> one member-latency,
        # while a sequence of 4 requests on one device serialises.
        c_raid = raid.submit(OpType.READ, 0, 512, 0.0)
        t = 0.0
        for i in range(4):
            c = single.submit(OpType.READ, i * 128, 128, t)
            t = c.finish
        assert c_raid.finish < t

    def test_sub_stripe_request_touches_one_member(self):
        raid = Raid0(members(2), stripe_kb=64)
        frags = raid._fragments(lba=10, size=20)
        assert len(frags) == 1

    def test_reset_propagates(self):
        raid = Raid0(members(2))
        a = raid.submit(OpType.READ, 0, 256, 0.0).finish
        raid.reset()
        b = raid.submit(OpType.READ, 0, 256, 0.0).finish
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            Raid0([], stripe_kb=64)
        with pytest.raises(ValueError):
            Raid0(members(2), stripe_kb=0)

    def test_name(self):
        assert Raid0(members(3)).name.startswith("raid0(3x")


class TestRaid1:
    def test_reads_alternate_members(self):
        raid = Raid1(members(2))
        first = raid.submit(OpType.READ, 0, 8, 0.0)
        second = raid.submit(OpType.READ, 0, 8, 0.0)
        # Round-robin: the second read goes to the idle mirror, so it
        # does not queue behind the first.
        assert second.start < first.finish

    def test_writes_broadcast_to_all_members(self):
        slow = ConstantLatencyDevice(SATA_600, 100.0, 500.0)
        fast = ConstantLatencyDevice(SATA_600, 100.0, 100.0)
        raid = Raid1([fast, slow])
        c = raid.submit(OpType.WRITE, 0, 8, 0.0)
        # Write completes when the slowest mirror does.
        assert c.device_time >= 500.0

    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            Raid1(members(1))

    def test_reset_restores_round_robin(self):
        raid = Raid1(members(2))
        raid.submit(OpType.READ, 0, 8, 0.0)
        raid.reset()
        a = raid.submit(OpType.READ, 0, 8, 10.0)
        raid.reset()
        b = raid.submit(OpType.READ, 0, 8, 10.0)
        assert a.finish == b.finish


class TestRaidAsOldNode:
    def test_trace_collection_on_raid(self):
        """A RAID-0 of disks works as an OLD collection node (MSRC style)."""
        from repro.storage import HDDModel
        from repro.workloads import collect_trace, generate_intents, get_spec

        raid = Raid0([HDDModel(seed=1), HDDModel(seed=2)], stripe_kb=64)
        spec = get_spec("wdev").scaled(300)
        trace = collect_trace(generate_intents(spec), raid)
        assert len(trace) == 300
        assert trace.metadata["collected_on"].startswith("raid0")
