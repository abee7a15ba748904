"""Fault wrappers, degraded registry kinds, and their invariants.

Three layers of coverage for the degraded-mode device zoo:

- **unit behaviour** of each fault model — inflation arithmetic, stall
  periodicity, mid-trace switch routing, SMR append pointers, tiered
  address routing, the multi-queue FIFO gate, and the degraded mirror's
  I/O accounting;
- **registry and spec validation** — unknown kinds and parameters are
  rejected with messages naming the valid alternatives, and fault
  parameters on kinds that do not support them die at spec-load time;
- **property tests** (hypothesis) for the headline invariants: a
  degraded device is never faster than its healthy twin on the same
  trace, completions within one submission queue never reorder (even
  across a mid-trace reconfiguration), and rebuild traffic conserves
  total member I/O.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec, DeviceSpec
from repro.campaign.devices import (
    build_device,
    fault_params_for,
    valid_params_for,
)
from repro.replay import replay_queue_depth, replay_with_idle
from repro.storage import (
    SATA_600,
    ConstantLatencyDevice,
    DegradedRaid1,
    FlashGeometry,
    FlashSSD,
    HDDModel,
    LatencyInflation,
    MidTraceSwitch,
    MultiQueueDevice,
    SMRModel,
    TieredHybrid,
    TransientStalls,
)
from repro.trace.record import OpType
from repro.trace.trace import BlockTrace
from test_properties import block_traces

TINY_FLASH = FlashGeometry(
    channels=3, dies_per_channel=2, planes_per_die=2, page_kb=4, write_buffer_kb=32
)


def _const(read_us: float = 50.0, write_us: float = 80.0) -> ConstantLatencyDevice:
    return ConstantLatencyDevice(SATA_600, read_us=read_us, write_us=write_us)


# ----------------------------------------------------------------------
# service injectors
# ----------------------------------------------------------------------


class TestLatencyInflation:
    def test_inflation_arithmetic(self):
        device = LatencyInflation(_const(), factor=2.0, extra_us=7.0)
        start, finish = device._service(OpType.READ, 0, 8, 100.0)
        assert (start, finish) == (100.0, 100.0 + 50.0 * 2.0 + 7.0)
        start, finish = device._service(OpType.WRITE, 0, 8, 1000.0)
        assert finish - start == 80.0 * 2.0 + 7.0

    def test_wrapper_is_fifo(self):
        device = LatencyInflation(_const(read_us=100.0), factor=1.0)
        __, first_finish = device._service(OpType.READ, 0, 8, 0.0)
        start, __ = device._service(OpType.READ, 0, 8, 10.0)  # arrives early
        assert start == first_finish

    def test_batch_matches_scalar_transform(self):
        device = LatencyInflation(_const(), factor=1.5, extra_us=3.0)
        ops = np.array([0, 1, 0], dtype=np.int8)
        svc = device.service_batch(ops, np.zeros(3, dtype=np.int64), np.full(3, 8))
        np.testing.assert_array_equal(
            svc, np.where(ops == 0, 50.0 * 1.5 + 3.0, 80.0 * 1.5 + 3.0)
        )

    def test_expected_service_inflated(self):
        inner = _const()
        device = LatencyInflation(_const(), factor=3.0, extra_us=1.0)
        for op in (OpType.READ, OpType.WRITE):
            assert device.service_time_us(op, 8, True) == (
                inner.service_time_us(op, 8, True) * 3.0 + 1.0
            )

    def test_rejects_speedups(self):
        with pytest.raises(ValueError, match="factor must be >= 1"):
            LatencyInflation(_const(), factor=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            LatencyInflation(_const(), extra_us=-1.0)

    def test_reset_restores_cold_state(self):
        device = LatencyInflation(HDDModel(), factor=2.0)
        trace, idle = _unit_trace()
        first = replay_with_idle(trace, device, idle)
        device.reset()
        second = replay_with_idle(trace, device, idle)
        np.testing.assert_array_equal(first.finishes, second.finishes)


class TestTransientStalls:
    def test_stall_periodicity(self):
        device = TransientStalls(_const(read_us=10.0), every=3, stall_us=500.0)
        durations = []
        t = 0.0
        for __ in range(9):
            start, finish = device._service(OpType.READ, 0, 8, t)
            durations.append(finish - start)
            t = finish + 1.0
        assert durations == [10.0, 10.0, 510.0] * 3

    def test_batch_stall_ordinals_continue_across_calls(self):
        device = TransientStalls(_const(read_us=10.0), every=4, stall_us=100.0)
        ops = np.zeros(3, dtype=np.int8)
        lbas = np.zeros(3, dtype=np.int64)
        sizes = np.full(3, 8)
        first = device.service_batch(ops, lbas, sizes)   # ordinals 1..3
        second = device.service_batch(ops, lbas, sizes)  # ordinals 4..6
        np.testing.assert_array_equal(first, [10.0, 10.0, 10.0])
        np.testing.assert_array_equal(second, [110.0, 10.0, 10.0])

    def test_expected_service_amortises_stall(self):
        device = TransientStalls(_const(read_us=10.0), every=5, stall_us=100.0)
        inner = _const(read_us=10.0)
        assert device.service_time_us(OpType.READ, 8, True) == (
            inner.service_time_us(OpType.READ, 8, True) + 100.0 / 5
        )

    def test_rejects_degenerate_periods(self):
        with pytest.raises(ValueError, match="at least 1"):
            TransientStalls(_const(), every=0)
        with pytest.raises(ValueError, match="non-negative"):
            TransientStalls(_const(), every=2, stall_us=-5.0)


class TestMidTraceSwitch:
    def test_routes_by_request_index(self):
        device = MidTraceSwitch(_const(read_us=10.0), _const(read_us=90.0), at_request=3)
        durations = []
        t = 0.0
        for __ in range(6):
            start, finish = device._service(OpType.READ, 0, 8, t)
            durations.append(finish - start)
            t = finish + 1.0
        assert durations == [10.0, 10.0, 10.0, 90.0, 90.0, 90.0]

    def test_batch_split_straddles_switch_point(self):
        device = MidTraceSwitch(_const(read_us=10.0), _const(read_us=90.0), at_request=2)
        ops = np.zeros(5, dtype=np.int8)
        svc = device.service_batch(ops, np.zeros(5, dtype=np.int64), np.full(5, 8))
        np.testing.assert_array_equal(svc, [10.0, 10.0, 90.0, 90.0, 90.0])

    def test_switch_at_zero_is_always_degraded(self):
        device = MidTraceSwitch(_const(read_us=10.0), _const(read_us=90.0), at_request=0)
        __, finish = device._service(OpType.READ, 0, 8, 0.0)
        assert finish == 90.0

    def test_rejects_negative_switch_point(self):
        with pytest.raises(ValueError, match="non-negative"):
            MidTraceSwitch(_const(), _const(), at_request=-1)


# ----------------------------------------------------------------------
# new device models
# ----------------------------------------------------------------------


class TestSMRModel:
    def test_append_at_pointer_is_free(self):
        smr = SMRModel(zone_mb=1, append_penalty_us=5000.0)
        zone = smr.zone_sectors
        plain = HDDModel(seed=42)
        # Sequential appends from the zone base: no penalty, identical
        # to the conventional disk.
        t = 0.0
        for lba in (0, 64, 128):
            __, f_smr = smr._service(OpType.WRITE, lba, 64, t)
            __, f_hdd = plain._service(OpType.WRITE, lba, 64, t)
            assert f_smr == f_hdd
            t = f_smr + 10.0
        assert smr._zone_append[0] == 192
        # Rewriting inside the shingled zone pays the penalty.
        __, f_smr = smr._service(OpType.WRITE, 0, 64, t)
        __, f_hdd = plain._service(OpType.WRITE, 0, 64, t)
        assert f_smr - f_hdd == pytest.approx(5000.0)
        assert smr._zone_append == {0: 64}
        # A fresh zone's pointer starts at its base.
        __, f2 = smr._service(OpType.WRITE, 2 * zone, 32, t + 1e6)
        assert smr._zone_append[2] == 2 * zone + 32

    def test_reads_never_pay(self):
        smr = SMRModel(zone_mb=1, append_penalty_us=5000.0, seed=3)
        plain = HDDModel(seed=3)
        __, f_smr = smr._service(OpType.READ, 777, 32, 0.0)
        __, f_hdd = plain._service(OpType.READ, 777, 32, 0.0)
        assert f_smr == f_hdd
        assert smr._zone_append == {}

    def test_reset_rewinds_append_pointers(self):
        smr = SMRModel(zone_mb=1)
        smr._service(OpType.WRITE, 0, 64, 0.0)
        assert smr._zone_append
        smr.reset()
        assert smr._zone_append == {}

    def test_write_back_cache_always_disabled(self):
        assert SMRModel().write_back_cache_kb == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="zone size"):
            SMRModel(zone_mb=0)
        with pytest.raises(ValueError, match="penalty"):
            SMRModel(append_penalty_us=-1.0)


class TestTieredHybrid:
    def test_routes_by_start_lba(self):
        device = TieredHybrid(_const(read_us=5.0), _const(read_us=500.0), flash_sectors=1000)
        __, fast = device._service(OpType.READ, 999, 8, 0.0)
        __, slow = device._service(OpType.READ, 1000, 8, 0.0)
        assert fast == 5.0 and slow == 500.0
        # A straddler goes entirely to its start tier.
        __, straddle = device._service(OpType.READ, 998, 64, 1000.0)
        assert straddle - 1000.0 == 5.0

    def test_batch_routing_matches_scalar(self):
        device = TieredHybrid(_const(read_us=5.0), _const(read_us=500.0), flash_sectors=1000)
        lbas = np.array([0, 2000, 500, 1500], dtype=np.int64)
        svc = device.service_batch(
            np.zeros(4, dtype=np.int8), lbas, np.full(4, 8)
        )
        np.testing.assert_array_equal(svc, [5.0, 500.0, 5.0, 500.0])

    def test_rejects_empty_flash_tier(self):
        with pytest.raises(ValueError, match="positive"):
            TieredHybrid(_const(), _const(), flash_sectors=0)


class TestMultiQueueDevice:
    def test_round_robin_gate(self):
        # Inner takes 100us; 2 queues.  Four simultaneous arrivals:
        # requests 2 and 3 must wait for their queue predecessors even
        # though the inner const device would serialise anyway.
        device = MultiQueueDevice(_const(read_us=100.0, write_us=100.0), n_queues=2)
        finishes = [device._service(OpType.READ, 0, 8, 0.0)[1] for __ in range(4)]
        # Per-queue completions are monotone in submission order.
        assert finishes[2] >= finishes[0] and finishes[3] >= finishes[1]

    def test_queue_count_validated(self):
        with pytest.raises(ValueError, match="at least one queue"):
            MultiQueueDevice(_const(), n_queues=0)

    def test_no_plan_engine(self):
        # The streaming flash loop cannot express the per-queue gate (a
        # request's ready time depends on a prior completion chosen by
        # queue index), so the wrapper keeps the default hook and
        # replays through _service.
        device = MultiQueueDevice(FlashSSD(geometry=TINY_FLASH), n_queues=2)
        assert device.flash_layout() is None

    def test_expected_service_delegates(self):
        inner = FlashSSD(geometry=TINY_FLASH)
        device = MultiQueueDevice(FlashSSD(geometry=TINY_FLASH), n_queues=4)
        assert device.service_time_us(OpType.READ, 16, False) == inner.service_time_us(
            OpType.READ, 16, False
        )


class TestDegradedRaid1:
    def _device(self, **kwargs) -> DegradedRaid1:
        members = [HDDModel(seed=s) for s in (1, 2, 3)]
        return DegradedRaid1(members, **kwargs)

    def test_failed_member_receives_no_io(self):
        device = self._device(failed_index=1)
        trace, idle = _unit_trace()
        replay_with_idle(trace, device, idle)
        assert device.member_io_counts[1] == 0
        assert sum(device.member_io_counts) > 0

    def test_io_conservation_without_rebuild(self):
        device = self._device(failed_index=0)
        trace, idle = _unit_trace()
        replay_with_idle(trace, device, idle)
        reads = int(np.sum(trace.ops == int(OpType.READ)))
        writes = len(trace) - reads
        assert sum(device.member_io_counts) == reads + writes * len(device.survivors)
        assert device.rebuild_io_count == 0

    def test_rebuild_count_and_cursor(self):
        device = self._device(failed_index=0, rebuild_every=4, rebuild_chunk=64)
        n = 13
        t = 0.0
        for __ in range(n):
            __, t = device._service(OpType.READ, 128, 8, t)
            t += 1.0
        # Fires before hosts 4, 8 and 12 (0-based count): (n-1)//every.
        assert device.rebuild_io_count == (n - 1) // 4 == 3
        assert device._rebuild_cursor == 3 * 64

    def test_rebuild_refuses_batch(self):
        device = self._device(failed_index=0, rebuild_every=4)
        ops = np.zeros(4, dtype=np.int8)
        assert not device.supports_batch(ops, np.zeros(4, dtype=np.int64), np.full(4, 8))
        assert device.service_batch(ops, np.zeros(4, dtype=np.int64), np.full(4, 8)) is None

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="full member set"):
            DegradedRaid1([HDDModel()])
        with pytest.raises(ValueError, match="out of range"):
            self._device(failed_index=3)
        with pytest.raises(ValueError, match="non-negative"):
            self._device(rebuild_every=-1)
        with pytest.raises(ValueError, match="chunk must be positive"):
            self._device(rebuild_every=2, rebuild_chunk=0)


# ----------------------------------------------------------------------
# registry + spec validation
# ----------------------------------------------------------------------


class TestRegistryErrors:
    def test_unknown_kind_names_valid_kinds(self):
        with pytest.raises(ValueError, match="unknown device kind") as excinfo:
            build_device("floppy")
        message = str(excinfo.value)
        for kind in ("hdd", "flash_array", "nvme_mq", "smr", "tiered", "old-node"):
            assert kind in message

    def test_unknown_parameter_names_valid_parameters(self):
        with pytest.raises(ValueError, match="unknown parameter") as excinfo:
            build_device("smr", {"rpm": 7200.0, "shingle_overlap": 3})
        message = str(excinfo.value)
        assert "valid parameters" in message
        assert "zone_mb" in message and "latency_factor" in message

    def test_fault_param_on_unsupported_kind(self):
        with pytest.raises(ValueError, match="does not support fault parameter") as excinfo:
            build_device("hdd", {"offline_at": 10})
        message = str(excinfo.value)
        assert "flash" in message and "nvme_mq" in message

    def test_fault_param_dependencies(self):
        with pytest.raises(ValueError, match="'stall_us' requires 'stall_every'"):
            build_device("flash", {"stall_us": 100.0})
        with pytest.raises(ValueError, match="'offline_channels' requires 'offline_at'"):
            build_device("flash", {"offline_channels": 2})
        with pytest.raises(ValueError, match="'rebuild_every' requires 'failed_member'"):
            build_device("raid1", {"rebuild_every": 4})

    def test_structural_fault_ranges(self):
        with pytest.raises(ValueError, match="throttle_factor must be >= 1"):
            build_device("flash", {"throttle_factor": 0.5})
        with pytest.raises(ValueError, match="offline_channels must be in"):
            build_device("flash", {"channels": 4, "offline_at": 5, "offline_channels": 4})

    def test_fault_params_for(self):
        assert fault_params_for("hdd") == [
            "latency_extra_us", "latency_factor", "stall_every", "stall_us",
        ]
        assert "offline_at" in fault_params_for("nvme_mq")
        assert "failed_member" in fault_params_for("raid1")
        # Presets resolve to their base kind.
        assert "offline_at" in fault_params_for("new-node")

    def test_valid_params_include_faults(self):
        params = valid_params_for("flash")
        assert "throttle_factor" in params and "channels" in params


class TestSpecValidation:
    def test_spec_rejects_fault_on_unsupported_kind(self):
        with pytest.raises(ValueError, match="does not support fault parameter"):
            CampaignSpec(
                name="bad",
                devices=(DeviceSpec("d", "hdd", {"offline_at": 5}),),
            )

    def test_from_dict_rejects_fault_on_unsupported_kind(self):
        with pytest.raises(ValueError, match="does not support fault parameter"):
            CampaignSpec.from_dict(
                {
                    "name": "bad",
                    "devices": [{"name": "d", "kind": "smr", "failed_member": 0}],
                }
            )

    def test_spec_rejects_unknown_kind_up_front(self):
        with pytest.raises(ValueError, match="unknown device kind"):
            CampaignSpec.from_dict({"name": "bad", "devices": ["warp-drive"]})

    def test_valid_degraded_specs_accepted(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "ok",
                "devices": [
                    {"name": "mq", "kind": "nvme_mq", "offline_at": 10, "offline_channels": 2},
                    {"name": "mirror", "kind": "raid1", "failed_member": 0,
                     "rebuild_every": 8, "rebuild_chunk": 64},
                    {"name": "slow-smr", "kind": "smr", "latency_factor": 2.0},
                ],
            }
        )
        for device in spec.devices:
            assert device.build().fingerprint()


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------


def _unit_trace(n: int = 40, seed: int = 11) -> tuple[BlockTrace, np.ndarray]:
    rng = np.random.default_rng(seed)
    trace = BlockTrace(
        timestamps=np.cumsum(rng.integers(1, 300, n)).astype(np.float64),
        lbas=rng.integers(0, 1 << 20, n),
        sizes=rng.integers(1, 96, n),
        ops=rng.integers(0, 2, n).astype(np.int8),
    )
    return trace, rng.uniform(0.0, 2_000.0, n - 1)


INNER_FACTORIES = {
    "const": lambda: _const(),
    "hdd": lambda: HDDModel(seed=6),
    "flash": lambda: FlashSSD(geometry=TINY_FLASH),
}


def _degradations(inner):
    return [
        LatencyInflation(inner(), factor=1.75, extra_us=12.0),
        TransientStalls(inner(), every=5, stall_us=800.0),
    ]


class TestDegradedNeverFaster:
    """Per-request completions: degraded >= healthy on identical traces."""

    @pytest.mark.parametrize("inner_key", sorted(INNER_FACTORIES))
    @given(trace=block_traces(min_n=2, max_n=40))
    @settings(max_examples=20, deadline=None)
    def test_injectors_only_slow_down(self, inner_key, trace):
        inner = INNER_FACTORIES[inner_key]
        if inner_key == "flash":
            # Buffered flash writes are not gap-invariant; reads keep
            # the wrapper on the single-row batch pricing path.
            trace = BlockTrace(
                trace.timestamps, trace.lbas, trace.sizes,
                np.zeros(len(trace), dtype=np.int8),
            )
        healthy = replay_with_idle(trace, inner())
        for degraded_device in _degradations(inner):
            degraded = replay_with_idle(trace, degraded_device)
            assert np.all(degraded.finishes >= healthy.finishes)
            # Per-request latencies: the subtraction happens at
            # different magnitudes on the two timelines, so allow the
            # resulting ulp of rounding slack.
            slack = 1e-6 * (1.0 + np.abs(degraded.finishes))
            assert np.all(
                (degraded.finishes - degraded.submits)
                >= (healthy.finishes - healthy.submits) - slack
            )


class TestQueueOrderInvariant:
    """Completions within one submission queue never reorder."""

    @staticmethod
    def _assert_queues_monotone(result, n_queues: int):
        for queue in range(n_queues):
            per_queue = result.finishes[queue::n_queues]
            assert np.all(np.diff(per_queue) >= 0)

    @given(trace=block_traces(min_n=4, max_n=40), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_mq_per_queue_monotone(self, trace, data):
        n_queues = data.draw(st.integers(min_value=1, max_value=4))
        queue_depth = data.draw(st.integers(min_value=2, max_value=6))
        device = MultiQueueDevice(FlashSSD(geometry=TINY_FLASH), n_queues=n_queues)
        result = replay_queue_depth(trace, device, queue_depth=queue_depth)
        self._assert_queues_monotone(result, n_queues)

    @given(trace=block_traces(min_n=4, max_n=40), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_mq_monotone_across_mid_trace_switch(self, trace, data):
        """The offline fault must not reorder a queue's completions."""
        at = data.draw(st.integers(min_value=0, max_value=len(trace)))
        inner = MidTraceSwitch(
            FlashSSD(geometry=TINY_FLASH),
            FlashSSD(geometry=FlashGeometry(
                channels=2, dies_per_channel=2, planes_per_die=2,
                page_kb=4, write_buffer_kb=32,
            )),
            at_request=at,
        )
        device = MultiQueueDevice(inner, n_queues=3)
        result = replay_queue_depth(trace, device, queue_depth=4)
        self._assert_queues_monotone(result, 3)


class TestRebuildConservation:
    """Member I/O counters account for every host and rebuild request."""

    @given(trace=block_traces(min_n=2, max_n=50), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_total_member_io_conserved(self, trace, data):
        every = data.draw(st.integers(min_value=1, max_value=10))
        failed = data.draw(st.integers(min_value=0, max_value=2))
        device = DegradedRaid1(
            [HDDModel(seed=s) for s in (1, 2, 3)],
            failed_index=failed,
            rebuild_every=every,
            rebuild_chunk=64,
        )
        replay_with_idle(trace, device)
        reads = int(np.sum(trace.ops == int(OpType.READ)))
        writes = len(trace) - reads
        assert device.member_io_counts[failed] == 0
        assert device.rebuild_io_count == (len(trace) - 1) // every
        assert sum(device.member_io_counts) == (
            reads + writes * len(device.survivors) + device.rebuild_io_count
        )
