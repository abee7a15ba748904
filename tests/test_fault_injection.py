"""Fault wrappers, degraded registry kinds, and their invariants.

Three layers of coverage for the degraded-mode device zoo:

- **unit behaviour** of each fault model — inflation arithmetic, stall
  periodicity, mid-trace switch routing, and the degraded mirror's I/O
  accounting;
- **registry and spec validation** — unknown kinds and parameters are
  rejected with messages naming the valid alternatives, and fault
  parameters on kinds that do not support them die at spec-load time;
- **property tests** (hypothesis) for the headline invariants: a
  degraded device is never faster than its healthy twin on the same
  trace, and rebuild traffic conserves total member I/O.
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
from repro.replay import replay_with_idle
from repro.storage import (
    SATA_600,
    ConstantLatencyDevice,
    DegradedRaid1,
    FlashGeometry,
    FlashSSD,
    HDDModel,
    LatencyInflation,
    MidTraceSwitch,
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
# degraded redundancy
# ----------------------------------------------------------------------


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
        for kind in (
            "hdd", "flash", "flash_array", "raid0", "raid1",
            "old-node", "new-node", "calibration-disk",
        ):
            assert repr(kind) in message

    def test_unknown_parameter_names_valid_parameters(self):
        with pytest.raises(ValueError, match="unknown parameter") as excinfo:
            build_device("hdd", {"rpm": 7200.0, "shingle_overlap": 3})
        message = str(excinfo.value)
        assert "valid parameters" in message
        assert "write_back_cache_kb" in message and "latency_factor" in message

    def test_fault_param_on_unsupported_kind(self):
        with pytest.raises(ValueError, match="does not support fault parameter") as excinfo:
            build_device("hdd", {"offline_at": 10})
        message = str(excinfo.value)
        assert "supported by kinds: ['flash', 'flash_array']" in message

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
        assert "offline_at" in fault_params_for("flash")
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
                    "devices": [{"name": "d", "kind": "raid0", "failed_member": 0}],
                }
            )

    # The three kinds removed from the registry fail like any other typo.
    @pytest.mark.parametrize("kind", ["warp-drive", "nvme_mq", "tiered", "smr"])
    def test_spec_rejects_unknown_kind_up_front(self, kind):
        with pytest.raises(ValueError, match=f"unknown device kind '{kind}'"):
            CampaignSpec.from_dict({"name": "bad", "devices": [kind]})

    def test_valid_degraded_specs_accepted(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "ok",
                "devices": [
                    {"name": "array", "kind": "flash_array", "offline_at": 10,
                     "offline_channels": 2},
                    {"name": "mirror", "kind": "raid1", "failed_member": 0,
                     "rebuild_every": 8, "rebuild_chunk": 64},
                    {"name": "slow-hdd", "kind": "hdd", "latency_factor": 2.0},
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
