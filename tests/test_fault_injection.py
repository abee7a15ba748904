"""The device registry refuses the removed fault knobs and kinds.

The degraded-device layer (latency inflation, transient stalls,
throttled or offline flash channels, failed and rebuilding mirrors)
and the NVMe-MQ, tiered and SMR kinds are gone.  A description that
still names one of them is refused like any other typo, with a message
naming the valid alternatives, both when a device is built and when a
campaign spec loads — before any point runs.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignSpec, DeviceSpec
from repro.campaign.devices import DEVICE_KINDS, build_device, valid_params_for

#: The knobs of the removed degraded-device layer.
FORMER_FAULT_KNOBS = (
    "latency_factor", "latency_extra_us", "stall_every", "stall_us", "throttle_factor",
    "offline_at", "offline_channels", "failed_member", "rebuild_every", "rebuild_chunk",
)


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
        assert "write_back_cache_kb" in message and "seed" in message

    def test_fault_param_on_unsupported_kind(self):
        # No kind supports a fault knob any more: each is an unknown
        # parameter, and the message lists what the kind does accept.
        for kind in DEVICE_KINDS:
            for knob in FORMER_FAULT_KNOBS:
                with pytest.raises(ValueError, match="unknown parameter") as excinfo:
                    build_device(kind, {knob: 1})
                message = str(excinfo.value)
                assert f"for device kind {kind!r}: [{knob!r}]" in message
                assert f"valid parameters: {valid_params_for(kind)}" in message


class TestSpecValidation:
    def test_spec_rejects_fault_on_unsupported_kind(self):
        with pytest.raises(
            ValueError,
            match=r"device 'd': unknown parameter\(s\) for device kind 'hdd': \['offline_at'\]",
        ):
            CampaignSpec(
                name="bad",
                devices=(DeviceSpec("d", "hdd", {"offline_at": 5}),),
            )

    def test_from_dict_rejects_fault_on_unsupported_kind(self):
        with pytest.raises(
            ValueError,
            match=r"device 'd': unknown parameter\(s\) for device kind 'raid0': \['failed_member'\]",
        ):
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
