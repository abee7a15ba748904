"""Device registry: small parameter dicts to concrete simulators.

A campaign names its device grid declaratively; this module owns the
mapping from those descriptions to :class:`~repro.storage.device.
StorageDevice` instances.  Kinds:

``hdd``
    :class:`~repro.storage.hdd.HDDModel` — geometry knobs (``rpm``,
    ``avg_seek_ms``, ``track_to_track_ms``, ``sectors_per_track``,
    ``heads``, ``total_sectors``) plus ``write_back_cache_kb`` and
    ``seed``.
``flash``
    A single :class:`~repro.storage.flash.FlashSSD` — any
    :class:`~repro.storage.flash.FlashGeometry` field as a knob.
``flash_array``
    :class:`~repro.storage.array.FlashArray` — ``n_ssds``,
    ``stripe_kb``, plus per-member flash-geometry knobs.
``raid0`` / ``raid1``
    :class:`~repro.storage.raid.Raid0` / :class:`~repro.storage.raid.
    Raid1` over ``n`` members described by a nested ``member`` dict
    (any other kind); HDD members get distinct derived seeds so their
    rotational phases are independent.

Fault parameters (:data:`FAULT_PARAMS`) degrade a device declaratively:
``latency_factor``/``latency_extra_us`` and ``stall_every``/``stall_us``
wrap any kind in the :mod:`~repro.storage.faults` service injectors;
``throttle_factor`` and ``offline_at``/``offline_channels`` reshape the
flash family (scaled channel bandwidth, channels taken offline
mid-trace via :class:`~repro.storage.faults.MidTraceSwitch`);
``failed_member``/``rebuild_every``/``rebuild_chunk`` turn a ``raid1``
into a :class:`~repro.storage.faults.DegradedRaid1`.  A fault parameter
on a kind that does not support it is rejected — at spec-validation
time, before anything runs.

Presets reproduce the evaluation-node factories of
:mod:`repro.experiments.nodes` parameter-for-parameter (``old-node``,
``new-node``, ``calibration-disk``), so a campaign device resolves to
a simulator with the *same fingerprint* as the hand-built node — which
is what lets the figure sweeps run through the campaign path while
hitting the same trace-store entries bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace
from typing import Any

from ..storage import (
    PCIE3_X4,
    SATA_300,
    SATA_600,
    DegradedRaid1,
    FlashArray,
    FlashGeometry,
    FlashSSD,
    HDDGeometry,
    HDDModel,
    LatencyInflation,
    MidTraceSwitch,
    Raid0,
    Raid1,
    StorageDevice,
    TransientStalls,
)

__all__ = [
    "DEVICE_KINDS",
    "DEVICE_PRESETS",
    "FAULT_PARAMS",
    "build_device",
    "device_zoo",
    "fault_params_for",
    "valid_params_for",
    "validate_device_description",
]

#: Named host-interface channels a device description may reference.
_CHANNELS = {"sata300": SATA_300, "sata600": SATA_600, "pcie3x4": PCIE3_X4}

_HDD_GEOMETRY_KEYS = (
    "rpm", "avg_seek_ms", "track_to_track_ms", "sectors_per_track", "heads", "total_sectors",
)
_FLASH_GEOMETRY_KEYS = (
    "channels", "dies_per_channel", "planes_per_die", "page_kb", "read_us",
    "program_us", "channel_mb_s", "write_buffer_kb", "buffer_write_us",
)

#: Non-fault constructor knobs per registry kind (error messages and
#: spec validation introspect this).
_KIND_PARAMS: dict[str, tuple[str, ...]] = {
    "hdd": _HDD_GEOMETRY_KEYS + ("channel", "write_back_cache_kb", "seed"),
    "flash": _FLASH_GEOMETRY_KEYS + ("channel",),
    "flash_array": ("n_ssds", "stripe_kb") + _FLASH_GEOMETRY_KEYS + ("channel",),
    "raid0": ("n", "stripe_kb", "member"),
    "raid1": ("n", "member"),
}

_ALL_KINDS = frozenset(_KIND_PARAMS)
_FLASH_FAMILY = frozenset({"flash", "flash_array"})

#: Fault parameter -> the registry kinds that understand it.  The
#: service injectors wrap any device; the structural faults need the
#: matching model family.
FAULT_PARAMS: dict[str, frozenset[str]] = {
    "latency_factor": _ALL_KINDS,
    "latency_extra_us": _ALL_KINDS,
    "stall_every": _ALL_KINDS,
    "stall_us": _ALL_KINDS,
    "throttle_factor": _FLASH_FAMILY,
    "offline_at": _FLASH_FAMILY,
    "offline_channels": _FLASH_FAMILY,
    "failed_member": frozenset({"raid1"}),
    "rebuild_every": frozenset({"raid1"}),
    "rebuild_chunk": frozenset({"raid1"}),
}

#: Preset device descriptions matching :mod:`repro.experiments.nodes`.
DEVICE_PRESETS: dict[str, dict[str, Any]] = {
    # The decade-old HDD collection node (old_node()).
    "old-node": {"kind": "hdd", "seed": 42},
    # The four-SSD all-flash target (new_node()).
    "new-node": {"kind": "flash_array", "n_ssds": 4, "stripe_kb": 128},
    # The enterprise disk of the T_movd calibration (calibration_disk()).
    "calibration-disk": {
        "kind": "hdd",
        "rpm": 7200.0,
        "avg_seek_ms": 8.9,
        "track_to_track_ms": 2.0,
        "sectors_per_track": 2000,
        "heads": 4,
        "seed": 7,
    },
}


def _channel(params: dict[str, Any], default: Any) -> Any:
    name = params.pop("channel", None)
    if name is None:
        return default
    try:
        return _CHANNELS[str(name).lower()]
    except KeyError:
        raise ValueError(
            f"unknown channel {name!r}; known channels: {sorted(_CHANNELS)}"
        ) from None


def valid_params_for(kind: str) -> list[str]:
    """Every parameter name device kind ``kind`` accepts (incl. faults)."""
    if kind not in _KIND_PARAMS:
        raise ValueError(_unknown_kind_message(kind))
    faults = [name for name, kinds in FAULT_PARAMS.items() if kind in kinds]
    return sorted(set(_KIND_PARAMS[kind]) | set(faults))


def _reject_unknown(kind: str, params: dict[str, Any]) -> None:
    if params:
        raise ValueError(
            f"unknown parameter(s) for device kind {kind!r}: {sorted(params)}; "
            f"valid parameters: {valid_params_for(kind)}"
        )


def _unknown_kind_message(kind: str) -> str:
    known = sorted(_KIND_PARAMS) + sorted(DEVICE_PRESETS)
    return f"unknown device kind {kind!r}; known kinds: {known}"


# ----------------------------------------------------------------------
# fault-parameter plumbing
# ----------------------------------------------------------------------


def _pop_wrapper_faults(params: dict[str, Any]) -> dict[str, Any]:
    """Split the kind-agnostic service-injector knobs out of ``params``."""
    keys = ("latency_factor", "latency_extra_us", "stall_every", "stall_us")
    return {k: params.pop(k) for k in keys if k in params}


def _apply_wrapper_faults(device: StorageDevice, fault: dict[str, Any]) -> StorageDevice:
    """Wrap ``device`` in the requested service injectors (inner first)."""
    if "latency_factor" in fault or "latency_extra_us" in fault:
        device = LatencyInflation(
            device,
            factor=float(fault.get("latency_factor", 1.0)),
            extra_us=float(fault.get("latency_extra_us", 0.0)),
        )
    if "stall_every" in fault or "stall_us" in fault:
        if "stall_every" not in fault:
            raise ValueError("'stall_us' requires 'stall_every'")
        device = TransientStalls(
            device,
            every=int(fault["stall_every"]),
            stall_us=float(fault.get("stall_us", 1000.0)),
        )
    return device


def _pop_flash_faults(kind: str, params: dict[str, Any]) -> dict[str, Any]:
    """Split the flash-family structural fault knobs out of ``params``."""
    fault: dict[str, Any] = {}
    if "throttle_factor" in params:
        fault["throttle"] = float(params.pop("throttle_factor"))
        if fault["throttle"] < 1.0:
            raise ValueError("throttle_factor must be >= 1")
    if "offline_at" in params:
        fault["offline_at"] = int(params.pop("offline_at"))
        if fault["offline_at"] < 0:
            raise ValueError("offline_at must be a non-negative request index")
    if "offline_channels" in params:
        fault["offline_channels"] = int(params.pop("offline_channels"))
        if "offline_at" not in fault:
            raise ValueError(f"{kind}: 'offline_channels' requires 'offline_at'")
    return fault


def _throttled_geometry(geometry: FlashGeometry, fault: dict[str, Any]) -> FlashGeometry:
    if "throttle" not in fault:
        return geometry
    return replace(geometry, channel_mb_s=geometry.channel_mb_s / fault["throttle"])


def _offline_geometry(geometry: FlashGeometry, fault: dict[str, Any]) -> FlashGeometry:
    down = int(fault.get("offline_channels", 1))
    if not 1 <= down < geometry.channels:
        raise ValueError(
            f"offline_channels must be in [1, {geometry.channels - 1}] "
            f"for a {geometry.channels}-channel geometry, got {down}"
        )
    return replace(geometry, channels=geometry.channels - down)


def _with_offline_switch(make, geometry: FlashGeometry, fault: dict[str, Any]):
    """``make(geometry)`` device, switched to a reduced-channel twin."""
    device = make(geometry)
    if "offline_at" not in fault:
        return device
    degraded = make(_offline_geometry(geometry, fault))
    return MidTraceSwitch(device, degraded, at_request=fault["offline_at"])


# ----------------------------------------------------------------------
# per-kind builders
# ----------------------------------------------------------------------


def _build_hdd(params: dict[str, Any]) -> HDDModel:
    geometry_kwargs = {k: params.pop(k) for k in _HDD_GEOMETRY_KEYS if k in params}
    channel = _channel(params, SATA_300)
    cache_kb = int(params.pop("write_back_cache_kb", 0))
    seed = int(params.pop("seed", 42))
    _reject_unknown("hdd", params)
    return HDDModel(
        geometry=HDDGeometry(**geometry_kwargs),
        channel=channel,
        write_back_cache_kb=cache_kb,
        seed=seed,
    )


def _flash_geometry(params: dict[str, Any]) -> FlashGeometry:
    geometry_kwargs = {k: params.pop(k) for k in _FLASH_GEOMETRY_KEYS if k in params}
    return FlashGeometry(**geometry_kwargs)


def _build_flash(params: dict[str, Any]) -> StorageDevice:
    fault = _pop_flash_faults("flash", params)
    geometry = _throttled_geometry(_flash_geometry(params), fault)
    channel = _channel(params, PCIE3_X4)
    _reject_unknown("flash", params)
    return _with_offline_switch(
        lambda g: FlashSSD(geometry=g, channel=channel), geometry, fault
    )


def _build_flash_array(params: dict[str, Any]) -> StorageDevice:
    fault = _pop_flash_faults("flash_array", params)
    n_ssds = int(params.pop("n_ssds", 4))
    stripe_kb = int(params.pop("stripe_kb", 128))
    geometry = _throttled_geometry(_flash_geometry(params), fault)
    channel = _channel(params, PCIE3_X4)
    _reject_unknown("flash_array", params)
    return _with_offline_switch(
        lambda g: FlashArray(n_ssds=n_ssds, stripe_kb=stripe_kb, geometry=g, channel=channel),
        geometry,
        fault,
    )


def _resolve_member(member: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    """Resolve a nested member description's preset down to a base kind."""
    member_kind = member.pop("kind", "hdd")
    if member_kind in DEVICE_PRESETS:
        preset = dict(DEVICE_PRESETS[member_kind])
        member_kind = preset.pop("kind")
        member = {**preset, **member}
    return member_kind, member


def _build_members(member_kind: str, member: dict[str, Any], n: int) -> list[StorageDevice]:
    """``n`` member devices; HDD members get derived per-spindle seeds."""
    members: list[StorageDevice] = []
    for i in range(n):
        desc = dict(member)
        if member_kind == "hdd":
            # Distinct rotational-phase seeds per spindle.
            desc["seed"] = int(desc.get("seed", 42)) + i
        members.append(build_device(member_kind, desc))
    return members


def _build_raid0(params: dict[str, Any]) -> Raid0:
    n = int(params.pop("n", 2))
    stripe_kb = int(params.pop("stripe_kb", 64))
    member = dict(params.pop("member", {"kind": "hdd"}))
    _reject_unknown("raid0", params)
    if n <= 0:
        raise ValueError("raid0 needs at least one member")
    member_kind, member = _resolve_member(member)
    return Raid0(_build_members(member_kind, member, n), stripe_kb=stripe_kb)


def _build_raid1(params: dict[str, Any]) -> StorageDevice:
    n = int(params.pop("n", 2))
    member = dict(params.pop("member", {"kind": "hdd"}))
    failed = params.pop("failed_member", None)
    rebuild_every = int(params.pop("rebuild_every", 0))
    rebuild_chunk = int(params.pop("rebuild_chunk", 128))
    _reject_unknown("raid1", params)
    if n < 2:
        raise ValueError("a mirror needs at least two members")
    member_kind, member = _resolve_member(member)
    members = _build_members(member_kind, member, n)
    if failed is None:
        if rebuild_every:
            raise ValueError("'rebuild_every' requires 'failed_member'")
        return Raid1(members)
    return DegradedRaid1(
        members,
        failed_index=int(failed),
        rebuild_every=rebuild_every,
        rebuild_chunk=rebuild_chunk,
    )


DEVICE_KINDS = {
    "hdd": _build_hdd,
    "flash": _build_flash,
    "flash_array": _build_flash_array,
    "raid0": _build_raid0,
    "raid1": _build_raid1,
}


def _resolve_kind(kind: str, params: Mapping[str, Any] | None) -> tuple[str, dict[str, Any]]:
    """Resolve presets and validate the kind name."""
    merged = dict(params or {})
    if kind in DEVICE_PRESETS:
        preset = dict(DEVICE_PRESETS[kind])
        preset_kind = preset.pop("kind")
        merged = {**preset, **merged}
        kind = preset_kind
    if kind not in DEVICE_KINDS:
        raise ValueError(_unknown_kind_message(kind))
    return kind, merged


def fault_params_for(kind: str) -> list[str]:
    """Fault parameters device kind (or preset) ``kind`` supports."""
    kind, __ = _resolve_kind(kind, {})
    return sorted(name for name, kinds in FAULT_PARAMS.items() if kind in kinds)


def validate_device_description(kind: str, params: Mapping[str, Any] | None = None) -> None:
    """Cheap validation of a ``(kind, params)`` description.

    Raises ``ValueError`` for an unknown kind or for a fault parameter
    the kind does not support — without building the device, so
    campaign specs can be rejected at load time rather than mid-sweep.
    """
    kind, merged = _resolve_kind(kind, params)
    for name in merged:
        kinds = FAULT_PARAMS.get(name)
        if kinds is not None and kind not in kinds:
            raise ValueError(
                f"device kind {kind!r} does not support fault parameter {name!r}; "
                f"supported by kinds: {sorted(kinds)}"
            )


def build_device(kind: str, params: Mapping[str, Any] | None = None) -> StorageDevice:
    """Build a storage device from a ``(kind, params)`` description.

    ``kind`` may also be a preset name (``old-node``, ``new-node``,
    ``calibration-disk``), in which case ``params`` override the
    preset's defaults.  Unknown parameters raise ``ValueError`` — a
    typo in a campaign spec must not silently fall back to a default.
    """
    kind, merged = _resolve_kind(kind, params)
    validate_device_description(kind, merged)
    wrapper_fault = _pop_wrapper_faults(merged)
    device = DEVICE_KINDS[kind](merged)
    return _apply_wrapper_faults(device, wrapper_fault)


def device_zoo() -> dict[str, dict[str, Any]]:
    """Small, fast descriptions covering every registry kind.

    Keys are zoo entry names; values are ``(kind, params)`` description
    dicts (``kind`` plus knobs, the :class:`~repro.campaign.spec.
    DeviceSpec` flat form).  The zoo spans every kind in
    :data:`DEVICE_KINDS` — healthy and degraded — with deliberately
    tiny geometries, and the differential identity harness
    (`tests/test_device_zoo_identity.py`) iterates it, so adding a kind
    here (the coverage test fails until it appears) automatically locks
    the new model into the engine bit-identity matrix.
    """
    tiny_flash = {
        "channels": 3,
        "dies_per_channel": 2,
        "planes_per_die": 2,
        "page_kb": 4,
        "write_buffer_kb": 32,
    }
    return {
        # -- healthy shapes -------------------------------------------
        "hdd": {"kind": "hdd", "seed": 3},
        "hdd-wbc": {"kind": "hdd", "seed": 4, "write_back_cache_kb": 256},
        "flash": {"kind": "flash", **tiny_flash},
        "flash-nobuf": {"kind": "flash", **tiny_flash, "write_buffer_kb": 0},
        "flash-array": {"kind": "flash_array", "n_ssds": 2, "stripe_kb": 16, **tiny_flash},
        "raid0": {"kind": "raid0", "n": 2, "stripe_kb": 16, "member": {"kind": "hdd"}},
        "raid0-flash": {
            "kind": "raid0", "n": 2, "stripe_kb": 16, "member": {"kind": "flash", **tiny_flash},
        },
        "raid1": {"kind": "raid1", "n": 2, "member": {"kind": "hdd"}},
        # -- degraded shapes ------------------------------------------
        "flash-slow": {"kind": "flash", **tiny_flash, "latency_factor": 2.5, "latency_extra_us": 40.0},
        "flash-stall": {"kind": "flash", **tiny_flash, "stall_every": 7, "stall_us": 1500.0},
        "flash-throttled": {"kind": "flash", **tiny_flash, "throttle_factor": 4.0},
        "flash-offline": {"kind": "flash", **tiny_flash, "offline_at": 24, "offline_channels": 1},
        "array-offline": {
            "kind": "flash_array", "n_ssds": 2, "stripe_kb": 16, **tiny_flash,
            "offline_at": 16, "offline_channels": 1,
        },
        "raid1-failed": {"kind": "raid1", "n": 2, "member": {"kind": "hdd"}, "failed_member": 0},
        "raid1-rebuild": {
            "kind": "raid1", "n": 3, "member": {"kind": "hdd"},
            "failed_member": 1, "rebuild_every": 8, "rebuild_chunk": 64,
        },
        "raid0-slow": {
            "kind": "raid0", "n": 2, "stripe_kb": 16, "member": {"kind": "hdd"},
            "latency_extra_us": 120.0,
        },
    }
