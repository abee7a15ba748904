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

A campaign spec builds each of its devices once when it loads
(:func:`build_device`): every parameter name is checked against its
kind (:func:`validate_device_description`), a RAID's nested ``member``
included, and every value goes through the constructors' own checks.
A misspelt knob, an unknown channel or a count the model refuses is
rejected before any point runs rather than falling back to a default
or failing mid-sweep.

Presets reproduce the evaluation-node factories of
:mod:`repro.experiments.nodes` parameter-for-parameter (``old-node``,
``new-node``, ``calibration-disk``), so a campaign device resolves to
a simulator with the *same fingerprint* as the hand-built node — which
is what lets the figure sweeps run through the campaign path while
hitting the same trace-store entries bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from ..storage import (
    PCIE3_X4,
    SATA_300,
    SATA_600,
    FlashArray,
    FlashGeometry,
    FlashSSD,
    HDDGeometry,
    HDDModel,
    Raid0,
    Raid1,
    StorageDevice,
)

__all__ = [
    "DEVICE_KINDS",
    "DEVICE_PRESETS",
    "build_device",
    "device_zoo",
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

#: Constructor knobs per registry kind (spec validation and error
#: messages read this).
_KIND_PARAMS: dict[str, tuple[str, ...]] = {
    "hdd": _HDD_GEOMETRY_KEYS + ("channel", "write_back_cache_kb", "seed"),
    "flash": _FLASH_GEOMETRY_KEYS + ("channel",),
    "flash_array": ("n_ssds", "stripe_kb") + _FLASH_GEOMETRY_KEYS + ("channel",),
    "raid0": ("n", "stripe_kb", "member"),
    "raid1": ("n", "member"),
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
    name = params.get("channel")
    if name is None:
        return default
    try:
        return _CHANNELS[str(name).lower()]
    except KeyError:
        raise ValueError(
            f"unknown channel {name!r}; known channels: {sorted(_CHANNELS)}"
        ) from None


def valid_params_for(kind: str) -> list[str]:
    """Every parameter name device kind ``kind`` accepts."""
    if kind not in _KIND_PARAMS:
        raise ValueError(_unknown_kind_message(kind))
    return sorted(_KIND_PARAMS[kind])


def _unknown_kind_message(kind: str) -> str:
    known = sorted(_KIND_PARAMS) + sorted(DEVICE_PRESETS)
    return f"unknown device kind {kind!r}; known kinds: {known}"


# ----------------------------------------------------------------------
# per-kind builders
# ----------------------------------------------------------------------


def _build_hdd(params: dict[str, Any]) -> HDDModel:
    geometry_kwargs = {k: params[k] for k in _HDD_GEOMETRY_KEYS if k in params}
    return HDDModel(
        geometry=HDDGeometry(**geometry_kwargs),
        channel=_channel(params, SATA_300),
        write_back_cache_kb=int(params.get("write_back_cache_kb", 0)),
        seed=int(params.get("seed", 42)),
    )


def _flash_geometry(params: dict[str, Any]) -> FlashGeometry:
    geometry_kwargs = {k: params[k] for k in _FLASH_GEOMETRY_KEYS if k in params}
    return FlashGeometry(**geometry_kwargs)


def _build_flash(params: dict[str, Any]) -> FlashSSD:
    return FlashSSD(geometry=_flash_geometry(params), channel=_channel(params, PCIE3_X4))


def _build_flash_array(params: dict[str, Any]) -> FlashArray:
    return FlashArray(
        n_ssds=int(params.get("n_ssds", 4)),
        stripe_kb=int(params.get("stripe_kb", 128)),
        geometry=_flash_geometry(params),
        channel=_channel(params, PCIE3_X4),
    )


def _resolve_member(params: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    """A RAID's nested ``member`` description, its preset resolved."""
    member = params.get("member", {"kind": "hdd"})
    if not isinstance(member, Mapping):
        raise ValueError(f"'member' must be a device description mapping, got {member!r}")
    member = dict(member)
    return _resolve_kind(member.pop("kind", "hdd"), member)


def _build_members(params: dict[str, Any], n: int) -> list[StorageDevice]:
    """``n`` member devices; HDD members get derived per-spindle seeds."""
    member_kind, member = _resolve_member(params)
    members: list[StorageDevice] = []
    for i in range(n):
        desc = dict(member)
        if member_kind == "hdd":
            # Distinct rotational-phase seeds per spindle.
            desc["seed"] = int(desc.get("seed", 42)) + i
        members.append(build_device(member_kind, desc))
    return members


def _build_raid0(params: dict[str, Any]) -> Raid0:
    n = int(params.get("n", 2))
    if n <= 0:
        raise ValueError("raid0 needs at least one member")
    return Raid0(_build_members(params, n), stripe_kb=int(params.get("stripe_kb", 64)))


def _build_raid1(params: dict[str, Any]) -> Raid1:
    n = int(params.get("n", 2))
    if n < 2:
        raise ValueError("a mirror needs at least two members")
    return Raid1(_build_members(params, n))


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


def validate_device_description(kind: str, params: Mapping[str, Any] | None = None) -> None:
    """Cheap validation of a ``(kind, params)`` description.

    Raises ``ValueError`` for an unknown kind or for a parameter the
    kind does not take, naming the valid ones; a RAID's ``member`` is
    checked the same way once its preset resolves.  Nothing is built,
    so parameter *values* are not checked here: :func:`build_device`
    calls this first, then the constructors check the values, and a
    campaign spec builds each device once when it loads.
    """
    kind, merged = _resolve_kind(kind, params)
    unknown = sorted(set(merged) - set(_KIND_PARAMS[kind]))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for device kind {kind!r}: {unknown}; "
            f"valid parameters: {valid_params_for(kind)}"
        )
    if "member" in merged:
        try:
            validate_device_description(*_resolve_member(merged))
        except ValueError as exc:
            raise ValueError(f"{kind} member: {exc}") from None


def build_device(kind: str, params: Mapping[str, Any] | None = None) -> StorageDevice:
    """Build a storage device from a ``(kind, params)`` description.

    ``kind`` may also be a preset name (``old-node``, ``new-node``,
    ``calibration-disk``), in which case ``params`` override the
    preset's defaults.  Unknown parameters raise ``ValueError`` — a
    typo in a campaign spec must not silently fall back to a default.
    """
    kind, merged = _resolve_kind(kind, params)
    validate_device_description(kind, merged)
    return DEVICE_KINDS[kind](merged)


def device_zoo() -> dict[str, dict[str, Any]]:
    """Small, fast descriptions covering every registry kind.

    Keys are zoo entry names; values are ``(kind, params)`` description
    dicts (``kind`` plus knobs, the :class:`~repro.campaign.spec.
    DeviceSpec` flat form).  The zoo spans every kind in
    :data:`DEVICE_KINDS` with deliberately tiny geometries, and the
    differential identity harness (`tests/test_device_zoo_identity.py`)
    iterates it, so adding a kind here (the coverage test fails until
    it appears) automatically locks the new model into the engine
    bit-identity matrix.  Two slow shapes (an SSD with slow NAND and
    bus timings, a RAID-0 over 5400 rpm disks) carry non-default timing
    knobs, a nested member's included, through every engine.
    """
    tiny_flash = {
        "channels": 3,
        "dies_per_channel": 2,
        "planes_per_die": 2,
        "page_kb": 4,
        "write_buffer_kb": 32,
    }
    return {
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
        "flash-slow": {
            "kind": "flash", **tiny_flash,
            "read_us": 97.5, "program_us": 1650.0, "channel_mb_s": 133.0, "buffer_write_us": 27.5,
        },
        "raid0-slow": {
            "kind": "raid0", "n": 2, "stripe_kb": 16,
            "member": {"kind": "hdd", "rpm": 5400.0, "avg_seek_ms": 12.0, "track_to_track_ms": 1.5},
        },
    }
