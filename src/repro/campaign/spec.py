"""Declarative campaign specifications and their YAML/JSON loaders.

A campaign is described by data, not code: which **action** to run
(``reconstruct``, ``idle``, ``target_diff``, ``method_gap``), across
which **axes** (workloads x devices x methods x trace sizes), with
which shared **options**.  The cross-product of the axes — minus
anything matched by ``exclude`` filters, capped by ``limit`` — is the
campaign's plan (:mod:`~repro.campaign.plan`).

Specs round-trip through plain dicts (:meth:`CampaignSpec.to_dict` /
:meth:`CampaignSpec.from_dict`): the engine records that form as a
campaign directory's ``spec.json``, which ``repro-campaign report``
reads back, and the loaders build specs from it when they read
``.yaml`` / ``.json`` files.  A ``.json`` file is read with
:mod:`json`; YAML support is gated on :mod:`yaml` being importable.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

__all__ = ["ACTIONS", "CampaignSpec", "DeviceSpec", "load_spec", "loads_spec"]

#: The actions the engine knows how to run at a grid point.
ACTIONS: tuple[str, ...] = ("reconstruct", "idle", "target_diff", "method_gap", "synthetic")


@dataclass(frozen=True)
class DeviceSpec:
    """A named device description inside a campaign.

    ``kind`` is a registry kind or preset name
    (:mod:`~repro.campaign.devices`); ``params`` hold every other
    constructor knob.  The spec is pure data — :meth:`build` resolves
    it to a fresh simulator instance (devices are stateful, so every
    use site builds its own).
    """

    name: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def build(self):
        """A fresh :class:`~repro.storage.device.StorageDevice`."""
        from .devices import build_device

        return build_device(self.kind, self.params)

    def to_dict(self) -> dict[str, Any]:
        """Flat dict form (``name``/``kind`` plus the parameter knobs)."""
        return {"name": self.name, "kind": self.kind, **self.params}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | str) -> "DeviceSpec":
        """Parse a device entry.

        Accepts the flat dict form or a bare preset/kind string
        (``"new-node"``), whose name defaults to the kind.
        """
        if isinstance(data, str):
            return cls(name=data, kind=data)
        entry = dict(data)
        kind = entry.pop("kind", None)
        name = entry.pop("name", kind)
        if kind is None:
            kind = name
        if name is None:
            raise ValueError(f"device entry needs a 'kind' or 'name': {data!r}")
        return cls(name=str(name), kind=str(kind), params=entry)


def _device_tuple(entries: Sequence[Mapping[str, Any] | str | DeviceSpec]) -> tuple[DeviceSpec, ...]:
    out = []
    for entry in entries:
        out.append(entry if isinstance(entry, DeviceSpec) else DeviceSpec.from_dict(entry))
    names = [d.name for d in out]
    if len(set(names)) != len(names):
        raise ValueError(f"device names must be unique, got {names}")
    return tuple(out)


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative device x workload sweep.

    Attributes
    ----------
    name:
        Campaign identifier (used for default output locations).
    action:
        What to compute at each grid point; one of :data:`ACTIONS`.
    workloads:
        Workload axis — catalog names, ``"family:FIU"``-style
        selectors, or ``"all"`` (resolved at planning time).
    devices:
        Device axis.  For ``reconstruct``/``target_diff``/
        ``method_gap`` these are reconstruction *targets*; for
        ``idle`` they are the collection devices.
    source_device:
        The OLD collection node used by pair-building actions.
    methods:
        Reconstruction-method axis; strings such as ``tracetracker``,
        ``revision``, ``dynamic``, ``acceleration:100``,
        ``fixed-th:10000`` (threshold in µs).
    n_requests:
        Trace-size axis.
    options:
        Action-specific knobs shared by every point (e.g.
        ``min_idle_us`` for ``idle``, ``device_times`` for collection).
    exclude:
        Partial-match filters; a grid point matching *all* keys of any
        entry (``workload``/``device``/``method``/``n_requests``) is
        dropped.
    limit:
        Keep only the first N points of the expansion (smoke runs).
    description:
        Free-form documentation carried into reports.
    """

    name: str
    action: str = "reconstruct"
    workloads: tuple[str, ...] = ("MSNFS",)
    devices: tuple[DeviceSpec, ...] = (DeviceSpec(name="new-node", kind="new-node"),)
    source_device: DeviceSpec = DeviceSpec(name="old-node", kind="old-node")
    methods: tuple[str, ...] = ("tracetracker",)
    n_requests: tuple[int, ...] = (4_000,)
    options: dict[str, Any] = field(default_factory=dict)
    exclude: tuple[dict[str, Any], ...] = ()
    limit: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}; known actions: {list(ACTIONS)}")
        if not self.workloads:
            raise ValueError("campaign needs at least one workload")
        if not self.devices:
            raise ValueError("campaign needs at least one device")
        if not self.methods:
            raise ValueError("campaign needs at least one method")
        if not self.n_requests or any(n <= 0 for n in self.n_requests):
            raise ValueError("n_requests axis must be positive")
        if self.limit is not None and self.limit <= 0:
            raise ValueError("limit must be positive (or omitted)")
        # Each device is built once up front — an unknown kind or
        # parameter, or a value its constructor refuses, must be
        # rejected when the spec is loaded, not mid-sweep.
        from .devices import build_device

        for device in (*self.devices, self.source_device):
            try:
                build_device(device.kind, device.params)
            except (ValueError, TypeError) as exc:
                raise ValueError(f"device {device.name!r}: {exc}") from None

    def with_limit(self, limit: int | None) -> "CampaignSpec":
        """Copy with a different point cap (CLI smoke-run override)."""
        return replace(self, limit=limit)

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-able dict form; ``from_dict`` round-trips it exactly."""
        return {
            "name": self.name,
            "action": self.action,
            "description": self.description,
            "workloads": list(self.workloads),
            "devices": [d.to_dict() for d in self.devices],
            "source_device": self.source_device.to_dict(),
            "methods": list(self.methods),
            "n_requests": list(self.n_requests),
            "options": dict(self.options),
            "exclude": [dict(e) for e in self.exclude],
            "limit": self.limit,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from the dict form (as loaded from YAML/JSON)."""
        entry = dict(data)
        unknown = set(entry) - {
            "name", "action", "description", "workloads", "devices", "source_device",
            "methods", "n_requests", "options", "exclude", "limit",
        }
        if unknown:
            raise ValueError(f"unknown campaign spec field(s): {sorted(unknown)}")
        if "name" not in entry:
            raise ValueError("campaign spec needs a 'name'")
        workloads = entry.get("workloads", ["MSNFS"])
        if isinstance(workloads, str):
            workloads = [workloads]
        n_requests = entry.get("n_requests", [4_000])
        if isinstance(n_requests, int):
            n_requests = [n_requests]
        methods = entry.get("methods", ["tracetracker"])
        if isinstance(methods, str):
            methods = [methods]
        return cls(
            name=str(entry["name"]),
            action=str(entry.get("action", "reconstruct")),
            description=str(entry.get("description", "")),
            workloads=tuple(str(w) for w in workloads),
            devices=_device_tuple(entry.get("devices", ["new-node"])),
            source_device=DeviceSpec.from_dict(entry.get("source_device", "old-node")),
            methods=tuple(str(m) for m in methods),
            n_requests=tuple(int(n) for n in n_requests),
            options=dict(entry.get("options", {}) or {}),
            exclude=tuple(dict(e) for e in entry.get("exclude", []) or []),
            limit=entry.get("limit"),
        )


def _spec_from_data(data: Any) -> CampaignSpec:
    if not isinstance(data, Mapping):
        raise ValueError(f"campaign spec must be a mapping, got {type(data).__name__}")
    return CampaignSpec.from_dict(data)


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _load_yaml(text: str) -> Any:
    try:
        import yaml
    except ImportError:  # pragma: no cover - yaml is present in the dev image
        try:
            return _load_json(text)
        except ValueError as exc:
            raise ValueError(
                f"PyYAML is not installed and the spec is not valid JSON ({exc}); "
                "install pyyaml or provide a .json spec"
            ) from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # PyYAML's message spans lines (it quotes the source); keep one.
        mark = getattr(exc, "problem_mark", None)
        if mark is None:
            raise ValueError(" ".join(str(exc).split())) from exc
        what = "; ".join(p for p in (exc.context, exc.problem) if p)
        raise ValueError(f"line {mark.line + 1}, column {mark.column + 1}: {what}") from exc


def loads_spec(text: str) -> CampaignSpec:
    """Parse a campaign spec from YAML (when available) or JSON text.

    Malformed text raises :class:`ValueError` with the parser's message
    on one line, led by the line and column of the problem.
    """
    return _spec_from_data(_load_yaml(text))


def load_spec(path: str | Path) -> CampaignSpec:
    """Load a campaign spec from a ``.yaml``/``.yml``/``.json`` file.

    A ``.json`` file is parsed with :func:`json.loads`, without
    importing :mod:`yaml`; any other file is parsed as :func:`loads_spec`
    parses text.  A malformed file raises :class:`ValueError` naming
    the file and the line of the problem.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        data = _load_json(text) if path.suffix.lower() == ".json" else _load_yaml(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return _spec_from_data(data)
