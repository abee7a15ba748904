"""Deterministic expansion of a campaign spec into grid points.

:func:`expand` resolves the workload selectors, takes the cross-product
of the four axes in a fixed order (workloads, then devices, then
methods, then trace sizes), applies the spec's ``exclude`` filters and
``limit``, and returns a :class:`CampaignPlan` of :class:`RunPoint`\\ s.

Every point has a stable **run key** — a SHA-1 over the canonical JSON
of everything that determines its result (action, options, the point's
axis values, and the source-device description).  Run keys are the unit
of checkpointing: the engine records each completed key on disk, and a
resumed campaign recomputes exactly the keys that are missing.  The
campaign *name* is deliberately not part of the key, so renaming a spec
(or running two specs that share grid points into the same output
directory) reuses completed work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from ..workloads.catalog import get_spec, workload_names
from .spec import CampaignSpec, DeviceSpec

__all__ = ["CampaignPlan", "RunPoint", "expand", "resolve_workloads", "run_key"]


@dataclass(frozen=True)
class RunPoint:
    """One grid point: a (workload, device, method, size) combination."""

    workload: str
    device: DeviceSpec
    method: str
    n_requests: int

    def axis_values(self) -> dict[str, Any]:
        """The point's coordinates, keyed by axis name."""
        return {
            "workload": self.workload,
            "device": self.device.name,
            "method": self.method,
            "n_requests": self.n_requests,
        }


def resolve_workloads(selectors: tuple[str, ...]) -> tuple[str, ...]:
    """Expand workload selectors into concrete catalog names.

    ``"all"`` is the whole Table I catalog; ``"family:FIU"`` (or
    ``MSPS``/``MSRC``) one collection family; anything else must be a
    catalog name (validated eagerly so typos fail at planning time,
    not three chunks into a run).  Order is preserved, duplicates are
    dropped.
    """
    out: list[str] = []
    for selector in selectors:
        if selector == "all":
            names: tuple[str, ...] = workload_names()
        elif selector.startswith("family:"):
            names = workload_names(selector.split(":", 1)[1])
        else:
            get_spec(selector)  # raises KeyError with the catalog listing
            names = (selector,)
        for name in names:
            if name not in out:
                out.append(name)
    return tuple(out)


def run_key(spec: CampaignSpec, point: RunPoint) -> str:
    """Stable content key for one grid point's result.

    Covers the action, the shared options, the source device, and the
    point's full description (including device parameters, not just
    its display name) — everything :func:`~repro.campaign.engine.
    run_point` reads.  Campaign name and description are excluded on
    purpose; see the module docstring.
    """
    payload = {
        "action": spec.action,
        "options": spec.options,
        "source_device": spec.source_device.to_dict(),
        "workload": point.workload,
        "device": point.device.to_dict(),
        "method": point.method,
        "n_requests": point.n_requests,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:20]


def _excluded(point: RunPoint, filters: tuple[dict[str, Any], ...]) -> bool:
    values = point.axis_values()
    for entry in filters:
        if entry and all(values.get(axis) == wanted for axis, wanted in entry.items()):
            return True
    return False


@dataclass(frozen=True)
class CampaignPlan:
    """The expanded, filtered grid of a campaign."""

    spec: CampaignSpec
    points: tuple[RunPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def keys(self) -> list[str]:
        """Run keys in plan order."""
        return [run_key(self.spec, point) for point in self.points]

    def trace_groups(self, indices: list[int] | None = None) -> list[list[int]]:
        """Point indices grouped by the OLD trace they share, in plan order.

        Points with the same ``(workload, n_requests)`` share the trace
        the source device collects and the model fitted to it.
        ``indices`` restricts the grouping to a subset; the default is
        every point.
        """
        pool = range(len(self.points)) if indices is None else sorted(indices)
        groups: dict[tuple[str, int], list[int]] = {}
        for index in pool:
            point = self.points[index]
            groups.setdefault((point.workload, point.n_requests), []).append(index)
        return list(groups.values())

    def chunks(self, chunk_size: int, indices: list[int] | None = None) -> list[list[int]]:
        """Split point indices into trace-affine chunks of at most ``chunk_size``.

        The supervised workers' unit of dispatch: chunks are queued and
        pulled by whichever worker frees up first, so one
        pathologically slow point delays only its own chunk.
        ``indices`` restricts the split to a subset (the engine passes
        the still-pending points of a resumed campaign); the default is
        every point.

        The points of one :meth:`trace_groups` group travel together:
        the groups are queued by descending summed ``n_requests``
        (largest work first, plan order breaking ties), each group is
        cut into pieces of at most ``chunk_size``, every group's first
        piece is queued before any group's second piece, and
        consecutive pieces are packed into one chunk while it holds at
        most ``chunk_size`` points.  A group that fits a chunk is
        therefore generated and fitted by one worker, and its points
        keep their plan order, which keeps the finer per-process memo
        of actions like ``method_gap`` warm.  Empty chunks cannot occur.
        """
        if chunk_size < 1:
            raise ValueError("chunk size must be at least 1")
        ordered = sorted(
            self.trace_groups(indices),
            key=lambda group: -sum(self.points[i].n_requests for i in group),
        )
        longest = max((len(group) for group in ordered), default=0)
        out: list[list[int]] = []
        for start in range(0, longest, chunk_size):
            for group in ordered:
                piece = group[start : start + chunk_size]
                if not piece:
                    continue
                if out and len(out[-1]) + len(piece) <= chunk_size:
                    out[-1].extend(piece)
                else:
                    out.append(piece)
        return out


def expand(spec: CampaignSpec) -> CampaignPlan:
    """Cross-product expansion with filters: the campaign's plan."""
    workloads = resolve_workloads(spec.workloads)
    points = [
        RunPoint(workload=w, device=d, method=m, n_requests=n)
        for w in workloads
        for d in spec.devices
        for m in spec.methods
        for n in spec.n_requests
    ]
    points = [p for p in points if not _excluded(p, spec.exclude)]
    if spec.limit is not None:
        points = points[: spec.limit]
    if not points:
        raise ValueError(f"campaign {spec.name!r} expands to zero grid points")
    return CampaignPlan(spec=spec, points=tuple(points))
