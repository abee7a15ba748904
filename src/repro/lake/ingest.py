"""Directory-tree ingestion: build (or rebuild) the catalog from disk.

The lake's core invariant is that the catalog is a **rebuildable
index**: every row is derivable from the flat files, so
:func:`ingest_tree` over a directory tree reconstructs exactly what
live producers recorded — the crash-consistency suite asserts the two
byte-equivalent via :meth:`~repro.lake.catalog.LakeCatalog.dump_rows`.

Two artifact shapes are recognised:

- **campaign output directories** — anything holding a ``spec.json``.
  The spec is expanded, the ``runs/`` segments are scanned with the
  engine's own resume scanner (torn lines skipped), and every
  completed point is upserted through
  the same :func:`record_campaign_point` the engine's workers call
  live.  ``results.npz``/``results.csv`` aggregates become ``results``
  artifacts.
- **binary trace-store entries** — any ``.npz`` that loads as a trace
  store file.  Entries named by the store's content-key pattern also
  get a ``store:<key>`` reference edge.

Everything is walked in sorted path order and recorded through
idempotent upserts, so re-ingesting (after a crash, or over a half-
ingested tree) converges instead of duplicating.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

from ..campaign.plan import expand
from ..campaign.spec import CampaignSpec
from ..trace.io.store import TraceStoreError, load_trace_npz
from .catalog import LakeCatalog, spec_fingerprint

__all__ = ["IngestReport", "ingest_tree", "ingest_campaign_dir", "record_campaign_point"]

#: Filename shape of a binary trace-store entry (``v1-<sha1>.npz``).
_STORE_ENTRY = re.compile(r"^v(\d+)-([0-9a-f]{40})\.npz$")


class IngestReport(dict):
    """Ingestion counters (a plain dict with a stable line renderer)."""

    def lines(self) -> list[str]:
        """One ``name: count`` line per counter, name-sorted."""
        return [f"{name}: {self[name]}" for name in sorted(self)]


def _queue_depth_of(spec: CampaignSpec, device_name: str) -> float | None:
    """The queue depth a grid point ran at, if the spec pins one.

    Checked in the device's parameters first (a per-device override),
    then the campaign's shared options.  ``None`` when neither names
    one — the catalog column stays NULL and depth filters skip the row.
    """
    for device in spec.devices:
        if device.name == device_name and "queue_depth" in device.params:
            return float(device.params["queue_depth"])
    value = spec.options.get("queue_depth")
    return float(value) if value is not None else None


def record_campaign_point(
    catalog: LakeCatalog,
    spec: CampaignSpec,
    run_key: str,
    row: dict[str, Any],
    wall_s: float | None = None,
    source_dir: str | Path | None = None,
    checkpoint_file: str | None = None,
) -> None:
    """Upsert one completed grid point, engine-side and rescan-side.

    This is the single write path for ``campaign_points`` rows: the
    engine's workers call it the moment a point checkpoints, and
    :func:`ingest_campaign_dir` calls it for every checkpoint it finds
    on disk — both deriving every column the same way, which is what
    makes a rescan byte-equivalent to the live recording.
    """
    device_name = str(row.get("device", ""))
    kinds = {d.name: d.kind for d in spec.devices}
    catalog.record_point(
        run_key=run_key,
        spec_fp=spec_fingerprint(spec.to_dict()),
        campaign=spec.name,
        action=spec.action,
        row=row,
        device_kind=kinds.get(device_name, ""),
        queue_depth=_queue_depth_of(spec, device_name),
        source_dir=str(Path(source_dir).resolve()) if source_dir is not None else None,
        checkpoint_file=checkpoint_file,
        wall_s=wall_s,
    )


def ingest_campaign_dir(catalog: LakeCatalog, out_dir: str | Path) -> IngestReport:
    """Catalog one campaign output directory (``spec.json`` + ``runs/``)."""
    from ..campaign.engine import _scan_checkpoints_meta

    out_dir = Path(out_dir)
    spec = CampaignSpec.from_dict(
        json.loads((out_dir / "spec.json").read_text(encoding="utf-8"))
    )
    plan = expand(spec)
    meta = _scan_checkpoints_meta(out_dir, plan.keys())
    for run_key in sorted(meta):
        row, wall_s, checkpoint_file = meta[run_key]
        record_campaign_point(
            catalog,
            spec,
            run_key,
            row,
            wall_s=wall_s,
            source_dir=out_dir,
            checkpoint_file=checkpoint_file,
        )
    report = IngestReport(points=len(meta), results=0)
    for name in ("results.npz", "results.csv"):
        path = out_dir / name
        if path.exists():
            catalog.record_artifact(
                "results", path, ref=f"campaign:{spec.name}", meta={"campaign": spec.name}
            )
            report["results"] += 1
    return report


def ingest_tree(catalog: LakeCatalog, root: str | Path) -> IngestReport:
    """Walk ``root`` and catalog everything recognisable under it.

    Directories holding a ``spec.json`` ingest as campaigns; every
    other ``.npz`` that loads as a trace-store file ingests as a trace
    artifact.  Unreadable or foreign files are counted as ``skipped``,
    never fatal — a lake directory tree routinely holds reports, logs,
    and half-written temp files.
    """
    root = Path(root)
    report = IngestReport(campaigns=0, points=0, results=0, traces=0, skipped=0)
    if root.is_file():
        _ingest_trace_file(catalog, root, report)
        return report
    campaign_dirs = sorted(p.parent for p in root.rglob("spec.json"))
    for out_dir in campaign_dirs:
        try:
            sub = ingest_campaign_dir(catalog, out_dir)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            report["skipped"] += 1
            continue
        report["campaigns"] += 1
        report["points"] += sub["points"]
        report["results"] += sub["results"]
    for path in sorted(root.rglob("*.npz")):
        if path.name == "results.npz" and (path.parent / "spec.json").exists():
            continue  # already cataloged as a results artifact
        _ingest_trace_file(catalog, path, report)
    return report


def _ingest_trace_file(catalog: LakeCatalog, path: Path, report: IngestReport) -> None:
    """Catalog one candidate trace file into ``report`` (never raises)."""
    try:
        trace = load_trace_npz(path)
    except (TraceStoreError, OSError):
        report["skipped"] = report.get("skipped", 0) + 1
        return
    match = _STORE_ENTRY.match(path.name)
    ref = f"store:{match.group(2)}" if match else None
    catalog.record_trace(path, trace, ref=ref)
    report["traces"] = report.get("traces", 0) + 1
