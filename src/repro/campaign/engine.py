"""Resumable, parallel execution of campaign plans.

:class:`CampaignEngine` turns a :class:`~repro.campaign.spec.
CampaignSpec` into a :class:`~repro.campaign.results.ResultsTable`:

1. the plan is expanded (:func:`~repro.campaign.plan.expand`) and every
   point's run key computed;
2. keys already checkpointed under ``<out_dir>/runs/`` are loaded back
   instead of recomputed — an interrupted campaign resumes for free;
3. the remaining points run inline in this process, in plan order, at
   ``jobs=1`` with no chaos injection, and otherwise as trace-affine
   chunks (:meth:`~repro.campaign.plan.CampaignPlan.chunks`: the points
   that share an OLD trace travel together, largest groups first)
   pulled by the worker processes of a
   :class:`~repro.campaign.supervise.SupervisedExecutor` (heartbeats,
   lease reclaim, respawn); either way the binary trace store is
   shared, so each catalog trace is materialised once and
   memory-mapped by every worker;
4. every completed point is checkpointed *as it finishes* (one flushed
   segment line per run key), so a kill mid-run loses at most the
   points in flight;
5. rows are reassembled in plan order and aggregated column-wise; with
   an output directory set, ``results.csv`` and ``report.md`` are
   written alongside the checkpoints (and removed when a run starts
   computing, so only a finished run leaves them).

Actions — what actually runs at a grid point — are small functions over
the existing pipeline: they collect catalog traces through
:func:`~repro.workloads.materialize.collect_trace_cached`, build
OLD/NEW pairs through :func:`~repro.experiments.pairs.build_pair_for`,
reconstruct with :mod:`~repro.core.baselines` methods, and summarise
with :mod:`~repro.metrics`.  The figure sweeps in
:mod:`repro.experiments.figures` are these actions under fixed specs,
which is what keeps the campaign path bit-identical to the historical
per-figure loops.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, TextIO

import numpy as np

from ..core.baselines import (
    Acceleration,
    Dynamic,
    FixedThreshold,
    ReconstructionMethod,
    Revision,
    TraceTrackerMethod,
)
from ..core.stages import span_speedup
from ..inference.idle import extract_idle
from ..metrics.breakdown import average_idle_us, idle_breakdown
from ..metrics.comparison import intt_gap_stats
from ..perf import PerfRecorder
from ..workloads.catalog import STAMPED_FAMILIES, get_spec
from ..workloads.generator import WorkloadSpec
from ..workloads.materialize import collect_trace_cached
from .plan import CampaignPlan, RunPoint, expand
from .results import ResultsTable
from .spec import CampaignSpec
from .supervise import (
    QUARANTINED,
    ChaosInjector,
    Resilience,
    SupervisedExecutor,
    run_point_resilient,
)

__all__ = [
    "CampaignEngine",
    "CampaignResult",
    "resolve_method",
    "run_campaign",
    "run_point",
]

def resolve_method(text: str) -> ReconstructionMethod:
    """Parse a campaign method string into a reconstruction method.

    ``tracetracker``, ``dynamic`` and ``revision`` take no argument;
    ``acceleration:<factor>`` and ``fixed-th:<threshold_us>`` carry
    their parameter after a colon (defaults: the paper's 100x and
    10 000 µs).
    """
    base, _, arg = text.strip().partition(":")
    base = base.strip().lower()
    if base == "tracetracker":
        return TraceTrackerMethod()
    if base == "dynamic":
        return Dynamic()
    if base == "revision":
        return Revision()
    if base == "acceleration":
        return Acceleration(float(arg) if arg else 100.0)
    if base in ("fixed-th", "fixed_threshold"):
        return FixedThreshold(float(arg) if arg else 10_000.0)
    raise ValueError(
        f"unknown method {text!r}; use tracetracker, dynamic, revision, "
        f"acceleration:<factor>, or fixed-th:<threshold_us>"
    )


def _device_times_auto(options: dict[str, Any], wspec: WorkloadSpec) -> bool:
    """Resolve the ``device_times`` option for a direct collection.

    ``auto`` follows the family: stamped for MSPS and MSRC
    (:data:`~repro.workloads.catalog.STAMPED_FAMILIES`).
    """
    value = options.get("device_times", "auto")
    if value == "auto":
        return wspec.category in STAMPED_FAMILIES
    return bool(value)


def _build_pair(spec: CampaignSpec, point: RunPoint):
    """OLD/NEW pair for a grid point (campaign devices, shared intents)."""
    # Imported lazily: ``repro.experiments`` imports the campaign
    # package at module level (the figure sweeps are campaign specs),
    # so the reverse import must happen at call time.
    from ..experiments.pairs import build_pair_for

    value = spec.options.get("device_times", "auto")
    old_has_device_times = None if value == "auto" else bool(value)
    return build_pair_for(
        point.workload,
        n_requests=point.n_requests,
        old_has_device_times=old_has_device_times,
        old_device=spec.source_device.build(),
        new_device=point.device.build(),
    )


# ----------------------------------------------------------------------
# Actions
# ----------------------------------------------------------------------


def _action_idle(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """Collect the workload on the point's device and profile its idle.

    The Figure 16/17 computation: idle extraction on the OLD trace,
    average idle above ``min_idle_us``, and the Tslat/0-10ms/10-100ms/
    >100ms frequency and period buckets.
    """
    wspec = get_spec(point.workload).scaled(point.n_requests)
    old = collect_trace_cached(
        wspec,
        point.device.build(),
        record_device_times=_device_times_auto(spec.options, wspec),
    )
    extraction = extract_idle(old)
    min_idle_us = float(spec.options.get("min_idle_us", 0.0))
    breakdown = idle_breakdown(extraction, min_idle_us=min_idle_us)
    row: dict[str, Any] = {
        "category": wspec.category,
        "avg_idle_us": average_idle_us(extraction, min_idle_us=min_idle_us),
        "idle_frequency": breakdown.idle_frequency(),
        "idle_period": breakdown.idle_period(),
    }
    for bucket, value in breakdown.frequency.items():
        row[f"freq_{bucket}"] = value
    for bucket, value in breakdown.period.items():
        row[f"period_{bucket}"] = value
    return row


def _action_target_diff(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """Reconstruct onto the point's device; gap stats vs the OLD trace.

    The Figure 14 computation: how far the reconstruction's
    inter-arrival times sit from the trace it was derived from.
    """
    pair = _build_pair(spec, point)
    method = resolve_method(point.method)
    reconstructed = method.reconstruct(pair.old, point.device.build())
    stats = intt_gap_stats(pair.old, reconstructed)
    return {
        "category": get_spec(point.workload).category,
        "method_name": method.name,
        "avg_diff_us": stats["mean_us"],
        "max_diff_us": stats["max_us"],
        "signed_avg_us": stats["mean_signed_us"],
    }


#: Memo of (OLD trace, reference reconstruction) per method_gap grid
#: column.  The method axis varies fastest in plan order, so without
#: this every method point would rebuild the pair and re-reconstruct
#: the reference the historical figure loop computed once per
#: workload.  Everything cached here is deterministic in its key, and
#: the memo is bounded: at most one entry per distinct (workload,
#: device, size) combination seen by this process.
_METHOD_GAP_MEMO: dict[str, tuple[Any, Any]] = {}
_METHOD_GAP_MEMO_CAP = 256


def _method_gap_context(spec: CampaignSpec, point: RunPoint, reference_name: str):
    """The shared (pair, reference trace) for a method_gap point."""
    memo_key = json.dumps(
        {
            "reference": reference_name,
            "workload": point.workload,
            "device": point.device.to_dict(),
            "source_device": spec.source_device.to_dict(),
            "n_requests": point.n_requests,
            "device_times": spec.options.get("device_times", "auto"),
        },
        sort_keys=True,
    )
    hit = _METHOD_GAP_MEMO.get(memo_key)
    if hit is not None:
        return hit
    pair = _build_pair(spec, point)
    ref_trace = resolve_method(reference_name).reconstruct(pair.old, point.device.build())
    if len(_METHOD_GAP_MEMO) >= _METHOD_GAP_MEMO_CAP:
        _METHOD_GAP_MEMO.clear()
    _METHOD_GAP_MEMO[memo_key] = (pair, ref_trace)
    return pair, ref_trace


def _action_method_gap(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """Gap between the point's method and a reference reconstruction.

    The Figure 13 computation: both methods reconstruct the same OLD
    trace onto the same target; the row reports their inter-arrival
    distance.  The reference defaults to TraceTracker (option
    ``reference``) and is computed once per (workload, device, size)
    column, not once per method point.
    """
    reference = resolve_method(str(spec.options.get("reference", "tracetracker")))
    pair, ref_trace = _method_gap_context(spec, point, reference.name)
    method = resolve_method(point.method)
    rec_trace = method.reconstruct(pair.old, point.device.build())
    stats = intt_gap_stats(rec_trace, ref_trace)
    return {
        "category": get_spec(point.workload).category,
        "method_name": method.name,
        "reference": reference.name,
        "gap_mean_us": stats["mean_us"],
        "gap_max_us": stats["max_us"],
    }


def _action_reconstruct(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """The general sweep action: collect on the source, remaster on the
    point's device, report span/speedup/inter-arrival summaries."""
    wspec = get_spec(point.workload).scaled(point.n_requests)
    old = collect_trace_cached(
        wspec,
        spec.source_device.build(),
        record_device_times=_device_times_auto(spec.options, wspec),
    )
    method = resolve_method(point.method)
    new = method.reconstruct(old, point.device.build())
    old_duration = float(old.duration)
    new_duration = float(new.duration)
    return {
        "category": wspec.category,
        "method_name": method.name,
        "old_duration_us": old_duration,
        "new_duration_us": new_duration,
        "speedup": span_speedup(old_duration, new_duration),
        "median_intt_old_us": float(np.median(old.inter_arrival_times())),
        "median_intt_new_us": float(np.median(new.inter_arrival_times())),
    }


def _action_synthetic(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """Deterministic spin action for execution benchmarks and tests.

    Burns CPU proportional to ``n_requests`` (``iters_per_request``
    option, default 50) and returns a value that depends only on the
    iteration count — no traces, no devices, no wall clock — so
    execution experiments can build grids with *known, skewed* point
    costs and still assert bitwise-equal results across job counts,
    execution paths, and resume boundaries.
    """
    iters = int(spec.options.get("iters_per_request", 50)) * point.n_requests
    acc = 0.0
    for i in range(iters):
        acc += (i % 7) * 1e-3
    return {"category": "SYNTH", "iters": iters, "value": acc}


_ACTIONS: dict[str, Callable[[CampaignSpec, RunPoint], dict[str, Any]]] = {
    "reconstruct": _action_reconstruct,
    "idle": _action_idle,
    "target_diff": _action_target_diff,
    "method_gap": _action_method_gap,
    "synthetic": _action_synthetic,
}


def run_point(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """Execute one grid point; returns its flat, JSON-able result row."""
    row = dict(point.axis_values())
    row.update(_ACTIONS[spec.action](spec, point))
    return row


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
#
# Each process appends completed points to its own
# ``<out_dir>/runs/segment-<pid>-<n>.jsonl`` file, one self-contained
# JSON line per point, flushed per line: one open file per worker, so
# checkpoint overhead stays flat on large grids.  Crash-safe by
# construction: a kill can only tear the final line, and the resume
# scan skips any line that does not parse.  Append-only — a resumed
# campaign opens a fresh segment and never rewrites an old one.  Any
# other file under ``runs/`` (such as a per-point ``<key>.json`` an
# older version wrote) is not a checkpoint: it is never read, moved or
# deleted, and its point is recomputed.

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"


class _SegmentWriter:
    """Append-only checkpoint segment for one process.

    The file is created lazily on the first append, with an
    ``O_EXCL`` claim on the first free ``segment-<pid>-<n>.jsonl``
    name, so concurrent workers (distinct pids) and sequential
    resumed runs (same pid, bumped ``<n>``) never share a segment.
    Every appended line is flushed immediately: after a kill the file
    holds every completed point, at worst plus one torn final line the
    resume scan discards.
    """

    def __init__(self, out_dir: Path) -> None:
        self._dir = out_dir / "runs"
        self._handle: TextIO | None = None
        self.path: Path | None = None

    def _open(self) -> TextIO:
        self._dir.mkdir(parents=True, exist_ok=True)
        n = 0
        while True:
            path = self._dir / f"{_SEGMENT_PREFIX}{os.getpid()}-{n}{_SEGMENT_SUFFIX}"
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                n += 1
                continue
            self.path = path
            return os.fdopen(fd, "w", encoding="utf-8")

    def append(self, key: str, row: dict[str, Any], wall_s: float | None = None) -> None:
        """Record one completed run key (one flushed JSON line).

        ``wall_s`` — the point's measured compute time — rides along in
        the line when given, so a campaign directory alone says how long
        each point took.  Scanners ignore unknown fields, so old and new
        lines mix freely in a directory.
        """
        if self._handle is None:
            self._handle = self._open()
        payload: dict[str, Any] = {"key": key, "row": row}
        if wall_s is not None:
            payload["wall_s"] = wall_s
        self._handle.write(json.dumps(payload) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the segment (a no-op when nothing was appended)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _degraded_note(out_dir: Path | None, message: str) -> None:
    """Append one line to the campaign's degradation log (best-effort).

    ``degraded.log`` is the visible trail of what the engine survived
    instead of raising (quarantined corrupt checkpoint files), and
    :class:`CampaignEngine` reports its line count as
    :attr:`CampaignResult.n_degraded`.  A failure to log must itself
    never fail the campaign.
    """
    if out_dir is None:
        return
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "degraded.log", "a", encoding="utf-8") as handle:
            handle.write(message.rstrip("\n") + "\n")
    except OSError:
        pass


def _quarantine_file(path: Path, out_dir: Path | None = None, reason: str = "") -> bool:
    """Rename a corrupt artifact to ``<name>.bad`` (best-effort).

    The sidecar name keeps the bytes around for a post-mortem while
    taking the file out of the segment scan pattern (``.jsonl``), so
    the next resume or rebuild recomputes instead of raising.
    Returns whether the rename happened (a read-only tree degrades to
    skip-in-place).
    """
    target = path.with_name(path.name + ".bad")
    try:
        os.replace(path, target)
    except OSError:
        return False
    _degraded_note(
        out_dir, f"quarantined corrupt checkpoint {path.name} -> {target.name}: {reason}"
    )
    return True


def _valid_row(data: Any) -> dict[str, Any] | None:
    """The checkpoint payload's row, or ``None`` when malformed."""
    if not isinstance(data, dict) or "row" not in data:
        return None
    row = data["row"]
    return row if isinstance(row, dict) and isinstance(data.get("key"), str) else None


def _scan_checkpoints(out_dir: Path, keys: list[str]) -> dict[str, dict[str, Any]]:
    """All checkpointed rows for ``keys``, one directory scan.

    Reads every segment file under ``runs/``.  Torn or malformed lines
    (a crash mid-append) are skipped, so those points simply recompute;
    a segment in which not one line decodes is quarantined whole.

    When a key appears more than once (e.g. a ``--no-resume`` rerun
    after a code change appended fresh lines), the row from the newest
    segment wins — file mtime, with filename as the tiebreak and later
    lines beating earlier ones inside a segment.
    """
    runs_dir = out_dir / "runs"
    try:
        with os.scandir(runs_dir) as it:
            entries = {
                e.name: e.stat().st_mtime_ns
                for e in it
                if e.name.startswith(_SEGMENT_PREFIX)
                and e.name.endswith(_SEGMENT_SUFFIX)
                and e.is_file()
            }
    except OSError:
        return {}
    wanted = set(keys)
    best: dict[str, dict[str, Any]] = {}
    for name in sorted(entries, key=lambda name: (entries[name], name)):
        try:
            text = (runs_dir / name).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            # Not even text: bad disk or foreign bytes.  Quarantine the
            # whole file; its points recompute.
            _quarantine_file(runs_dir / name, out_dir, "undecodable bytes")
            continue
        except OSError:
            continue
        parsed_any = False
        for line in text.splitlines():
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line of a killed worker
            parsed_any = True
            row = _valid_row(data)
            if row is not None and data["key"] in wanted:
                best[data["key"]] = row
        if text.strip() and not parsed_any:
            # Not one line decodes: the segment is corrupt from byte 0
            # (bad disk, torn single-row file), not merely torn at the
            # tail.  Quarantine it so its points recompute.
            _quarantine_file(runs_dir / name, out_dir, "no decodable segment lines")
    return best


def _complete_point(
    spec: CampaignSpec,
    plan: CampaignPlan,
    index: int,
    key: str,
    segment: _SegmentWriter | None,
    resilience: Resilience | None,
    injector: ChaosInjector | None,
) -> dict[str, Any]:
    """Run one grid point to completion; returns its row.

    The one per-point body, shared by the inline loop and the
    supervised workers.  With no resilience configured the point's
    exception propagates and fails the run; with one, transient
    failures retry with backoff and exhausted/permanent failures come
    back as quarantine rows (see :func:`~repro.campaign.supervise.
    run_point_resilient`).  The row is then appended to ``segment``
    (``None`` when the campaign has no output directory) with its
    measured wall time, and the post-checkpoint chaos hook fires.
    ``run_point`` is resolved through the module at call time so test
    instrumentation (and hot patching) of ``engine.run_point`` is
    honoured.
    """
    start = time.perf_counter()
    point = plan.points[index]
    if resilience is None:
        row = run_point(spec, point)
    else:
        row = run_point_resilient(run_point, spec, point, index, key, resilience, injector)
    wall_s = round(time.perf_counter() - start, 6)
    checkpoint_path: Path | None = None
    if segment is not None:
        segment.append(key, row, wall_s=wall_s)
        checkpoint_path = segment.path
    if injector is not None:
        injector.after_checkpoint(index, checkpoint_path)
    return row


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignResult:
    """What one engine run produced (and how much of it was reused).

    ``n_resumed`` counts points loaded back from this directory's own
    checkpoints.  ``n_quarantined`` counts rows carrying ``status:
    "quarantined"`` (points that exhausted their retry budget);
    ``n_degraded`` counts the ``degraded.log`` lines — failures the run
    absorbed (quarantined corrupt checkpoint files) instead of
    raising.  ``supervision`` holds the supervised executor's
    dead/hung/respawned/reclaimed counters (``None`` when the points
    ran inline, or when nothing was left to compute).
    """

    table: ResultsTable
    plan: CampaignPlan
    n_computed: int
    n_resumed: int
    out_dir: Path | None
    n_quarantined: int = 0
    n_degraded: int = 0
    supervision: dict[str, int] | None = None


class CampaignEngine:
    """Plans, runs, checkpoints, and aggregates one campaign.

    Pending points take one of two execution paths, chosen from the
    inputs: inline in the calling process when ``jobs == 1`` and no
    chaos injection is set, and the
    :class:`~repro.campaign.supervise.SupervisedExecutor` otherwise.
    The supervised path queues the points as small chunks that idle
    workers pull, so a slow point delays only its own chunk; the points
    that share an OLD trace (same workload and size) ride in one chunk
    where they fit, so one worker generates the trace and fits its
    model once for all of them;
    every worker beats a heartbeat file at each point boundary, and the
    parent reclaims a dead worker's leased chunk (salvaging its
    checkpointed points) and respawns a replacement up to
    ``respawn_budget``.  Chaos runs supervised even at ``jobs=1``, so
    an injected kill never takes the parent down.  Both paths produce
    identical rows and identical segment lines, so a campaign resumes
    on either path (run keys do not know how points ran).

    Parameters
    ----------
    spec:
        The campaign to run.
    out_dir:
        Output/checkpoint directory.  ``None`` (the in-process mode the
        figure sweeps use) computes everything in memory with no disk
        traffic.
    jobs:
        Worker processes; more than one runs the supervised path.
    use_trace_store / trace_store_dir:
        Materialise catalog traces once into the binary trace store and
        memory-map them from every worker (same semantics as
        ``repro-report``).
    resume:
        Load checkpointed run keys instead of recomputing them
        (default).  ``False`` ignores — but does not delete — existing
        checkpoints.
    resilience:
        Optional :class:`~repro.campaign.supervise.Resilience` — the
        per-point fault policy (retry/backoff on transient failures,
        wall-clock point timeouts, poison-point quarantine, chaos
        injection).  ``None`` (default) keeps the historical contract:
        a grid point's exception propagates and fails the run, on
        either path.
    hang_timeout_s / respawn_budget:
        Supervised-path knobs: the heartbeat staleness that declares a
        worker hung (must exceed the slowest legitimate point; ``None``,
        the default, sets no deadline), and the total replacement
        workers the run may spawn (non-negative; default ``2 * jobs``).
    perf:
        Optional :class:`~repro.perf.PerfRecorder`; when given, the
        engine times its ``plan``/``resume_scan``/``compute``/
        ``aggregate`` phases into it.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        out_dir: str | Path | None = None,
        jobs: int = 1,
        use_trace_store: bool = False,
        trace_store_dir: str | Path | None = None,
        resume: bool = True,
        perf: "PerfRecorder | None" = None,
        resilience: "Resilience | None" = None,
        hang_timeout_s: float | None = None,
        respawn_budget: int | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if hang_timeout_s is not None and not hang_timeout_s > 0:
            raise ValueError("hang_timeout_s must be positive")
        if hang_timeout_s is not None and math.isinf(hang_timeout_s):
            raise ValueError("hang_timeout_s must be finite")
        if respawn_budget is not None and respawn_budget < 0:
            raise ValueError("respawn_budget must be non-negative")
        self.spec = spec
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.jobs = jobs
        self.use_trace_store = use_trace_store
        self.trace_store_dir = trace_store_dir
        self.resume = resume
        self.perf = perf if perf is not None else PerfRecorder(enabled=False)
        #: The run's chaos injector (``None`` when chaos-free); its
        #: fire-once markers live under ``<out_dir>/.chaos``.
        self.injector: ChaosInjector | None = None
        if (
            resilience is not None
            and resilience.chaos is not None
            and resilience.chaos.injections
        ):
            if self.out_dir is None:
                raise ValueError(
                    "chaos injection needs an out_dir (fire-once markers live there)"
                )
            if (
                any(kind == "hang" for kind, _ in resilience.chaos.injections)
                and hang_timeout_s is None
                and resilience.point_timeout_s is None
            ):
                raise ValueError(
                    "chaos hang injection needs hang_timeout_s or a point timeout "
                    "to recover from (the injected hang sleeps for an hour)"
                )
            self.injector = ChaosInjector(resilience.chaos, self.out_dir / ".chaos")
        self.resilience = resilience
        self.hang_timeout_s = hang_timeout_s
        self.respawn_budget = respawn_budget

    def run(self, log: TextIO | None = None) -> CampaignResult:
        """Execute the campaign; returns the aggregated results.

        Raises whatever a grid point raises, on either execution path
        — by then every point that finished before the failure is
        already checkpointed, so rerun to resume.  A run that computes
        anything removes the previous aggregate first, so an
        interrupted run leaves checkpoints only.
        """
        from ..trace.io.cache import TraceStore, get_default_store, set_default_store

        with self.perf.stage("plan"):
            plan = expand(self.spec)
            keys = plan.keys()
        completed: dict[str, dict[str, Any]] = {}
        if self.out_dir is not None and self.resume:
            with self.perf.stage("resume_scan"):
                completed = _scan_checkpoints(self.out_dir, keys)
        pending = [i for i, key in enumerate(keys) if key not in completed]
        n_resumed = len(plan) - len(pending)
        if log is not None:
            log.write(
                f"[campaign] {self.spec.name}: {len(plan)} point(s), "
                f"{n_resumed} checkpointed, {len(pending)} to compute "
                f"(jobs={self.jobs})\n"
            )
        if self.out_dir is not None:
            # Even a zero-compute run (everything resumed) writes
            # outputs below, so the directory must exist and be
            # self-describing: spec.json is what `repro-campaign
            # report` recognises a campaign by.
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._write_spec_once()
            if pending:
                # The aggregate is rewritten only once every point is
                # in.  An earlier run's table left in place would
                # outlive this run's interruption and pass for the
                # campaign's result.
                for name in ("results.csv", "report.md"):
                    (self.out_dir / name).unlink(missing_ok=True)
        supervision: dict[str, int] | None = None
        if pending:
            # The inline loop and the forked workers both read the
            # default store, so installing it here shares it with both.
            previous_store = get_default_store()
            if self.use_trace_store:
                set_default_store(TraceStore(root=self.trace_store_dir, enabled=True))
            start = time.perf_counter()
            try:
                with self.perf.stage("compute"):
                    if self.jobs == 1 and self.injector is None:
                        self._run_inline(plan, keys, pending, completed)
                    else:
                        supervision = self._run_supervised(plan, keys, pending, completed)
            finally:
                if self.use_trace_store:
                    set_default_store(previous_store)
            note = ""
            if supervision is not None:
                for name, value in supervision.items():
                    self.perf.count(f"supervise_{name}", value)
                note = (
                    f" (dead={supervision['dead']}, hung={supervision['hung']}, "
                    f"respawned={supervision['respawned']})"
                )
            if log is not None:
                log.write(
                    f"[campaign] computed {len(pending)} point(s) in "
                    f"{time.perf_counter() - start:.1f}s{note}\n"
                )
        with self.perf.stage("aggregate"):
            table = ResultsTable.from_rows([completed[key] for key in keys])
            if self.out_dir is not None:
                self._write_outputs(table, n_resumed=n_resumed, n_computed=len(pending))
        n_quarantined = sum(
            1 for key in keys if completed[key].get("status") == QUARANTINED
        )
        n_degraded = self._count_degraded()
        if log is not None and (n_quarantined or n_degraded):
            log.write(
                f"[campaign] degraded finish: {n_quarantined} quarantined point(s), "
                f"{n_degraded} degradation event(s) — see "
                f"{'degraded.log in ' + str(self.out_dir) if self.out_dir else 'log'}\n"
            )
        return CampaignResult(
            table=table,
            plan=plan,
            n_computed=len(pending),
            n_resumed=n_resumed,
            out_dir=self.out_dir,
            n_quarantined=n_quarantined,
            n_degraded=n_degraded,
            supervision=supervision,
        )

    def _run_inline(
        self,
        plan: CampaignPlan,
        keys: list[str],
        pending: list[int],
        completed: dict[str, dict[str, Any]],
    ) -> None:
        """Compute the pending points one by one in this process."""
        segment = _SegmentWriter(self.out_dir) if self.out_dir is not None else None
        try:
            for index in pending:
                completed[keys[index]] = _complete_point(
                    self.spec, plan, index, keys[index], segment, self.resilience, None
                )
        finally:
            if segment is not None:
                segment.close()

    def _run_supervised(
        self,
        plan: CampaignPlan,
        keys: list[str],
        pending: list[int],
        completed: dict[str, dict[str, Any]],
    ) -> dict[str, int]:
        """Execute the pending points under the supervised executor.

        Chunks are trace-affine (:meth:`~repro.campaign.plan.
        CampaignPlan.chunks`, largest trace groups first).  A chunk
        holds 1/(4*jobs) of the pending points (about four chunks per
        worker bound the tail), or the largest pending trace group if
        that is larger, so one worker generates and fits that group's
        OLD trace.  It never holds more than 1/jobs of the points, so
        a grid with fewer trace groups than workers still reaches
        every worker (its groups are then cut, and a trace may be built
        twice), nor more than 32, which keeps the per-chunk dispatch
        overhead invisible on huge grids.
        Workers are always real processes — even at ``jobs=1`` — so an
        injected or organic worker death never takes the parent down
        with it.  They are forked, so each runs its items through a
        closure over this engine's spec, plan, resilience and chaos
        injector, and over one segment writer the parent never opens:
        each worker opens its own ``segment-<pid>-<n>.jsonl`` on its
        first append.  Heartbeats live under ``<out_dir>/.supervise``,
        or in a temporary directory removed when the run ends.  Returns
        the executor's supervision counters.
        """
        import contextlib
        import tempfile

        largest = max(len(group) for group in plan.trace_groups(pending))
        share = -(-len(pending) // self.jobs)
        chunk = min(32, share, max(-(-share // 4), largest))
        parts = plan.chunks(chunk, indices=pending)
        tasks = [[(i, keys[i]) for i in part] for part in parts]
        segment = _SegmentWriter(self.out_dir) if self.out_dir is not None else None

        def run_item(item: tuple[int, str]) -> tuple[str, dict[str, Any]]:
            index, key = item
            row = _complete_point(
                self.spec, plan, index, key, segment, self.resilience, self.injector
            )
            return key, row

        hearts = (
            contextlib.nullcontext(self.out_dir / ".supervise")
            if self.out_dir is not None
            else tempfile.TemporaryDirectory(prefix="repro-supervise-")
        )
        with hearts as hearts_dir:
            executor = SupervisedExecutor(
                jobs=self.jobs,
                run_item=run_item,
                hearts_dir=hearts_dir,
                hang_timeout_s=self.hang_timeout_s,
                respawn_budget=self.respawn_budget,
                reclaim=self._reclaim_chunk,
            )
            for payload in executor.run(tasks):
                completed.update(payload)
        return dict(executor.stats)

    def _reclaim_chunk(
        self, items: list[tuple[int, str]]
    ) -> tuple[list[tuple[str, dict[str, Any]]], list[tuple[int, str]]]:
        """Salvage a reclaimed lease: checkpointed points stay done.

        A dead worker checkpointed every point it finished before dying
        (segment lines are flushed one by one), so a rescan of this
        chunk's run keys recovers them without recomputation — the
        acceptance bar for supervisor recovery.  Whatever the scan does
        not find is re-queued.
        """
        if self.out_dir is None:
            return [], list(items)
        found = _scan_checkpoints(self.out_dir, [key for _, key in items])
        salvaged = [(key, found[key]) for _, key in items if key in found]
        remaining = [(i, key) for i, key in items if key not in found]
        return salvaged, remaining

    def _count_degraded(self) -> int:
        """How many degradation events this directory has absorbed.

        The count is the ``degraded.log`` line count — one line per
        swallowed failure (a quarantined corrupt checkpoint) — so it
        accumulates across resumes of the same directory, which is the
        honest reading: the directory's history degraded, even
        if this particular run did not.
        """
        if self.out_dir is None:
            return 0
        try:
            with open(self.out_dir / "degraded.log", "r", encoding="utf-8") as handle:
                return sum(1 for _ in handle)
        except OSError:
            return 0

    def _write_spec_once(self) -> None:
        """Record the spec next to the checkpoints, skipping no-op rewrites.

        Every resume used to rewrite ``spec.json`` even when nothing
        changed; now the existing bytes are compared first, so resuming
        an unchanged campaign touches the file zero times (and the
        mtime stays meaningful for "when did this grid last change").
        """
        assert self.out_dir is not None
        path = self.out_dir / "spec.json"
        text = json.dumps(self.spec.to_dict(), indent=2, sort_keys=True) + "\n"
        try:
            if path.read_text(encoding="utf-8") == text:
                return
        except OSError:
            pass
        path.write_text(text, encoding="utf-8")

    def _write_outputs(self, table: ResultsTable, n_resumed: int, n_computed: int) -> None:
        """Persist the aggregate next to the checkpoints."""
        from ..experiments.reporting import ab_campaign_report, campaign_report

        assert self.out_dir is not None
        table.to_csv(self.out_dir / "results.csv")
        report = campaign_report(
            self.spec, table, n_resumed=n_resumed, n_computed=n_computed
        )
        if self.spec.options.get("ab"):
            report = report + "\n" + ab_campaign_report(self.spec, table)
        (self.out_dir / "report.md").write_text(report, encoding="utf-8")


def run_campaign(
    spec: CampaignSpec,
    out_dir: str | Path | None = None,
    jobs: int = 1,
    log: TextIO | None = None,
) -> ResultsTable:
    """One-call campaign execution; returns just the results table.

    The figure sweeps call this with the defaults (in-process, silent);
    the CLI builds a :class:`CampaignEngine` directly for the full
    checkpoint/report treatment.
    """
    return CampaignEngine(spec, out_dir=out_dir, jobs=jobs).run(log=log).table
