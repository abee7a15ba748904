"""Output checks and fidelity scores, run outside the timed region.

Each check reads one repetition's outputs, returns the list of problems
found (empty when the output is correct) and the workload's fidelity
metrics.  Any problem fails the whole benchmark run.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

from fidelity import fidelity, load_truth, mean_fidelity, truth_record
from inputs import GRID_WORKLOADS, file_digest
from rep import QUEUE_DEPTH, read_segments
from repro.campaign.devices import build_device
from repro.campaign.engine import _device_times_auto, run_point
from repro.campaign.plan import expand
from repro.campaign.spec import load_spec
from repro.campaign.supervise import QUARANTINED
from repro.core.config import TraceTrackerConfig
from repro.core.pipeline import TraceTracker
from repro.core.stages import PostprocessStage
from repro.experiments import new_node
from repro.inference.idle import IdleExtraction, extract_idle
from repro.replay import detect_async_indices, replay_queue_depth_scalar, replay_with_idle
from repro.trace.io.bulk import parse_internal_bulk
from repro.trace.io.cache import TraceStore
from repro.trace.io.reader import TraceReader
from repro.trace.io.store import load_trace_npz
from repro.trace.trace import BlockTrace
from repro.trace.writers import iter_csv_rows, write_csv
from repro.workloads.catalog import get_spec
from repro.workloads.generator import generate_intents
from repro.workloads.materialize import collect_trace_cached

#: Requests whose stamps are compared against the scalar oracles.
PREFIX_REQUESTS = 20_000

Result = tuple[list[str], dict[str, float]]


def _same_stamps(a: BlockTrace, b: BlockTrace) -> bool:
    return (
        np.array_equal(a.timestamps, b.timestamps)
        and np.array_equal(a.issues, b.issues)
        and np.array_equal(a.completes, b.completes)
    )


def _shape_errors(old: BlockTrace, out: BlockTrace) -> list[str]:
    errors = []
    if len(out) != len(old):
        errors.append(f"output has {len(out)} rows, input {len(old)}")
    if np.any(np.diff(out.timestamps) < 0):
        errors.append("output timestamps decrease")
    return errors


def _load_idle(rep: Path) -> tuple[np.ndarray, np.ndarray]:
    with np.load(rep / "idle.npz") as doc:
        return doc["tidle"], doc["tsdev"]


def check_batch(inp: Path, rep: Path, seed: int) -> Result:
    """Rows kept, time order kept, and a prefix equal to the scalar replayer
    plus post-processing given the same idle."""
    old = TraceReader(inp / "old.csv").read()
    out = TraceReader(rep / "out.csv").read()
    errors = _shape_errors(old, out)
    tidle, tsdev = _load_idle(rep)
    p = min(PREFIX_REQUESTS, len(old))
    head = old.select(slice(0, p))
    tintt = head.inter_arrival_times()
    tsdev_head = tsdev[: p - 1]
    extraction = IdleExtraction(
        tintt, tsdev_head, tidle[: p - 1], tintt < tsdev_head, None, False
    )
    replay = replay_with_idle(head, new_node(), idle_us=tidle[: p - 1])
    postprocess = PostprocessStage(min_async_gap_us=TraceTrackerConfig().min_async_gap_us)
    expected = postprocess.run(replay, extraction, detect_async_indices(tintt, tsdev_head))
    # Round through the CSV writer: out.csv holds stamps at its precision.
    expected = parse_internal_bulk("\n".join(iter_csv_rows(expected)))
    if not _same_stamps(expected, out.select(slice(0, p))):
        errors.append(f"first {p} stamps differ from the scalar replayer")
    return errors, fidelity(load_truth(inp / "truth.npz"), tidle, float(tidle.sum()))


def check_qdepth(inp: Path, rep: Path, seed: int) -> Result:
    """Rows kept, time order kept, and a prefix equal to the scalar
    queue-depth replay given the same idle."""
    old = TraceReader(inp / "old.npz", fmt="npz").read()
    out = load_trace_npz(rep / "out.npz")
    errors = _shape_errors(old, out)
    tidle, _ = _load_idle(rep)
    p = min(PREFIX_REQUESTS, len(old))
    expected = replay_queue_depth_scalar(
        old.select(slice(0, p)), new_node(), idle_us=tidle[: p - 1], queue_depth=QUEUE_DEPTH
    ).trace
    if not _same_stamps(expected, out.select(slice(0, p))):
        errors.append(f"first {p} stamps differ from the scalar queue-depth replay")
    return errors, fidelity(load_truth(inp / "truth.npz"), tidle, float(tidle.sum()))


def check_serve(inp: Path, rep: Path, seed: int) -> Result:
    """The daemon's parity contract: ``out.csv`` byte-identical to the
    batch streaming oracle, ``metrics.json`` equal to its metrics."""
    workdir = rep / "serve"
    errors = []
    oracle = TraceTracker().reconstruct_stream(
        TraceReader(inp / "old.csv", chunk_requests=256), build_device("new-node", {})
    )
    expected_csv = io.StringIO()
    write_csv(oracle.trace, expected_csv)
    if (workdir / "out.csv").read_bytes() != expected_csv.getvalue().encode("utf-8"):
        errors.append("out.csv differs from the streaming oracle")
    metrics = json.loads((workdir / "metrics.json").read_text(encoding="utf-8"))
    if metrics != asdict(oracle.metrics):
        errors.append("metrics.json differs from the streaming oracle's metrics")
    # Idle per gap as the paper's verification recovers it from a
    # reconstructed trace: new gap minus new measured device time.
    out = TraceReader(workdir / "out.csv").read()
    estimated = np.clip(out.inter_arrival_times() - out.device_times()[:-1], 0.0, None)
    truth = load_truth(inp / "truth.npz")
    return errors, fidelity(truth, estimated, float(metrics["slept_idle_us"]))


def check_campaign(inp: Path, rep: Path, seed: int) -> Result:
    """Every planned point computed exactly once, none quarantined, and two
    sampled rows equal to an in-process ``run_point``."""
    spec = load_spec(inp / "grid.json")
    plan = expand(spec)
    keys = plan.keys()
    docs = read_segments(rep / "campaign")
    seen = Counter(doc["key"] for doc in docs)
    rows = {doc["key"]: doc["row"] for doc in docs}
    errors = []
    missing = [k for k in keys if seen[k] == 0]
    repeated = [k for k, n in seen.items() if n > 1]
    unplanned = set(seen) - set(keys)
    if missing or repeated or unplanned:
        errors.append(
            f"points missing {len(missing)}, computed twice {len(repeated)}, "
            f"unplanned {len(unplanned)}"
        )
    quarantined = [k for k, row in rows.items() if row.get("status") == QUARANTINED]
    if quarantined:
        errors.append(f"{len(quarantined)} point(s) quarantined")
    for i in random.Random(seed).sample(range(len(keys)), 2):
        if rows.get(keys[i]) != run_point(spec, plan.points[i]):
            errors.append(f"row of point {i} differs from an in-process run_point")
    # The campaign's reconstruct rows carry no idle figures, so the
    # benchmark computes fidelity itself: idle inferred on the largest
    # trace of each workload, read back from the campaign's own (cold,
    # per-repetition) trace store, against the catalog intent stream.
    store = TraceStore(rep / "store")
    parts = []
    for workload in GRID_WORKLOADS:
        wspec = get_spec(workload).scaled(max(spec.n_requests))
        old = collect_trace_cached(
            wspec,
            spec.source_device.build(),
            record_device_times=_device_times_auto(spec.options, wspec),
            store=store,
        )
        extraction = extract_idle(old)
        intents = generate_intents(wspec)
        truth = truth_record(intents.is_idle, intents.thinks)
        parts.append(fidelity(truth, extraction.tidle_us, extraction.total_idle_us()))
    if store.misses:
        errors.append(f"{store.misses} grid trace(s) missing from the campaign's trace store")
    return errors, mean_fidelity(parts)


CHECKS = {
    "batch-msnfs": check_batch,
    "qdepth-usr": check_qdepth,
    "serve-msnfs": check_serve,
    "campaign-grid": check_campaign,
}

#: The files holding each workload's result, relative to a repetition's directory.
OUTPUTS = {
    "batch-msnfs": ("out.csv",),
    "qdepth-usr": ("out.npz",),
    "serve-msnfs": ("serve/out.csv", "serve/metrics.json"),
    "campaign-grid": ("campaign/results.csv",),
}


def output_digest(workload: str, rep: Path) -> str:
    """Digest of a repetition's results; every repetition must agree."""
    digest = hashlib.sha256()
    for name in OUTPUTS[workload]:
        digest.update(file_digest(rep / name).encode())
    return digest.hexdigest()
