"""One timed repetition of a benchmark workload, in a fresh interpreter.

Usage::

    PYTHONPATH=src python3 perfbench/rep.py WORKLOAD INPUT_DIR OUT_DIR [--trace SPANS.json]

Runs the workload's timed region once over the inputs in ``INPUT_DIR``,
leaves the program's outputs in ``OUT_DIR`` and prints one JSON line
with the region's wall time and what it processed.  A fresh
interpreter per repetition means no in-process memo (inference's
content-keyed model memo, the trace store, the lake) serves a repeat
that a user running the command once would not get.

With ``--trace`` the public functions at each layer boundary are
wrapped from here before the region runs, and the recorded spans are
written to ``SPANS.json`` when it ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.campaign import cli as campaign_cli
from repro.core import stages
from repro.core.pipeline import TraceTracker
from repro.experiments import new_node
from repro.perf import PerfRecorder
from repro.service import cli as serve_cli
from repro.service import daemon
from repro.trace.io.bulk import BULK_PARSERS
from repro.trace.io.reader import TraceReader
from spans import Tracer

# Called through their modules, so a traced run's wrappers (patched
# module attributes) see every call.
idle_mod = import_module("repro.inference.idle")
qdepth_mod = import_module("repro.replay.qdepth")
comparison = import_module("repro.metrics.comparison")
writers = import_module("repro.trace.writers")

#: ``--until-idle`` of the serve workload; subtracted from its wall.
#: The daemon keeps reconstructing queued chunks during this wait, so
#: it is kept short: the overlap it hides from the wall is at most this.
UNTIL_IDLE_S = 0.05
QUEUE_DEPTH = 8
CAMPAIGN_JOBS = 2


def batch_msnfs(inp: Path, out: Path) -> dict[str, Any]:
    start = time.perf_counter()
    old = TraceReader(inp / "old.csv").read()
    result = TraceTracker().reconstruct(old, new_node())
    comparison.intt_gap_stats(old, result.trace)
    writers.dump_trace(result.trace, out / "out.csv", "internal")
    wall = time.perf_counter() - start
    extraction = result.extraction
    np.savez(out / "idle.npz", tidle=extraction.tidle_us, tsdev=extraction.tsdev_us)
    return {"wall_s": wall, "requests": len(old), "failed": 0}


def qdepth_usr(inp: Path, out: Path) -> dict[str, Any]:
    start = time.perf_counter()
    old = TraceReader(inp / "old.npz", fmt="npz").read()
    extraction = idle_mod.extract_idle(old)
    replay = qdepth_mod.replay_queue_depth(
        old, new_node(), idle_us=extraction.tidle_us, queue_depth=QUEUE_DEPTH
    )
    comparison.intt_gap_stats(old, replay.trace)
    writers.dump_trace(replay.trace, out / "out.npz", "npz")
    wall = time.perf_counter() - start
    np.savez(out / "idle.npz", tidle=extraction.tidle_us, tsdev=extraction.tsdev_us)
    return {"wall_s": wall, "requests": len(old), "failed": 0}


def serve_msnfs(inp: Path, out: Path) -> dict[str, Any]:
    workdir = out / "serve"
    code = serve_cli.main(
        [
            "run",
            "--source", f"file:{inp / 'old.csv'}",
            "--workdir", str(workdir),
            "--until-idle", str(UNTIL_IDLE_S),
        ]
    )
    status = json.loads((workdir / "status.json").read_text(encoding="utf-8"))
    # started_at is stamped when the service is built, after interpreter
    # start-up; the terminal update follows the end-of-stream idle wait.
    wall = status["updated_at"] - status["started_at"] - UNTIL_IDLE_S
    counters = status["counters"]
    return {
        "wall_s": wall,
        "requests": counters["rows_consumed"],
        "failed": counters["n_quarantined"] + (0 if code == 0 else counters["rows_consumed"]),
        "state": status["state"],
        "service.chunks": status["session"]["n_chunks"],
        "service.queue_max_depth": status["queue"]["max_depth"],
        "service.rows_quarantined": counters["n_quarantined"],
    }


def read_segments(campaign_dir: Path) -> list[dict[str, Any]]:
    """Every checkpoint record (key, row, wall_s) of a campaign output directory."""
    return [
        json.loads(line)
        for segment in sorted((campaign_dir / "runs").glob("segment-*.jsonl"))
        for line in segment.read_text(encoding="utf-8").splitlines()
    ]


def campaign_grid(inp: Path, out: Path, traced: bool = False) -> dict[str, Any]:
    argv = [
        "run", str(inp / "grid.json"),
        "--jobs", str(CAMPAIGN_JOBS),
        "--out-dir", str(out / "campaign"),
        "--trace-store-dir", str(out / "store"),
        "--quiet",
    ]
    if traced:
        argv.append("--perf")
    start = time.perf_counter()
    code = campaign_cli.main(argv)
    wall = time.perf_counter() - start
    docs = read_segments(out / "campaign")
    rows = [doc["row"] for doc in docs]
    point_s = sum(float(doc.get("wall_s", 0.0)) for doc in docs)
    failed = sum(1 for row in rows if row.get("status") is not None)
    return {
        "wall_s": wall,
        "requests": sum(int(row["n_requests"]) for row in rows),
        "points": len(rows),
        "failed": failed if code == 0 else max(failed, 1),
        "campaign.point_s_sum": point_s,
        "campaign.points_computed": len(rows),
        "campaign.store_entries": len(list((out / "store").glob("*.npz"))),
    }


REGIONS = {
    "batch-msnfs": batch_msnfs,
    "qdepth-usr": qdepth_usr,
    "serve-msnfs": serve_msnfs,
    "campaign-grid": campaign_grid,
}


def peak_rss_mb() -> float:
    """Peak resident set of this program image and of the children it waited for.

    ``VmHWM`` rather than ``ru_maxrss``: the kernel carries the launching
    process's high-water mark across fork and exec into ``ru_maxrss``.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return max(hwm_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _materialised_rows(trace: Any) -> Iterator[str]:
    """CSV rows built eagerly, so a span around this call holds their cost.

    ``iter_csv_rows`` is a generator: its work happens while the sink
    consumes it, which a span around the call would not see.
    """
    return iter(list(writers.iter_csv_rows(trace)))


class _SpanPerf(PerfRecorder):
    """The campaign engine's ``perf=`` recorder, also recording each phase as a span."""

    def __init__(self, tracer: Tracer, enabled: bool = True) -> None:
        super().__init__(enabled)
        self.tracer = tracer

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        with self.tracer.span(f"campaign.{name}"), super().stage(name):
            yield


def install(tracer: Tracer, workload: str) -> None:
    """Wrap the layer boundaries the workload crosses."""

    def rows(t: Tracer, trace: Any) -> None:
        t.count("trace_io.rows", len(trace))

    def measured(t: Tracer, extraction: Any) -> None:
        t.count("inference.measured", int(extraction.used_measured_tsdev))

    def async_gaps(t: Tracer, indices: Any) -> None:
        t.count("replay.async_gaps", len(indices))

    if workload in ("batch-msnfs", "qdepth-usr"):
        tracer.wrap(TraceReader, "read", "trace_io.parse", rows)
        tracer.wrap(comparison, "intt_gap_stats", "metrics.gap_stats")
        tracer.wrap(writers, "dump_trace", "trace_writers.write")
    if workload in ("batch-msnfs", "serve-msnfs"):
        tracer.wrap(stages.InferStage, "run", "inference.infer", measured)
        tracer.wrap(stages.EmulateStage, "run", "replay.emulate")
        tracer.wrap(stages, "detect_async_indices", "replay.postprocess", async_gaps)
        tracer.wrap(stages.PostprocessStage, "run", "replay.postprocess")
        tracer.wrap(stages.MetricsStage, "run", "core.metrics")
    if workload == "qdepth-usr":
        tracer.wrap(idle_mod, "extract_idle", "inference.infer", measured)
        tracer.wrap(qdepth_mod, "replay_queue_depth", "replay.qdepth")
    if workload == "serve-msnfs":
        tracer.wrap(BULK_PARSERS, "internal", "trace_io.parse", rows)
        daemon.iter_csv_rows = _materialised_rows
        tracer.wrap(daemon, "iter_csv_rows", "trace_writers.write")
        tracer.wrap(daemon._CsvSink, "append", "service.sink")
        tracer.wrap(stages.StreamingReconstructionSession, "feed", "service.feed")
        tracer.wrap(daemon.StreamingReconstructionService, "_commit", "service.commit")
    if workload == "campaign-grid":
        campaign_cli.PerfRecorder = lambda enabled=True: _SpanPerf(tracer, enabled)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(REGIONS))
    parser.add_argument("input_dir", type=Path)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--trace", type=Path, default=None, help="write spans here")
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace is not None:
        tracer = Tracer(run_id=args.out_dir.name)
        install(tracer, args.workload)
    if args.workload == "campaign-grid":
        result = campaign_grid(args.input_dir, args.out_dir, traced=tracer is not None)
    else:
        result = REGIONS[args.workload](args.input_dir, args.out_dir)
    if tracer is not None:
        tracer.restore()
        tracer.dump(args.trace, result["wall_s"])
    result["rss_mb"] = peak_rss_mb()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
