"""End-to-end pipeline throughput: every stage, before/after engines.

``bench_parse.py`` tracks trace ingestion; this benchmark tracks
everything downstream — the full reconstruction pipeline the figures
and campaigns run:

- **pipeline stages** — collect (generate + device emulation),
  inference (latency-model estimation), reconstruct (TraceTracker
  remaster onto the new node), metrics (gap statistics), plus one
  whole figure (fig9) and one campaign grid point, timed per stage;
- **engine stages** — hot paths that keep a scalar oracle around are
  timed under *both* engines and reported as before/after speedups:
  queue-depth replay (scalar loop vs plan/FIFO-window engine, on the
  flash array and on the HDD), the fig9 interpolation kernels
  (knot-at-a-time slopes/grids vs vectorised), the Algorithm 1
  group scoring (per-group loop vs fused pass), and the streaming
  service's incremental session (recompute the whole prefix at every
  arrival vs feed each chunk once);
- **calibration** — a fixed NumPy workload timed in the same run, so
  the CI regression gate can compare absolute stage times across
  machines of different speeds.

Results go to stdout and, with ``--out``, to ``BENCH_pipeline.json``
(committed at the repo root; CI re-measures and fails on >1.5x
regressions via ``--check``).

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [--quick] [--out BENCH_pipeline.json]
    PYTHONPATH=src python benchmarks/bench_pipeline.py --quick --check BENCH_pipeline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.distribution import EmpiricalCDF
from repro.analysis.interpolation import (
    _derivative_grid,
    _derivative_grid_scalar,
    _natural_spline_slopes,
    _natural_spline_slopes_scalar,
    _pchip_slopes,
    _pchip_slopes_scalar,
)
from repro.analysis.steepness import select_steepest, steepness_score
from repro.core.baselines import TraceTrackerMethod
from repro.experiments import build_pair_for, fig9_interpolation, new_node, old_node
from repro.inference.decompose import estimate_model
from repro.inference.grouping import group_intervals
from repro.metrics.comparison import intt_gap_stats
from repro.perf import PerfRecorder
from repro.replay import replay_queue_depth, replay_queue_depth_scalar
from repro.workloads.catalog import get_spec
from repro.workloads.generator import collect_trace, generate_intents

#: Timing repetitions; the best of N is reported (steady-state figure).
_REPS = 3

#: Version stamp of the unified benchmark document schema.  Version 2
#: adds ``schema_version`` and ``kind`` (``"pipeline"`` / ``"parse"``)
#: to the two ``BENCH_*.json`` files so one comparator can read both;
#: version-1 documents (no stamp) are still accepted everywhere.
SCHEMA_VERSION = 2


def _best_of(fn, reps: int = _REPS) -> float:
    """Fastest wall-clock run of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _calibration_s() -> float:
    """A fixed CPU workload for cross-machine normalisation.

    Mixes NumPy array work with Python-loop work in roughly the
    proportions the pipeline stages do, so the ratio of two machines'
    calibration times predicts the ratio of their stage times well
    enough for a 1.5x regression gate.
    """

    def work() -> None:
        rng = np.random.default_rng(0)
        a = rng.random(200_000)
        for _ in range(10):
            a = np.sort(a + 0.1) * 0.99
        total = 0.0
        for v in a[:50_000].tolist():
            total += v * 1.000001
        assert total > 0

    return _best_of(work)


# ----------------------------------------------------------------------
# Pipeline stages (absolute seconds per stage)
# ----------------------------------------------------------------------


def bench_pipeline_stages(n_requests: int) -> dict[str, float]:
    """Time collect -> inference -> reconstruct -> metrics + one figure
    and one campaign point, at ``n_requests`` scale."""
    perf = PerfRecorder()
    wspec = get_spec("MSNFS").scaled(n_requests)
    with perf.stage("collect"):
        old = collect_trace(generate_intents(wspec), old_node(), record_device_times=False)
    with perf.stage("inference"):
        estimate_model(old)
    method = TraceTrackerMethod()
    with perf.stage("reconstruct"):
        new = method.reconstruct(old, new_node())
    with perf.stage("metrics"):
        intt_gap_stats(old, new)
    with perf.stage("fig9_figure"):
        fig9_interpolation()
    with perf.stage("campaign_point"):
        from repro.campaign import CampaignSpec, DeviceSpec
        from repro.campaign.engine import run_point
        from repro.campaign.plan import expand

        spec = CampaignSpec(
            name="bench-point",
            action="reconstruct",
            workloads=("MSNFS",),
            devices=(DeviceSpec("new", "new-node"),),
            methods=("revision",),
            n_requests=(min(n_requests, 500),),
        )
        run_point(spec, expand(spec).points[0])
    return {name: stats.best_s for name, stats in perf.stages.items()}


# ----------------------------------------------------------------------
# Engine stages (before/after the optimisation, same inputs)
# ----------------------------------------------------------------------


def bench_qdepth(n_requests: int, device_factory, label: str) -> dict[str, float]:
    """Scalar oracle vs production queue-depth engine on one device.

    The two engines are timed as *interleaved* pairs (scalar, then
    production, repeated) so both sides sample the same co-tenant load
    regimes on a shared box; each side reports the minimum of its
    series (the quiet-moment floor, the measurement protocol described
    in docs/architecture.md "Measured limits").
    """
    pair = build_pair_for("DAP", n_requests=n_requests)
    idle = np.full(len(pair.old) - 1, 250.0)
    before = float("inf")
    after = float("inf")
    for _ in range(_REPS + 1):
        start = time.perf_counter()
        replay_queue_depth_scalar(
            pair.old, device_factory(), idle_us=idle, queue_depth=8
        )
        before = min(before, time.perf_counter() - start)
        start = time.perf_counter()
        replay_queue_depth(pair.old, device_factory(), idle_us=idle, queue_depth=8)
        after = min(after, time.perf_counter() - start)
    return {"before_s": before, "after_s": after, "speedup": round(before / after, 2)}


def bench_interpolation(n_knots: int = 200, reps_per_run: int = 40) -> dict[str, float]:
    """Fig9-style interpolation kernels: scalar loops vs vectorised."""
    rng = np.random.default_rng(9)
    samples = np.concatenate(
        [rng.normal(200.0, 2.0, 2400), np.exp(rng.uniform(np.log(1e3), np.log(1e6), 600))]
    )
    xs, ys = EmpiricalCDF(samples).knots()
    idx = np.unique(np.linspace(0, len(xs) - 1, n_knots).astype(int))
    xs, ys = xs[idx], ys[idx]

    def run(slopes_pchip, slopes_spline, grid) -> None:
        for _ in range(reps_per_run):
            slopes_pchip(xs, ys)
            slopes_spline(xs, ys)
            grid(xs, 16, True)

    before = _best_of(
        lambda: run(_pchip_slopes_scalar, _natural_spline_slopes_scalar, _derivative_grid_scalar)
    )
    after = _best_of(lambda: run(_pchip_slopes, _natural_spline_slopes, _derivative_grid))
    return {"before_s": before, "after_s": after, "speedup": round(before / after, 2)}


def bench_steepness(n_requests: int) -> dict[str, float]:
    """Algorithm 1 group scoring: per-group loop vs fused pass."""
    pair = build_pair_for("MSNFS", n_requests=n_requests)
    groups = group_intervals(pair.old, min_samples=8)

    def before_run() -> None:
        scored = [
            (key, steepness_score(np.asarray(v, dtype=np.float64)))
            for key, v in groups.items()
        ]
        scored.sort(key=lambda p: (-p[1].steepness, str(p[0])))

    before = _best_of(before_run)
    after = _best_of(lambda: select_steepest(groups, k=len(groups), min_samples=8))
    return {"before_s": before, "after_s": after, "speedup": round(before / after, 2)}


def bench_streaming_reconstruct(n_requests: int, n_chunks: int = 8) -> dict[str, float]:
    """Recompute-from-scratch per arrival vs the incremental session.

    The always-on service's reason to exist as a *stateful* daemon:
    when a stream delivers ``n_chunks`` batches, the naive way to keep
    the reconstruction current is to re-run the whole pipeline over
    everything received so far at each arrival — O(k·n) total work.
    The :class:`~repro.core.stages.StreamingReconstructionSession` the
    daemon drives instead feeds each chunk once under the
    carry-one-request invariant — O(n) — and its advantage grows
    linearly with stream length.  Both sides produce the same final
    trace; the chunk count is fixed so the ratio is scale-stable.
    """
    from repro.core.pipeline import TraceTracker

    pair = build_pair_for("MSNFS", n_requests=n_requests)
    step = max(1, len(pair.old) // n_chunks)
    bounds = list(range(step, len(pair.old), step)) + [len(pair.old)]
    tracker = TraceTracker()

    def naive_recompute() -> None:
        for hi in bounds:
            tracker.pipeline.run(pair.old[:hi], new_node())

    def incremental() -> None:
        session = tracker.stream_session(new_node())
        lo = 0
        for hi in bounds:
            session.feed(pair.old[lo:hi])
            lo = hi
        session.finish()

    before = _best_of(naive_recompute)
    after = _best_of(incremental)
    return {"before_s": before, "after_s": after, "speedup": round(before / after, 2)}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_benchmarks(n_requests: int) -> dict:
    """Measure every stage; returns the JSON-able result document."""
    results: dict = {
        "schema_version": SCHEMA_VERSION,
        "kind": "pipeline",
        "n_requests": n_requests,
        "calibration_s": round(_calibration_s(), 6),
    }
    results["pipeline"] = {
        name: round(seconds, 6) for name, seconds in bench_pipeline_stages(n_requests).items()
    }
    results["stages"] = {
        # The headline qdepth bench exercises the precomputed-service
        # (service_batch + FIFO window) engine on the OLD node; the
        # flash array prices nothing up front (its latencies are
        # state-dependent under overlap), so its stage tracks the
        # streaming flash loop, whose win is bounded by the
        # irreducible per-fragment state bookkeeping the scalar oracle
        # shares (see docs/architecture.md, "Device-model kernels").
        "qdepth_replay": bench_qdepth(n_requests, old_node, "hdd"),
        "qdepth_replay_flash_array": bench_qdepth(n_requests, new_node, "flash-array"),
        "fig09_interpolation": bench_interpolation(),
        "steepness_select": bench_steepness(n_requests),
        "streaming_reconstruct": bench_streaming_reconstruct(n_requests),
    }
    for stage in results["stages"].values():
        stage["before_s"] = round(stage["before_s"], 6)
        stage["after_s"] = round(stage["after_s"], 6)
    return results


def check_regressions(measured: dict, baseline: dict, tolerance: float) -> list[str]:
    """Regression report against a committed baseline (empty = pass).

    Speedup stages compare machine-independent before/after ratios;
    absolute pipeline stages are normalised by the calibration
    workload's ratio between the two runs.  Stages present in only one
    document are tolerated — a stage the baseline has never seen has
    nothing to regress against, and a stage the baseline still carries
    but this run dropped was removed on purpose by whatever commit
    removed it (the committed baseline lags the code by one
    regeneration) — so schema growth never trips the gate.
    """
    problems: list[str] = []
    for name, base in baseline.get("stages", {}).items():
        now = measured.get("stages", {}).get(name)
        if now is None:
            continue  # stage retired since the baseline was committed
        if now["speedup"] * tolerance < base["speedup"]:
            problems.append(
                f"{name}: speedup {now['speedup']}x is >{tolerance}x below baseline "
                f"{base['speedup']}x"
            )
    scale = measured["calibration_s"] / baseline["calibration_s"]
    for name, base_s in baseline.get("pipeline", {}).items():
        now_s = measured.get("pipeline", {}).get(name)
        if now_s is None:
            continue  # stage retired since the baseline was committed
        limit = base_s * scale * tolerance
        if now_s > limit:
            problems.append(
                f"pipeline {name}: {now_s:.4f}s exceeds {limit:.4f}s "
                f"(baseline {base_s:.4f}s x machine scale {scale:.2f} x tolerance {tolerance})"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--requests", type=int, default=4_000,
        help="requests per generated trace (default 4000)",
    )
    parser.add_argument("--quick", action="store_true", help="quarter-size CI pass")
    parser.add_argument("--out", type=str, default=None, help="write results JSON here")
    parser.add_argument(
        "--history", type=str, default=None,
        help="append this run (speedups + commit + date) to a BENCH_history.jsonl",
    )
    parser.add_argument(
        "--check", type=str, default=None,
        help="compare against a baseline BENCH_pipeline.json; non-zero exit on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=1.5,
        help="allowed regression factor for --check (default 1.5)",
    )
    args = parser.parse_args(argv)
    n = max(500, args.requests // 4) if args.quick else args.requests
    results = run_benchmarks(n)

    print(f"pipeline stages (n={n}, best of {_REPS}):")
    for name, seconds in results["pipeline"].items():
        print(f"  {name:>16}: {seconds * 1e3:8.1f} ms")
    print("engine stages (before -> after):")
    for name, stage in results["stages"].items():
        print(
            f"  {name:>28}: {stage['before_s'] * 1e3:8.1f} ms -> "
            f"{stage['after_s'] * 1e3:8.1f} ms  ({stage['speedup']}x)"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
        print(f"results written to {args.out}")
    if args.history:
        from history import append_history

        line = append_history(results, args.history)
        print(f"history line appended to {args.history} (commit {line['commit']})")
    if args.check:
        baseline = json.loads(Path(args.check).read_text(encoding="utf-8"))
        problems = check_regressions(results, baseline, args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.check} (tolerance {args.tolerance}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
