"""End-to-end reconstruction benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload batch-msnfs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Four workloads (see ``METRICS.md`` beside this file): a batch
reconstruction of an MSNFS CSV file, a queue-depth replay of an MSRC
``usr`` binary trace, the ``repro-serve`` daemon catching up on an MSNFS
file, and a ``repro-campaign`` grid.  Inputs are generated from
``--seed`` and fully written before the program starts.  Every timed
repetition runs in a fresh interpreter; repetitions run until
``--seconds`` have passed.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` adds
traced repetitions whose spans give each layer's self time; it prints
the per-layer table and the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` runs every workload at tiny
sizes, untraced and traced, with all output checks.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("batch-msnfs", "qdepth-usr", "serve-msnfs", "campaign-grid")

#: Requests per trace (for the campaign: the grid's size axis, 16x span).
#: Serve streams whole 256-row chunks: inference cannot fit a model to
#: a short final chunk of some traces (~80 rows), and the daemon then
#: fails the stream.
SIZES: dict[str, Any] = {
    "batch-msnfs": 100_000,
    "qdepth-usr": 100_000,
    "serve-msnfs": 200 * 256,
    "campaign-grid": (1_000, 4_000, 16_000),
}
SMOKE_SIZES: dict[str, Any] = {
    "batch-msnfs": 3_000,
    "qdepth-usr": 3_000,
    "serve-msnfs": 8 * 256,
    "campaign-grid": (250, 1_000, 4_000),
}

#: Environment that would let a cache, store, lake or engine switch
#: reach into a measured process.
ISOLATED_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_TRACE_STORE_DIR",
    "REPRO_TRACE_STORE",
    "REPRO_LAKE_DB",
    "REPRO_SCALAR_KERNELS",
    "REPRO_NO_NUMBA",
)

#: Set-up runs at least this many times, and until this much set-up
#: time has passed (a set-up of milliseconds runs many times).
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0
SETUP_MAX_REPEATS = 200
MIN_REPS = 3
#: ``calibration_s()`` on the reference machine speed that
#: ``requests_per_s`` and ``setup_s`` are rescaled to.  Co-tenant load on
#: a shared host moves this benchmark's walls by up to 2x from minute to
#: minute; a fixed memory-bound probe run beside the timed work moves
#: with it, so time x (reference / probe time) stays steady across runs.
CALIBRATION_REF_S = 0.3
#: Every invocation must end within 180 s; children get what is left.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "requests_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "idle_period_acc": "ratio",
}

#: Per-layer metrics.  ``*_s`` metrics are the self time of the span of
#: the same name; the others are counters.
PER_LAYER = {
    "trace_io.parse_s": "s",
    "trace_io.rows": "count",
    "trace_writers.write_s": "s",
    "trace_writers.bytes": "bytes",
    "inference.infer_s": "s",
    "inference.measured": "count",
    "inference.idle_detect_tp": "ratio",
    "inference.idle_len_tp": "ratio",
    "replay.emulate_s": "s",
    "replay.qdepth_s": "s",
    "replay.postprocess_s": "s",
    "replay.async_gaps": "count",
    "core.metrics_s": "s",
    "metrics.gap_stats_s": "s",
    "service.feed_s": "s",
    "service.sink_s": "s",
    "service.commit_s": "s",
    "service.chunks": "count",
    "service.queue_max_depth": "count",
    "service.rows_quarantined": "count",
    "campaign.plan_s": "s",
    "campaign.compute_s": "s",
    "campaign.aggregate_s": "s",
    "campaign.point_s_sum": "s",
    "campaign.worker_idle_frac": "ratio",
    "campaign.points_computed": "count",
    "campaign.store_entries": "count",
    "residual_s": "s",
    "traced_wall_s": "s",
    "tracing_overhead": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong output)."""


def setup(workload: str, input_dir: Path, seed: int, sizes: dict[str, Any]) -> None:
    from inputs import write_campaign_input, write_trace_input

    size = sizes[workload]
    if workload in ("batch-msnfs", "serve-msnfs"):
        write_trace_input(input_dir, "MSNFS", size, seed, device_times=False, fmt="internal")
    elif workload == "qdepth-usr":
        write_trace_input(input_dir, "usr", size, seed, device_times=True, fmt="npz")
    else:
        write_campaign_input(input_dir, size, seed)


def timed_setups(
    workload: str, input_dir: Path, seed: int, sizes: dict[str, Any], repeats: int, min_s: float
) -> tuple[list[float], float, set[str]]:
    """Set up ``repeats`` times, and more until ``min_s`` of set-up time
    has passed (at most ``SETUP_MAX_REPEATS`` times).

    Returns each set-up's wall, the calibration probe time around them
    and the digests of the inputs written.
    """
    from inputs import input_digest

    times: list[float] = []
    digests: set[str] = set()
    before = calibration_s()
    while len(times) < repeats or (sum(times) < min_s and len(times) < SETUP_MAX_REPEATS):
        shutil.rmtree(input_dir, ignore_errors=True)
        input_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        setup(workload, input_dir, seed, sizes)
        times.append(time.perf_counter() - t0)
        digests.add(input_digest(input_dir))
    return times, (before + calibration_s()) / 2, digests


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_ENV}
    env["PYTHONPATH"] = str(SRC)
    # One string-hash layout for every repetition: dict and set
    # layouts then cannot differ between repetitions of one run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], log_dir: Path, timeout_s: float) -> int:
    """Run a measured process to completion; returns its exit code."""
    with open(log_dir / "rep.out", "wb") as out, open(log_dir / "rep.err", "wb") as err:
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT, start_new_session=True
        )
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[2]} repetition exceeded {timeout_s:.0f}s") from None
    finally:
        # Whatever the child left behind goes with its session.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def repetition(
    workload: str, input_dir: Path, rep_dir: Path, traced: bool, timeout_s: float
) -> dict[str, Any]:
    rep_dir.mkdir(parents=True)
    argv = [sys.executable, str(BENCH / "rep.py"), workload, str(input_dir), str(rep_dir)]
    if traced:
        argv += ["--trace", str(rep_dir / "spans.json")]
    # The machine-speed probe runs here, in this process, so its memory
    # stays out of the repetition's peak RSS; just before and just after
    # the repetition, so it sees the load the repetition ran under.
    before = calibration_s()
    code = run_child(argv, rep_dir, timeout_s)
    calibration = (before + calibration_s()) / 2
    if code != 0:
        tail = (rep_dir / "rep.err").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{workload} repetition exited {code}:\n{tail}")
    lines = (rep_dir / "rep.out").read_text(encoding="utf-8").strip().splitlines()
    result = json.loads(lines[-1])
    result.update(dir=rep_dir, traced=traced, calibration_s=calibration)
    return result


@functools.cache
def _probe_arrays() -> tuple[Any, Any]:
    import numpy as np

    values = np.random.default_rng(1).random(4_000_000)
    return values, np.random.default_rng(2).integers(0, len(values), 2_000_000)


def calibration_s() -> float:
    """Wall time of a fixed memory-bound NumPy probe of machine speed.

    Sorts and random gathers over arrays larger than the caches; it
    shares no code with ``src/``, so a change to the program moves the
    repetitions and not the probe.
    """
    import numpy as np

    values, index = _probe_arrays()
    start = time.perf_counter()
    a = np.arange(2_000_000, dtype=np.float64)
    for _ in range(3):
        a = np.sort(a * 1.0000001)[::-1].copy()
    for k in range(3):
        a[: len(index)] += values[(index + k) % len(values)]
    return time.perf_counter() - start


def run_reps(
    workload: str, input_dir: Path, work: Path, traced: bool, seconds: float,
    min_reps: int, started: float,
) -> list[dict[str, Any]]:
    """Repetitions until ``seconds`` have passed (and at least ``min_reps``)."""
    reps: list[dict[str, Any]] = []
    begin = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - begin < seconds:
        left = RUN_BUDGET_S - (time.monotonic() - started)
        if reps and left < 2 * max(r["wall_s"] for r in reps) + 10:
            break
        kind = "trace" if traced else "rep"
        rep_dir = work / f"{kind}-{len(reps)}"
        reps.append(repetition(workload, input_dir, rep_dir, traced, left))
    return reps


def reference_wall(rep: dict[str, Any]) -> float:
    """A repetition's wall rescaled to the reference machine speed."""
    return rep["wall_s"] * CALIBRATION_REF_S / rep["calibration_s"]


def per_layer(
    workload: str,
    traced: list[dict[str, Any]],
    untraced: list[dict[str, Any]],
    fidelity: dict[str, float],
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and the printed table from the median traced repetition."""
    from checks import OUTPUTS
    from rep import CAMPAIGN_JOBS
    from spans import layer_table, load_spans

    rep = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    spans, counts, wall = load_spans(rep["dir"] / "spans.json")
    rows, residual = layer_table(spans, wall)
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        if name in rep:  # read by the repetition from the program's status files
            metrics[name] = rep[name]
        elif name.endswith("_s"):
            metrics[name] = rows.get(name[:-2], 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    metrics["inference.idle_detect_tp"] = fidelity["idle_detect_tp"]
    metrics["inference.idle_len_tp"] = fidelity["idle_len_tp"]
    metrics["trace_writers.bytes"] = (rep["dir"] / OUTPUTS[workload][0]).stat().st_size
    compute_s = rows.get("campaign.compute", 0.0)
    metrics["campaign.worker_idle_frac"] = (
        1.0 - metrics["campaign.point_s_sum"] / (CAMPAIGN_JOBS * compute_s) if compute_s else 0.0
    )
    metrics["residual_s"] = residual
    metrics["traced_wall_s"] = wall
    # Walls at reference speed: traced repetitions run after the untraced
    # ones, and host drift between the two must not read as overhead.
    untraced_wall = statistics.median(reference_wall(r) for r in untraced)
    traced_wall = statistics.median(reference_wall(r) for r in traced)
    metrics["tracing_overhead"] = traced_wall / untraced_wall - 1.0
    table = [f"per-layer self time, {workload} (traced repetition {rep['dir'].name}):"]
    for name, value in sorted(rows.items(), key=lambda kv: -kv[1]):
        table.append(f"  {name:<24} {value:10.4f} s  {value / wall:6.1%}")
    table.append(f"  {'residual':<24} {residual:10.4f} s  {residual / wall:6.1%}")
    table.append(f"  {'= traced wall':<24} {sum(rows.values()) + residual:10.4f} s")
    table.append(
        f"  tracing overhead: {metrics['tracing_overhead']:+.1%} "
        f"(walls at reference speed: traced median {traced_wall:.4f} s, "
        f"untraced median {untraced_wall:.4f} s)"
    )
    return metrics, table


def environment() -> dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> tuple[dict[str, Any], list[str]]:
    """One benchmark invocation; returns (result object, printed lines)."""
    from checks import CHECKS, output_digest
    from fidelity import FIDELITY_METRICS

    started = time.monotonic()
    sizes = SMOKE_SIZES if smoke else SIZES
    work = WORK / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    input_dir = work / "input"
    lines: list[str] = [json.dumps({"environment": environment()}, sort_keys=True)]
    problems: list[str] = []
    try:
        setup_s, setup_calibration, digests = timed_setups(
            workload, input_dir, seed, sizes,
            1 if trace else SETUP_REPEATS, 0.0 if trace or smoke else SETUP_MIN_S,
        )
        setup_ref_s = statistics.median(setup_s) * CALIBRATION_REF_S / setup_calibration
        lines.append(
            f"setup_s at reference speed {setup_ref_s:.4f} (median of {len(setup_s)} set-ups "
            f"{statistics.median(setup_s):.4f} s, calibration {setup_calibration:.4f} s)"
        )
        if len(digests) != 1:
            problems.append("set-up wrote different inputs for the same seed")
        min_reps = 1 if smoke else MIN_REPS
        untraced_seconds = seconds / 2 if trace else seconds
        reps = run_reps(workload, input_dir, work, False, untraced_seconds, min_reps, started)
        traced = (
            run_reps(workload, input_dir, work, True, seconds / 2, 1, started) if trace else []
        )
        try:
            errors, fid = CHECKS[workload](input_dir, reps[0]["dir"], seed)
            if len({output_digest(workload, r["dir"]) for r in reps + traced}) != 1:
                errors.append("repetitions produced different outputs")
        except Exception as exc:  # a missing or malformed output fails the run
            errors = [f"output check raised {type(exc).__name__}: {exc}"]
            fid = dict.fromkeys(FIDELITY_METRICS, 0.0)
        problems += errors
        for r in reps + traced:
            lines.append(
                f"{'traced' if r['traced'] else 'rep'} {r['dir'].name}: wall {r['wall_s']:.4f} s, "
                f"{r['requests']} requests, {r['failed']} failed, peak RSS {r['rss_mb']:.1f} MB"
            )
        throughput = [r["requests"] / r["wall_s"] for r in reps]
        lines.append(
            f"requests_per_s fastest {max(throughput):.1f}, median {statistics.median(throughput):.1f} "
            f"({len(reps)} repetitions)"
        )
        rescaled = [t * r["calibration_s"] / CALIBRATION_REF_S for t, r in zip(throughput, reps)]
        lines.append(
            f"requests_per_s at reference speed: median {statistics.median(rescaled):.1f} "
            f"(calibration median {statistics.median(r['calibration_s'] for r in reps):.4f} s, "
            f"reference {CALIBRATION_REF_S} s)"
        )
        attempted = sum(r["requests"] for r in reps + traced)
        if workload == "campaign-grid":
            attempted = sum(r["points"] for r in reps + traced)
            pps = [r["points"] / r["wall_s"] for r in reps]
            lines.append(f"points_per_s fastest {max(pps):.4f}, median {statistics.median(pps):.4f}")
        failed = sum(r["failed"] for r in reps + traced)
        lines.append(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
        lines.append("fidelity " + json.dumps(fid, sort_keys=True))
        if trace:
            metrics, table = per_layer(workload, traced, reps, fid)
            lines += table
            units = PER_LAYER
        else:
            metrics = {
                "requests_per_s": statistics.median(rescaled),
                "setup_s": setup_ref_s,
                "peak_rss_mb": max(r["rss_mb"] for r in reps),
                "idle_period_acc": fid["idle_period_acc"],
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        lines.append(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at tiny sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(SRC)]

    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result, lines = run_workload(workload, args.seed, 0.0, trace, smoke=True)
                print("\n".join(lines))
                print(f"{workload} trace={int(trace)}: {json.dumps(result, sort_keys=True)}")
                ok = ok and result["correct"]
        print(json.dumps({"smoke": "passed" if ok else "failed"}))
        return 0 if ok else 1

    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
