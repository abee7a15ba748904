"""The ``repro-campaign`` command line interface.

Three subcommands over the campaign engine:

``repro-campaign run <spec> [--out-dir D] [--jobs N] [--limit N] ...``
    Execute a campaign spec (YAML/JSON) — inline with ``--jobs 1``,
    across supervised worker processes otherwise — checkpointing every
    completed run key under ``<out_dir>/runs/``.  Re-running the same
    command after an interruption resumes from the checkpoints; the
    final table lands in ``results.csv`` and ``report.md``.

``repro-campaign plan <spec> [--limit N]``
    Print the expanded grid (one line per point with its run key)
    without executing anything — the dry-run for new specs.

``repro-campaign report <out_dir> [--format md|csv]``
    Rebuild and print the table of a finished (or partial) campaign
    directory from its ``spec.json`` and checkpoints.

Exit status is non-zero on bad specs or unknown paths (2, with one
``error:`` line), or on a grid point failure (already-completed points
stay checkpointed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..perf import PerfRecorder
from ..resilience import run_cli_command
from .engine import CampaignEngine, _scan_checkpoints
from .plan import expand, run_key
from .results import ResultsTable
from .spec import CampaignSpec, load_spec
from .supervise import ChaosSpec, Resilience, RetryPolicy

__all__ = ["main"]


def default_out_dir(spec: CampaignSpec) -> Path:
    """``campaign-out/<name>`` under the current working directory."""
    return Path("campaign-out") / spec.name


def _resilience_from_args(args: argparse.Namespace) -> "Resilience | None":
    """Build the engine's fault policy from the run flags.

    ``None`` (no resilience flags given) keeps the historical
    raise-through contract.  ``--chaos`` implies a policy even when the
    retry knobs are left at their defaults: the injector lives in it,
    and its workers run supervised even with ``--jobs 1``.
    """
    if (
        args.retries is None
        and args.point_timeout is None
        and args.chaos is None
    ):
        return None
    retry = RetryPolicy() if args.retries is None else RetryPolicy(max_attempts=args.retries)
    return Resilience(
        retry=retry,
        point_timeout_s=args.point_timeout,
        chaos=ChaosSpec.parse(args.chaos) if args.chaos else None,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    if args.limit is not None:
        spec = spec.with_limit(args.limit)
    out_dir = Path(args.out_dir) if args.out_dir else default_out_dir(spec)
    perf = PerfRecorder(enabled=args.perf)
    resilience = _resilience_from_args(args)
    engine = CampaignEngine(
        spec,
        out_dir=out_dir,
        jobs=args.jobs,
        use_trace_store=not args.no_trace_store,
        trace_store_dir=args.trace_store_dir,
        resume=not args.no_resume,
        perf=perf,
        resilience=resilience,
        hang_timeout_s=args.hang_timeout,
        respawn_budget=args.respawn_budget,
    )
    result = engine.run(log=None if args.quiet else sys.stderr)
    if args.perf:
        for line in perf.summary_lines():
            print(f"[perf] {line}", file=sys.stderr)
    print(
        f"campaign {spec.name!r}: {len(result.plan)} point(s) "
        f"({result.n_resumed} resumed, {result.n_computed} computed)"
    )
    if result.n_quarantined:
        print(
            f"quarantined: {result.n_quarantined} point(s) exhausted their "
            f"retry budget (rows carry status/error/attempts)"
        )
    if result.n_degraded:
        print(f"degraded: {result.n_degraded} absorbed failure(s), see {out_dir / 'degraded.log'}")
    print(f"results: {out_dir / 'results.csv'}")
    print(f"report:  {out_dir / 'report.md'}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    if args.limit is not None:
        spec = spec.with_limit(args.limit)
    plan = expand(spec)
    print(f"campaign {spec.name!r} [{spec.action}]: {len(plan)} point(s)")
    for point in plan.points:
        key = run_key(spec, point)
        print(
            f"  {key}  workload={point.workload} device={point.device.name} "
            f"method={point.method} n={point.n_requests}"
        )
    return 0


def _rebuild_table(out_dir: Path) -> tuple[ResultsTable, int, int] | None:
    """Rebuild a campaign directory's table from its checkpoints.

    Needs the ``spec.json`` the engine writes when work starts; returns
    ``(table, completed, total)`` in plan order, or ``None`` when the
    directory holds no usable campaign state.
    """
    spec_path = out_dir / "spec.json"
    if not spec_path.exists():
        return None
    spec = CampaignSpec.from_dict(json.loads(spec_path.read_text(encoding="utf-8")))
    plan = expand(spec)
    completed = _scan_checkpoints(out_dir, plan.keys())
    rows = [completed[key] for key in plan.keys() if key in completed]
    return ResultsTable.from_rows(rows), len(rows), len(plan)


def _cmd_report(args: argparse.Namespace) -> int:
    """Print a campaign directory's table, rebuilt from its checkpoints.

    The segments are the one stored copy of the rows, so a finished
    campaign prints what its ``results.csv`` holds, and an interrupted
    one prints the points it checkpointed, with a note on stderr saying
    how many are missing.
    """
    out_dir = Path(args.out_dir)
    rebuilt = _rebuild_table(out_dir)
    if rebuilt is None or len(rebuilt[0]) == 0:
        print(f"no campaign results under {out_dir}", file=sys.stderr)
        return 1
    table, completed, total = rebuilt
    if completed < total:
        print(
            f"partial campaign: {completed}/{total} point(s) checkpointed "
            f"(re-run `repro-campaign run` to finish)",
            file=sys.stderr,
        )
    if args.format == "csv":
        print(table.to_csv(), end="")
    else:
        print(table.to_markdown())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-campaign`` argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Declarative device x workload sweep campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a campaign spec (resumes from checkpoints)")
    run.add_argument("spec", help="path to a .yaml/.json campaign spec")
    run.add_argument("--out-dir", default=None, help="output directory (default campaign-out/<name>)")
    run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, supervised when more than one (default 1: inline)",
    )
    run.add_argument("--limit", type=int, default=None, help="cap the grid at N points (smoke runs)")
    run.add_argument("--no-resume", action="store_true", help="ignore existing checkpoints")
    run.add_argument(
        "--no-trace-store", action="store_true",
        help="regenerate traces in memory; skip the binary trace store",
    )
    run.add_argument(
        "--trace-store-dir", default=None,
        help="binary trace-store directory (default: $REPRO_TRACE_STORE_DIR or ~/.cache)",
    )
    run.add_argument(
        "--perf", action="store_true",
        help="print plan/resume/compute/aggregate stage timings to stderr",
    )
    run.add_argument(
        "--retries", type=int, default=None,
        help="total attempts per point before quarantine (enables the "
        "retry/backoff/quarantine policy; default: off, failures raise)",
    )
    run.add_argument(
        "--point-timeout", type=float, default=None,
        help="per-point wall-clock budget in seconds (a hung point raises "
        "a transient timeout and retries; enables the retry policy)",
    )
    run.add_argument(
        "--hang-timeout", type=float, default=None,
        help="worker processes: heartbeat staleness (s) before a worker is "
        "declared hung, killed and its lease reclaimed (default: no "
        "deadline; dead workers are always reclaimed)",
    )
    run.add_argument(
        "--respawn-budget", type=int, default=None,
        help="worker processes: total replacement workers (default 2x jobs)",
    )
    run.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault injection, e.g. 'kill@3,hang@5,exc@2,"
        "poison@7,corrupt@4' (kind@plan-index); runs supervised workers "
        "even with --jobs 1, and a hang needs --hang-timeout or --point-timeout",
    )
    run.add_argument("--quiet", action="store_true", help="suppress progress logging")
    run.set_defaults(func=_cmd_run)

    plan = sub.add_parser("plan", help="print the expanded grid without running it")
    plan.add_argument("spec", help="path to a .yaml/.json campaign spec")
    plan.add_argument("--limit", type=int, default=None, help="cap the grid at N points")
    plan.set_defaults(func=_cmd_plan)

    report = sub.add_parser("report", help="re-render a campaign directory's results table")
    report.add_argument("out_dir", help="campaign output directory")
    report.add_argument("--format", choices=("md", "csv"), default="md")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (the ``repro-campaign`` console script)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_cli_command(args.func, args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
