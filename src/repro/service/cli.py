"""``repro-serve``: run and inspect the streaming reconstruction daemon.

Two subcommands:

``repro-serve run``
    Start a daemon: tail one growing trace file, reconstructing for a
    target device as records arrive.  Blocks until end-of-stream
    (``--until-idle``), SIGTERM drain, or permanent failure; exit code
    0 for ``finished``/``stopped``, 1 for ``failed``, 2 for a bad
    argument such as a segment-directory or socket source spec.  One
    checkpoint commit covers at most ``--queue-high`` chunks: a
    catch-up commits once per ``--queue-high`` chunks, a live tail
    after every chunk.  SIGTERM or SIGINT commits the chunks handled
    so far and exits resumably.

``repro-serve status``
    Print the daemon's last published ``status.json`` with the
    heartbeat age — runnable from anywhere the work directory is
    visible, whether or not the daemon is alive.

Examples::

    repro-serve run --source file:old.csv --workdir /var/run/stream \\
        --device new-node --until-idle 1.0
    repro-serve run --source old.csv --workdir /var/run/stream \\
        --device hdd --queue-high 16
    repro-serve status --workdir /var/run/stream
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from ..campaign.devices import build_device
from ..resilience import heartbeat_age_s, run_cli_command
from .daemon import ServiceConfig, StreamingReconstructionService
from .sources import parse_source_spec

__all__ = ["main"]


def _parse_device_params(pairs: list[str]) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"bad --device-param {pair!r}: expected key=value")
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    return params


def _cmd_run(args: argparse.Namespace) -> int:
    source = parse_source_spec(args.source)
    workdir = Path(args.workdir)
    device = build_device(args.device, _parse_device_params(args.device_param))
    config = ServiceConfig(
        fmt=args.fmt,
        chunk_requests=args.chunk_requests,
        queue_high=args.queue_high,
        until_idle_s=args.until_idle,
        status_interval_s=args.status_interval,
        name=args.name,
    )
    service = StreamingReconstructionService(source, device, workdir, config)
    metrics = service.run()
    outcome = service.outcome
    if outcome == "failed":
        print(f"repro-serve: failed: see {service.status_path}", file=sys.stderr)
        return 1
    summary = {"outcome": outcome, "workdir": str(workdir)}
    if metrics is not None:
        summary["n_requests"] = metrics.n_requests
        summary["new_duration_us"] = metrics.new_duration_us
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    workdir = Path(args.workdir)
    status_path = workdir / "status.json"
    try:
        status = json.loads(status_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"repro-serve: no status at {status_path}", file=sys.stderr)
        return 1
    age = heartbeat_age_s(workdir / "heartbeat")
    status["heartbeat_age_s"] = None if age == float("inf") else age
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-serve`` argument parser (run / status)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Always-on streaming trace reconstruction service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start a streaming reconstruction daemon")
    run.add_argument(
        "--source",
        required=True,
        help="the trace file to tail: file:PATH or a bare path",
    )
    run.add_argument("--workdir", required=True, help="state directory (sink, checkpoint, status)")
    run.add_argument("--fmt", default="internal", help="trace dialect (default: internal)")
    run.add_argument("--device", default="new-node", help="target device kind or preset")
    run.add_argument(
        "--device-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="device constructor parameter (repeatable)",
    )
    run.add_argument("--name", default="stream", help="workload name for the trace")
    run.add_argument("--chunk-requests", type=int, default=256, help="rows per chunk")
    run.add_argument(
        "--queue-high",
        type=int,
        default=8,
        help="the most chunks one checkpoint commit covers (default: 8); "
        "a live tail commits after every chunk",
    )
    run.add_argument(
        "--until-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="declare end-of-stream after this much source idleness "
        "(default: follow forever, drain on SIGTERM)",
    )
    run.add_argument(
        "--status-interval", type=float, default=1.0, help="status/heartbeat period (s)"
    )
    run.set_defaults(func=_cmd_run)

    status = sub.add_parser("status", help="print a daemon's status page")
    status.add_argument("--workdir", required=True, help="the daemon's state directory")
    status.set_defaults(func=_cmd_status)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_cli_command(args.func, args)
    except KeyboardInterrupt:
        return 130
    except ValueError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
