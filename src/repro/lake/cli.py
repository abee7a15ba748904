"""The ``repro-lake`` command line interface.

Four subcommands over one catalog database (``--db``, defaulting to
``$REPRO_LAKE_DB`` or ``~/.cache/repro-tracetracker/lake.sqlite``):

``repro-lake ingest <path>... [--rescan]``
    Walk directory trees (or single ``.npz`` files) and catalog every
    campaign directory and trace-store entry found.  ``--rescan``
    clears the catalog first — the full rebuild that recovers a
    deleted catalog from the flat files, and the migration path for
    pre-lake directories.  A catalog it cannot open (another schema
    version, or not a database) it moves to ``<db>.bad``, with its
    ``-wal``/``-shm`` siblings, warns, and rebuilds at ``<db>``.

``repro-lake query [--workload W] [--device-kind K] [--min-qd N] ...``
    Cross-campaign point queries ("all flash_array runs at qd≥8
    touching workload X"), rendered as markdown or CSV through the
    campaign results table.

``repro-lake gc``
    Drop rows whose backing files no longer exist.

``repro-lake stats``
    Row counts per table.

Exit status is 2 on unknown paths, on a catalog SQLite cannot open at
all (a directory, an unreadable file: ``--rescan`` moves nothing
aside), and, outside ``ingest --rescan``, on a catalog of another
schema version or a file that is not a database; it is 1 on an empty
``query``.
"""

from __future__ import annotations

import argparse
import os
import sqlite3
import sys
from pathlib import Path

from ..campaign.results import ResultsTable
from ..resilience import run_cli_command
from .catalog import LakeCatalog, LakeError, default_lake_path
from .ingest import ingest_tree

__all__ = ["main"]


def _open(args: argparse.Namespace) -> LakeCatalog:
    return LakeCatalog(args.db)


def _open_quarantining(db: Path) -> LakeCatalog:
    """Open ``db``; an unopenable catalog is first moved to ``<db>.bad``.

    The SQLite ``-wal``/``-shm`` siblings move with it, so the
    quarantined copy stays one database for diagnosis.
    """
    try:
        return LakeCatalog(db)
    except LakeError as exc:
        bad = db.with_name(db.name + ".bad")
        for suffix in ("", "-wal", "-shm"):
            source = db.with_name(db.name + suffix)
            if source.exists():
                os.replace(source, bad.with_name(bad.name + suffix))
        print(f"warning: moved {db} to {bad}: {exc}", file=sys.stderr)
    return LakeCatalog(db)


def _cmd_ingest(args: argparse.Namespace) -> int:
    catalog = _open_quarantining(Path(args.db)) if args.rescan else _open(args)
    with catalog:
        if args.rescan:
            catalog.clear()
        totals: dict[str, int] = {}
        for path in args.paths:
            p = Path(path)
            if not p.exists():
                print(f"error: no such path {p}", file=sys.stderr)
                return 2
            report = ingest_tree(catalog, p)
            for name, count in report.items():
                totals[name] = totals.get(name, 0) + count
        for name in sorted(totals):
            print(f"{name}: {totals[name]}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with _open(args) as catalog:
        rows = catalog.query_points(
            workload=args.workload,
            device_kind=args.device_kind,
            device_name=args.device,
            method=args.method,
            action=args.action,
            campaign=args.campaign,
            min_queue_depth=args.min_qd,
            min_n_requests=args.min_requests,
        )
    if not rows:
        print("no matching campaign points", file=sys.stderr)
        return 1
    table = ResultsTable.from_rows(rows)
    if args.format == "csv":
        print(table.to_csv(), end="")
    else:
        print(table.to_markdown())
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    with _open(args) as catalog:
        removed = catalog.gc()
    for name in sorted(removed):
        print(f"removed {name}: {removed[name]}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with _open(args) as catalog:
        counts = catalog.counts()
    for name in sorted(counts):
        print(f"{name}: {counts[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lake`` argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-lake",
        description="Content-addressed result lake: ingest, query and maintain the catalog.",
    )
    parser.add_argument(
        "--db",
        default=str(default_lake_path()),
        help="catalog database (default: $REPRO_LAKE_DB or ~/.cache)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="catalog directory trees / trace files")
    ingest.add_argument("paths", nargs="+", help="directories or .npz files to ingest")
    ingest.add_argument(
        "--rescan",
        action="store_true",
        help="clear the catalog first and rebuild it from the tree "
        "(an unopenable catalog is moved to <db>.bad)",
    )
    ingest.set_defaults(func=_cmd_ingest)

    query = sub.add_parser("query", help="cross-campaign grid-point queries")
    query.add_argument("--workload", default=None, help="exact workload name")
    query.add_argument("--device-kind", default=None, help="device registry kind")
    query.add_argument("--device", default=None, help="device display name")
    query.add_argument("--method", default=None, help="reconstruction method string")
    query.add_argument("--action", default=None, help="campaign action")
    query.add_argument("--campaign", default=None, help="campaign name")
    query.add_argument("--min-qd", type=float, default=None, help="minimum queue depth")
    query.add_argument(
        "--min-requests", type=int, default=None, help="minimum trace size"
    )
    query.add_argument("--format", choices=("md", "csv"), default="md")
    query.set_defaults(func=_cmd_query)

    gc = sub.add_parser("gc", help="drop rows whose backing files are gone")
    gc.set_defaults(func=_cmd_gc)

    stats = sub.add_parser("stats", help="row counts per catalog table")
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (the ``repro-lake`` console script)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_cli_command(args.func, args)
    except (LakeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except sqlite3.Error as exc:
        # Lock and I/O failures (a directory at --db, say) reach here
        # unwrapped: a rescan cures neither, so nothing is moved aside.
        print(f"error: cannot use the lake catalog {args.db}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
