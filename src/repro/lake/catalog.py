"""SQLite-backed metadata catalog of the content-addressed result lake.

:class:`LakeCatalog` is a **rebuildable index** over flat on-disk
artifacts — trace-store ``.npz`` entries, campaign checkpoint
directories, results tables.  The flat files stay the source of truth;
every row the catalog holds is derivable from them, which is what makes
``repro-lake ingest --rescan`` a full recovery path (and the migration
path for pre-lake directories).

Schema v2, three tables:

- ``artifacts`` — one row per distinct *content* (``fingerprint`` =
  file SHA-256), holding kind, canonical path, and size.  Ingesting the
  same bytes from two paths dedups to one row.
- ``artifact_refs`` — the references pointing at a content row (store
  keys, campaign labels, extra paths); dedup means one artifact row
  with many refs.
- ``campaign_points`` — one row per completed campaign grid point,
  keyed by the engine's run key, carrying the spec fingerprint, axis
  values, the result row as canonical JSON, the checkpoint file that
  holds it, and the measured wall time.  This table is what makes
  campaigns incremental *across* runs: a new campaign skips any run
  key some prior campaign already computed, wherever it ran.

Durability: connections run in WAL mode with a busy timeout, every
mutation is one transaction retried a bounded number of times on lock
contention (exponential backoff), and all writes are idempotent upserts
— a process killed mid-ingest leaves only committed rows, and
re-running the ingest (or a full ``--rescan``) converges to the same
row set.

A file this build cannot open as a catalog — another schema version,
or bytes that are not an SQLite database — raises :class:`LakeError`
naming the rescan; ``repro-lake ingest --rescan`` moves such a file
aside to ``<db>.bad`` and rebuilds at the original path.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Any, Callable, TypeVar

from ..campaign.results import canonical_row_json
from ..trace.io.fingerprint import file_sha256
from ..trace.trace import BlockTrace

__all__ = [
    "SCHEMA_VERSION",
    "LakeCatalog",
    "LakeError",
    "default_lake_path",
    "spec_fingerprint",
]

#: Environment override for the default catalog location.
_ENV_DB = "REPRO_LAKE_DB"


def default_lake_path() -> Path:
    """``$REPRO_LAKE_DB`` or ``~/.cache/repro-tracetracker/lake.sqlite``."""
    env = os.environ.get(_ENV_DB)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-tracetracker" / "lake.sqlite"

#: Bump on any incompatible change to the table layout.  Stored in the
#: ``lake_meta`` table; opening a catalog with a different stamp raises
#: (rebuild with ``repro-lake ingest --rescan``).
SCHEMA_VERSION = 2

#: The tables holding catalog rows (``lake_meta`` holds the stamp).
_TABLES = ("artifacts", "artifact_refs", "campaign_points")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS lake_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS artifacts (
    fingerprint TEXT PRIMARY KEY,
    kind        TEXT NOT NULL,
    path        TEXT NOT NULL,
    size_bytes  INTEGER NOT NULL,
    meta_json   TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_artifacts_kind ON artifacts (kind);
CREATE TABLE IF NOT EXISTS artifact_refs (
    fingerprint TEXT NOT NULL,
    ref         TEXT NOT NULL,
    PRIMARY KEY (fingerprint, ref)
);
CREATE TABLE IF NOT EXISTS campaign_points (
    run_key          TEXT PRIMARY KEY,
    spec_fingerprint TEXT NOT NULL,
    campaign         TEXT NOT NULL,
    action           TEXT NOT NULL,
    workload         TEXT NOT NULL,
    device_name      TEXT NOT NULL,
    device_kind      TEXT NOT NULL,
    method           TEXT NOT NULL,
    n_requests       INTEGER NOT NULL,
    queue_depth      REAL,
    row_json         TEXT NOT NULL,
    source_dir       TEXT,
    checkpoint_file  TEXT,
    wall_s           REAL
);
CREATE INDEX IF NOT EXISTS idx_points_workload ON campaign_points (workload);
CREATE INDEX IF NOT EXISTS idx_points_device_kind ON campaign_points (device_kind);
CREATE INDEX IF NOT EXISTS idx_points_spec ON campaign_points (spec_fingerprint);
"""


class LakeError(RuntimeError):
    """The catalog cannot be used (wrong schema version, bad database)."""


_T = TypeVar("_T")

#: Bounded retry for write transactions that lose the lock race even
#: after SQLite's own busy timeout (WAL still serialises writers; under
#: heavy multi-process recording the timeout can expire spuriously).
_LOCKED_ATTEMPTS = 5
_LOCKED_BASE_DELAY_S = 0.05


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    """Whether an OperationalError is the transient lock/busy kind."""
    message = str(exc).lower()
    return "locked" in message or "busy" in message


def _write_with_retry(write: Callable[[], _T]) -> _T:
    """Run one write transaction, retrying lock contention with backoff.

    Only ``database is locked``/``busy`` errors retry — they are
    contention, and the colliding transaction will commit and release.
    Every other ``OperationalError`` (malformed database, read-only
    file, out of disk) raises immediately: retrying cannot fix it.
    """
    for attempt in range(_LOCKED_ATTEMPTS):
        try:
            return write()
        except sqlite3.OperationalError as exc:
            if not _is_locked(exc) or attempt == _LOCKED_ATTEMPTS - 1:
                raise
            time.sleep(_LOCKED_BASE_DELAY_S * 2**attempt)
    raise AssertionError("unreachable")


def spec_fingerprint(spec_dict: dict[str, Any]) -> str:
    """Stable SHA-1 fingerprint of a campaign spec's canonical dict.

    Name and description are part of the dict on purpose here — the
    fingerprint identifies *which spec* recorded a point (provenance),
    while cross-campaign dedup keys on the run key, which excludes
    them (:func:`repro.campaign.plan.run_key`).
    """
    canonical = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:20]


def _canonical_json(value: Any) -> str:
    """Sorted-key, separator-free JSON — one byte form per value.

    Rows persisted to ``campaign_points`` share their byte form with
    :func:`repro.campaign.results.canonical_row_json`; this helper
    extends the same encoding to non-mapping values (lists, dumps).
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class LakeCatalog:
    """A WAL-mode SQLite catalog over one result lake.

    Parameters
    ----------
    path:
        Database file (created with the current schema when missing).
    timeout_s:
        SQLite busy timeout — concurrent writers (parallel campaign
        workers recording points) wait this long for the lock instead
        of failing with ``database is locked``.
    """

    def __init__(self, path: str | Path, timeout_s: float = 30.0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), timeout=timeout_s)
        try:
            version = self._open_schema(timeout_s)
        except sqlite3.OperationalError:
            # Lock contention and I/O failures: a rebuild cures neither.
            self.close()
            raise
        except sqlite3.DatabaseError as exc:
            self.close()
            raise LakeError(
                f"{self.path} is not a lake catalog ({exc}); rebuild with "
                f"'repro-lake ingest --rescan'"
            ) from exc
        if int(version) != SCHEMA_VERSION:
            self.close()
            raise LakeError(
                f"{self.path} has lake schema version {version}; this build "
                f"reads version {SCHEMA_VERSION} — rebuild with "
                f"'repro-lake ingest --rescan'"
            )

    def _open_schema(self, timeout_s: float) -> str:
        """Set the connection pragmas, create missing tables; the stored stamp."""
        # Connections opening a fresh file together race twice: SQLite
        # answers the switch to WAL with "locked" without waiting, and
        # each may find no version row yet.  So both steps retry, and
        # the version row is inserted idempotently, then read back.
        _write_with_retry(lambda: self._conn.execute("PRAGMA journal_mode=WAL"))
        self._conn.execute(f"PRAGMA busy_timeout={int(timeout_s * 1000)}")
        self._conn.execute("PRAGMA synchronous=NORMAL")

        def _init_schema() -> str:
            with self._conn:
                self._conn.executescript(_SCHEMA)
                self._conn.execute(
                    "INSERT OR IGNORE INTO lake_meta (key, value) "
                    "VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
                return self._conn.execute(
                    "SELECT value FROM lake_meta WHERE key='schema_version'"
                ).fetchone()[0]

        return _write_with_retry(_init_schema)

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "LakeCatalog":
        """Context-manager entry: the open catalog itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    def __repr__(self) -> str:
        return f"LakeCatalog({self.path})"

    # -- artifacts -----------------------------------------------------

    def record_artifact(
        self,
        kind: str,
        path: str | Path,
        ref: str | None = None,
        fingerprint: str | None = None,
        meta: dict[str, Any] | None = None,
    ) -> str:
        """Upsert one on-disk artifact; returns its content fingerprint.

        The fingerprint defaults to the file's SHA-256, so re-ingesting
        identical bytes — same file, a copy, a bit-identical regenerate
        — lands on the existing row (the canonical ``path`` is the
        lexicographically smallest seen, which keeps rescans of one
        tree byte-deterministic).  ``ref`` adds a reference edge.
        Paths are stored resolved, so cataloging the same file through
        a relative path (e.g. ``repro-lake ingest ./runs``) lands on
        the same row the live producers wrote.

        Rows whose canonical path equals this one but whose content
        differs are **superseded** (dropped with their refs): the file
        was rewritten, the old bytes are gone, and keeping the stale
        row would make a live-recorded catalog diverge from a rescan of
        the same tree.
        """
        p = Path(path).resolve()
        if fingerprint is None:
            fingerprint = file_sha256(p)
        size = p.stat().st_size
        text = str(p)

        def _write() -> None:
            with self._conn:
                stale = [
                    r[0]
                    for r in self._conn.execute(
                        "SELECT fingerprint FROM artifacts WHERE path = ? AND fingerprint != ?",
                        (text, fingerprint),
                    )
                ]
                for old in stale:
                    self._conn.execute("DELETE FROM artifacts WHERE fingerprint = ?", (old,))
                    self._conn.execute(
                        "DELETE FROM artifact_refs WHERE fingerprint = ?", (old,)
                    )
                self._conn.execute(
                    """
                    INSERT INTO artifacts (fingerprint, kind, path, size_bytes, meta_json)
                    VALUES (?, ?, ?, ?, ?)
                    ON CONFLICT(fingerprint) DO UPDATE SET
                        kind = excluded.kind,
                        path = MIN(artifacts.path, excluded.path),
                        size_bytes = excluded.size_bytes,
                        meta_json = excluded.meta_json
                    """,
                    (fingerprint, kind, text, size, _canonical_json(meta or {})),
                )
                if ref is not None:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO artifact_refs (fingerprint, ref) VALUES (?, ?)",
                        (fingerprint, ref),
                    )

        _write_with_retry(_write)
        return fingerprint

    def artifact(self, fingerprint: str) -> dict[str, Any] | None:
        """One artifact row as a dict, or ``None``."""
        row = self._conn.execute(
            "SELECT fingerprint, kind, path, size_bytes, meta_json "
            "FROM artifacts WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if row is None:
            return None
        return {
            "fingerprint": row[0],
            "kind": row[1],
            "path": row[2],
            "size_bytes": row[3],
            "meta": json.loads(row[4]),
        }

    def artifacts(self, kind: str | None = None) -> list[dict[str, Any]]:
        """All artifact rows (optionally one kind), fingerprint order."""
        sql = "SELECT fingerprint FROM artifacts"
        args: tuple[Any, ...] = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            args = (kind,)
        fingerprints = [r[0] for r in self._conn.execute(sql + " ORDER BY fingerprint", args)]
        return [self.artifact(f) for f in fingerprints]  # type: ignore[misc]

    def refs(self, fingerprint: str) -> list[str]:
        """Every reference recorded against one content fingerprint."""
        return [
            r[0]
            for r in self._conn.execute(
                "SELECT ref FROM artifact_refs WHERE fingerprint = ? ORDER BY ref",
                (fingerprint,),
            )
        ]

    # -- traces --------------------------------------------------------

    def record_trace(
        self, path: str | Path, trace: BlockTrace, ref: str | None = None
    ) -> str:
        """Catalog one stored trace as a ``trace`` artifact row.

        ``trace`` must be the decoded contents of ``path`` (the
        producers hold it in hand; the rescan path loads it); its name
        and length become the row's meta.  Returns the content
        fingerprint.
        """
        meta = {"name": trace.name, "n_requests": int(len(trace))}
        return self.record_artifact("trace", path, ref=ref, meta=meta)

    # -- campaign points -----------------------------------------------

    def record_point(
        self,
        run_key: str,
        spec_fp: str,
        campaign: str,
        action: str,
        row: dict[str, Any],
        device_kind: str,
        queue_depth: float | None = None,
        source_dir: str | None = None,
        checkpoint_file: str | None = None,
        wall_s: float | None = None,
    ) -> None:
        """Upsert one completed campaign grid point.

        The axis values (workload/device/method/n_requests) are read
        from ``row`` — every engine checkpoint row carries them.  The
        upsert is atomic and last-writer-wins, matching the engine's
        checkpoint overwrite semantics.
        """
        def _write() -> None:
            with self._conn:
                self._conn.execute(
                    """
                    INSERT INTO campaign_points (
                        run_key, spec_fingerprint, campaign, action, workload,
                        device_name, device_kind, method, n_requests, queue_depth,
                        row_json, source_dir, checkpoint_file, wall_s
                    ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    ON CONFLICT(run_key) DO UPDATE SET
                        spec_fingerprint = excluded.spec_fingerprint,
                        campaign = excluded.campaign,
                        action = excluded.action,
                        workload = excluded.workload,
                        device_name = excluded.device_name,
                        device_kind = excluded.device_kind,
                        method = excluded.method,
                        n_requests = excluded.n_requests,
                        queue_depth = excluded.queue_depth,
                        row_json = excluded.row_json,
                        source_dir = excluded.source_dir,
                        checkpoint_file = excluded.checkpoint_file,
                        wall_s = excluded.wall_s
                    """,
                    (
                        run_key,
                        spec_fp,
                        campaign,
                        action,
                        str(row.get("workload", "")),
                        str(row.get("device", "")),
                        device_kind,
                        str(row.get("method", "")),
                        int(row.get("n_requests", 0)),
                        queue_depth,
                        canonical_row_json(row),
                        source_dir,
                        checkpoint_file,
                        wall_s,
                    ),
                )

        _write_with_retry(_write)

    def completed_rows(self, run_keys: list[str]) -> dict[str, dict[str, Any]]:
        """The recorded result rows for the given run keys.

        The engine's cross-campaign resume query: whatever subset of
        ``run_keys`` any prior campaign recorded comes back as
        ``{run_key: row}``, decoded from the canonical JSON.
        """
        out: dict[str, dict[str, Any]] = {}
        chunk = 500  # stay clear of SQLite's bound-parameter limit
        for start in range(0, len(run_keys), chunk):
            wanted = run_keys[start : start + chunk]
            marks = ",".join("?" for _ in wanted)
            for key, text in self._conn.execute(
                f"SELECT run_key, row_json FROM campaign_points WHERE run_key IN ({marks})",
                wanted,
            ):
                out[key] = json.loads(text)
        return out

    def query_points(
        self,
        workload: str | None = None,
        device_kind: str | None = None,
        device_name: str | None = None,
        method: str | None = None,
        action: str | None = None,
        campaign: str | None = None,
        min_queue_depth: float | None = None,
        min_n_requests: int | None = None,
    ) -> list[dict[str, Any]]:
        """Cross-campaign point query (AND of the given filters).

        The ROADMAP's motivating example — "all flash_array runs at
        qd≥8 touching workload X" — is
        ``query_points(device_kind="flash_array", min_queue_depth=8,
        workload="X")``.  Rows come back run-key-sorted, each the full
        decoded result row plus the catalog's provenance columns.
        """
        clauses: list[str] = []
        args: list[Any] = []
        for column, value in (
            ("workload", workload),
            ("device_kind", device_kind),
            ("device_name", device_name),
            ("method", method),
            ("action", action),
            ("campaign", campaign),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                args.append(value)
        if min_queue_depth is not None:
            clauses.append("queue_depth >= ?")
            args.append(min_queue_depth)
        if min_n_requests is not None:
            clauses.append("n_requests >= ?")
            args.append(min_n_requests)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        out = []
        for record in self._conn.execute(
            "SELECT run_key, spec_fingerprint, campaign, action, device_kind, "
            f"queue_depth, row_json, source_dir, checkpoint_file, wall_s "
            f"FROM campaign_points {where} ORDER BY run_key",
            args,
        ):
            row = json.loads(record[6])
            row.update(
                {
                    "run_key": record[0],
                    "spec_fingerprint": record[1],
                    "campaign": record[2],
                    "action": record[3],
                    "device_kind": record[4],
                    "queue_depth": record[5],
                    "source_dir": record[7],
                    "checkpoint_file": record[8],
                    "wall_s": record[9],
                }
            )
            out.append(row)
        return out

    # -- maintenance ---------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Row counts per table (the ``repro-lake stats`` payload)."""
        return {
            table: int(self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0])
            for table in _TABLES
        }

    def clear(self) -> None:
        """Drop every row (``ingest --rescan`` rebuilds from the tree)."""
        with self._conn:
            for table in _TABLES:
                self._conn.execute(f"DELETE FROM {table}")

    def gc(self) -> dict[str, int]:
        """Drop rows whose backing files no longer exist.

        Artifacts (with their refs) whose ``path`` is gone, and
        campaign points whose checkpoint file under ``source_dir`` is
        gone, are removed in one transaction.
        Returns ``{"artifacts": n, "campaign_points": m}``.
        """
        dead_artifacts = [
            fp
            for fp, path in self._conn.execute("SELECT fingerprint, path FROM artifacts")
            if not Path(path).exists()
        ]
        dead_points = []
        for key, source, name in self._conn.execute(
            "SELECT run_key, source_dir, checkpoint_file FROM campaign_points"
        ):
            if source is None or name is None:
                continue
            if not (Path(source) / "runs" / name).exists():
                dead_points.append(key)
        with self._conn:
            for fp in dead_artifacts:
                self._conn.execute("DELETE FROM artifacts WHERE fingerprint = ?", (fp,))
                self._conn.execute("DELETE FROM artifact_refs WHERE fingerprint = ?", (fp,))
            for key in dead_points:
                self._conn.execute("DELETE FROM campaign_points WHERE run_key = ?", (key,))
        return {"artifacts": len(dead_artifacts), "campaign_points": len(dead_points)}

    def dump_rows(self) -> str:
        """Canonical JSON dump of every table, deterministically ordered.

        The byte-equivalence oracle of the crash/rescan tests: two
        catalogs hold the same logical content iff their dumps match
        byte for byte (connection state, WAL frames, vacuum history,
        and row insertion order never show through).
        """
        doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        doc["artifacts"] = [
            list(r)
            for r in self._conn.execute(
                "SELECT fingerprint, kind, path, size_bytes, meta_json "
                "FROM artifacts ORDER BY fingerprint"
            )
        ]
        doc["artifact_refs"] = [
            list(r)
            for r in self._conn.execute(
                "SELECT fingerprint, ref FROM artifact_refs ORDER BY fingerprint, ref"
            )
        ]
        doc["campaign_points"] = [
            list(r)
            for r in self._conn.execute(
                "SELECT run_key, spec_fingerprint, campaign, action, workload, "
                "device_name, device_kind, method, n_requests, queue_depth, "
                "row_json, source_dir, checkpoint_file, wall_s "
                "FROM campaign_points ORDER BY run_key"
            )
        ]
        return _canonical_json(doc)
