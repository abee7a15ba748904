"""Result-lake catalog: dedup, queries, crash consistency, concurrency.

The lake's core contract (ISSUE: content-addressed result lake): the
SQLite catalog is a rebuildable index over flat files — a process
killed mid-ingest or mid-campaign leaves zero lost or duplicated rows
after restart, a full ``--rescan`` reproduces a live-recorded catalog
byte for byte (:meth:`LakeCatalog.dump_rows` is the oracle), and a
warm lake lets a brand-new campaign recompute nothing a prior campaign
already computed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.campaign.engine as engine_mod
from repro.campaign import CampaignEngine, CampaignSpec, DeviceSpec, expand
from repro.campaign.cli import main as campaign_main
from repro.lake import (
    SCHEMA_VERSION,
    LakeCatalog,
    LakeError,
    default_lake_path,
    ingest_tree,
    spec_fingerprint,
)
from repro.lake.cli import main as lake_main
from repro.trace import BlockTrace, TraceStore, save_trace_npz

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_trace(seed: int = 0, n: int = 64) -> BlockTrace:
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.random(n) * 100.0)
    ts -= ts[0]
    return BlockTrace(
        timestamps=ts,
        lbas=rng.integers(0, 1 << 40, n),
        sizes=rng.integers(1, 256, n),
        ops=rng.integers(0, 2, n).astype(np.int8),
        issues=ts + 0.5,
        completes=ts + rng.random(n) * 50 + 1,
        name=f"trace-{seed}",
    )


def _grid_spec(name: str = "lake-grid", workloads=("MSNFS", "ikki")) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        action="reconstruct",
        workloads=workloads,
        devices=(DeviceSpec("new", "new-node"), DeviceSpec("old", "old-node")),
        methods=("revision",),
        n_requests=(200,),
    )


def _synthetic_spec(sizes: tuple[int, ...], name: str = "lake-synth") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        action="synthetic",
        workloads=("MSNFS",),
        devices=(DeviceSpec("new", "new-node"),),
        methods=("revision",),
        n_requests=sizes,
        options={"iters_per_request": 3},
    )


def _point_row(i: int, **overrides) -> dict:
    row = {
        "workload": f"w{i % 3}",
        "device": f"d{i % 2}",
        "method": "revision",
        "n_requests": 100 + i,
        "metric": float(i),
    }
    row.update(overrides)
    return row


class _KillAfter:
    """Wrap ``run_point`` to simulate a crash after N completed points."""

    def __init__(self, original, n_points: int):
        self._original = original
        self.remaining = n_points
        self.calls = 0

    def __call__(self, spec, point):
        if self.remaining == 0:
            raise KeyboardInterrupt("simulated mid-shard kill")
        self.remaining -= 1
        self.calls += 1
        return self._original(spec, point)


@pytest.fixture
def counted_run_point(monkeypatch):
    original = engine_mod.run_point

    def install(kill_after: int | None = None):
        counter = _KillAfter(original, kill_after if kill_after is not None else 10**9)
        monkeypatch.setattr(engine_mod, "run_point", counter)
        return counter

    return install


# ----------------------------------------------------------------------
# Catalog basics
# ----------------------------------------------------------------------


class TestCatalogBasics:
    def test_schema_version_stamped_and_reopenable(self, tmp_path):
        db = tmp_path / "lake.sqlite"
        with LakeCatalog(db) as cat:
            cat.record_point("k1", "fp", "c", "a", _point_row(1), "hdd")
        with LakeCatalog(db) as cat:
            assert cat.counts()["campaign_points"] == 1

    def test_schema_version_mismatch_raises(self, tmp_path):
        db = tmp_path / "lake.sqlite"
        with LakeCatalog(db) as cat:
            cat._conn.execute("UPDATE lake_meta SET value='99' WHERE key='schema_version'")
            cat._conn.commit()
        with pytest.raises(LakeError, match="rescan"):
            LakeCatalog(db)

    def test_identical_bytes_dedup_to_one_row_two_refs(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "sub" / "b.bin"
        b.parent.mkdir()
        a.write_bytes(b"same content")
        b.write_bytes(b"same content")
        with LakeCatalog(tmp_path / "lake.sqlite") as cat:
            fp1 = cat.record_artifact("blob", a, ref="ref:a")
            fp2 = cat.record_artifact("blob", b, ref="ref:b")
            assert fp1 == fp2
            assert cat.counts()["artifacts"] == 1
            assert cat.refs(fp1) == ["ref:a", "ref:b"]
            # Canonical path is the lexicographically smallest seen.
            assert cat.artifact(fp1)["path"] == str(min(a, b))

    def test_rewritten_path_supersedes_stale_row(self, tmp_path):
        f = tmp_path / "results.csv"
        f.write_bytes(b"generation one")
        with LakeCatalog(tmp_path / "lake.sqlite") as cat:
            old = cat.record_artifact("results", f, ref="campaign:x")
            f.write_bytes(b"generation two")
            new = cat.record_artifact("results", f, ref="campaign:x")
            assert old != new
            assert cat.artifact(old) is None
            assert cat.refs(old) == []
            assert cat.counts()["artifacts"] == 1

    def test_record_trace_writes_named_trace_artifact(self, tmp_path):
        trace = make_trace(seed=1)
        path = save_trace_npz(trace, tmp_path / "t.npz")
        with LakeCatalog(tmp_path / "lake.sqlite") as cat:
            fp = cat.record_trace(path, trace, ref="store:abc")
            row = cat.artifact(fp)
            assert row["kind"] == "trace" and row["path"] == str(path.resolve())
            assert row["meta"] == {"name": "trace-1", "n_requests": 64}
            assert cat.refs(fp) == ["store:abc"]

    def test_record_point_upsert_last_writer_wins(self, tmp_path):
        with LakeCatalog(tmp_path / "lake.sqlite") as cat:
            cat.record_point("k", "fp1", "c1", "a", _point_row(1), "hdd", wall_s=1.0)
            cat.record_point("k", "fp2", "c2", "a", _point_row(2), "ssd", wall_s=2.0)
            assert cat.counts()["campaign_points"] == 1
            rows = cat.query_points(campaign="c2")
            assert len(rows) == 1 and rows[0]["wall_s"] == 2.0

    def test_completed_rows_chunks_past_parameter_limit(self, tmp_path):
        with LakeCatalog(tmp_path / "lake.sqlite") as cat:
            keys = [f"k{i:04d}" for i in range(1201)]
            for i, key in enumerate(keys):
                cat.record_point(key, "fp", "c", "a", _point_row(i), "hdd")
            got = cat.completed_rows(keys + ["missing"])
            assert len(got) == 1201
            assert got["k0007"] == _point_row(7)

    def test_query_points_flash_array_qd8_example(self, tmp_path):
        with LakeCatalog(tmp_path / "lake.sqlite") as cat:
            cat.record_point(
                "k1", "fp", "c", "replay", _point_row(1, workload="X"),
                "flash_array", queue_depth=16.0,
            )
            cat.record_point(
                "k2", "fp", "c", "replay", _point_row(2, workload="X"),
                "flash_array", queue_depth=4.0,
            )
            cat.record_point(
                "k3", "fp", "c", "replay", _point_row(3, workload="X"), "hdd",
                queue_depth=32.0,
            )
            cat.record_point(
                "k4", "fp", "c", "replay", _point_row(4, workload="Y"),
                "flash_array", queue_depth=32.0,
            )
            rows = cat.query_points(
                workload="X", device_kind="flash_array", min_queue_depth=8.0
            )
            assert [r["run_key"] for r in rows] == ["k1"]
            # No filters: every point, run-key order, provenance merged in.
            assert [r["run_key"] for r in cat.query_points()] == ["k1", "k2", "k3", "k4"]
            assert rows[0]["metric"] == 1.0 and rows[0]["queue_depth"] == 16.0

    def test_counts_and_clear(self, tmp_path):
        trace = make_trace(seed=2)
        path = save_trace_npz(trace, tmp_path / "t.npz")
        with LakeCatalog(tmp_path / "lake.sqlite") as cat:
            cat.record_trace(path, trace, ref="store:x")
            cat.record_point("k", "fp", "c", "a", _point_row(0), "hdd")
            assert cat.counts() == {
                "artifacts": 1,
                "artifact_refs": 1,
                "campaign_points": 1,
            }
            cat.clear()
            assert set(cat.counts().values()) == {0}

    def test_gc_drops_rows_with_missing_files(self, tmp_path):
        trace = make_trace(seed=3)
        kept = save_trace_npz(trace, tmp_path / "kept.npz")
        doomed = save_trace_npz(trace, tmp_path / "doomed" / "t.npz")
        camp = tmp_path / "camp"
        (camp / "runs").mkdir(parents=True)
        (camp / "runs" / "seg.jsonl").write_text("{}\n")
        with LakeCatalog(tmp_path / "lake.sqlite") as cat:
            cat.record_trace(kept, trace)
            cat.record_artifact("trace", doomed, ref="store:doomed")
            cat.record_point(
                "k-live", "fp", "c", "a", _point_row(0), "hdd",
                source_dir=str(camp), checkpoint_file="seg.jsonl",
            )
            cat.record_point(
                "k-dead", "fp", "c", "a", _point_row(1), "hdd",
                source_dir=str(camp), checkpoint_file="gone.jsonl",
            )
            doomed.unlink()
            removed = cat.gc()
            assert removed == {"artifacts": 1, "campaign_points": 1}
            assert cat.counts()["campaign_points"] == 1
            assert [r["run_key"] for r in cat.query_points()] == ["k-live"]

    def test_dump_rows_is_insertion_order_invariant(self, tmp_path):
        rows = [(f"k{i}", _point_row(i)) for i in range(6)]
        with LakeCatalog(tmp_path / "fwd.sqlite") as fwd:
            for key, row in rows:
                fwd.record_point(key, "fp", "c", "a", row, "hdd")
            forward = fwd.dump_rows()
        with LakeCatalog(tmp_path / "rev.sqlite") as rev:
            for key, row in reversed(rows):
                rev.record_point(key, "fp", "c", "a", row, "hdd")
            assert rev.dump_rows() == forward

    def test_default_lake_path_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LAKE_DB", str(tmp_path / "custom.sqlite"))
        assert default_lake_path() == tmp_path / "custom.sqlite"
        monkeypatch.delenv("REPRO_LAKE_DB")
        assert default_lake_path().name == "lake.sqlite"

    def test_spec_fingerprint_stable_and_name_sensitive(self):
        a = _grid_spec(name="one").to_dict()
        assert spec_fingerprint(a) == spec_fingerprint(json.loads(json.dumps(a)))
        assert spec_fingerprint(a) != spec_fingerprint(_grid_spec(name="two").to_dict())


# ----------------------------------------------------------------------
# Engine integration: live recording and cross-campaign skip
# ----------------------------------------------------------------------


class TestEngineIntegration:
    def test_engine_records_every_point_live(self, tmp_path):
        spec = _grid_spec()
        db = tmp_path / "lake.sqlite"
        result = CampaignEngine(
            spec, out_dir=tmp_path / "run", use_trace_store=False, lake=db
        ).run()
        with LakeCatalog(db) as cat:
            points = cat.query_points()
            assert len(points) == len(result.plan)
            assert {p["run_key"] for p in points} == set(expand(spec).keys())
            assert all(p["wall_s"] is not None and p["wall_s"] >= 0 for p in points)
            assert all(p["checkpoint_file"] for p in points)
            # Aggregate tables land as content-addressed artifacts.
            kinds = {a["kind"] for a in cat.artifacts()}
            assert kinds == {"results"}

    def test_warm_lake_recomputes_zero_points(self, tmp_path, counted_run_point):
        """ISSUE acceptance: engine skip count equals catalog hit count."""
        spec = _grid_spec()
        db = tmp_path / "lake.sqlite"
        first = CampaignEngine(
            spec, out_dir=tmp_path / "run1", use_trace_store=False, lake=db
        ).run()
        counter = counted_run_point()
        second = CampaignEngine(
            spec, out_dir=tmp_path / "run2", use_trace_store=False, lake=db
        ).run()
        assert counter.calls == 0
        assert second.n_computed == 0
        assert second.n_lake_hits == len(first.plan)
        with LakeCatalog(db) as cat:
            assert second.n_lake_hits == cat.counts()["campaign_points"]
        assert second.table == first.table

    def test_cross_campaign_skip_computes_only_new_points(
        self, tmp_path, counted_run_point
    ):
        """A *differently named* campaign reuses overlapping run keys —
        dedup keys on the run key, which excludes the campaign name."""
        db = tmp_path / "lake.sqlite"
        CampaignEngine(
            _grid_spec(name="first"), out_dir=tmp_path / "a",
            use_trace_store=False, lake=db,
        ).run()
        grown = _grid_spec(name="second", workloads=("MSNFS", "ikki", "CFS"))
        counter = counted_run_point()
        result = CampaignEngine(
            grown, out_dir=tmp_path / "b", use_trace_store=False, lake=db
        ).run()
        assert counter.calls == 2  # only CFS x {new, old}
        assert result.n_lake_hits == 4 and result.n_computed == 2

    def test_no_resume_ignores_lake(self, tmp_path, counted_run_point):
        spec = _grid_spec()
        db = tmp_path / "lake.sqlite"
        CampaignEngine(
            spec, out_dir=tmp_path / "a", use_trace_store=False, lake=db
        ).run()
        counter = counted_run_point()
        result = CampaignEngine(
            spec, out_dir=tmp_path / "b", use_trace_store=False, lake=db,
            resume=False,
        ).run()
        assert counter.calls == len(expand(spec))
        assert result.n_lake_hits == 0 and result.n_computed == len(expand(spec))

    def test_checkpoint_resume_takes_precedence_over_lake(
        self, tmp_path, counted_run_point
    ):
        spec = _grid_spec()
        db = tmp_path / "lake.sqlite"
        out = tmp_path / "run"
        CampaignEngine(spec, out_dir=out, use_trace_store=False, lake=db).run()
        counter = counted_run_point()
        again = CampaignEngine(spec, out_dir=out, use_trace_store=False, lake=db).run()
        assert counter.calls == 0
        assert again.n_resumed == len(expand(spec)) and again.n_lake_hits == 0

    def test_campaign_cli_reports_lake_hits(self, tmp_path, capsys):
        spec = _grid_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        db = tmp_path / "lake.sqlite"
        args = ["run", str(spec_path), "--quiet", "--no-trace-store"]
        assert campaign_main(args + ["--out-dir", str(tmp_path / "a"), "--lake", str(db)]) == 0
        first = capsys.readouterr().out
        assert "(0 resumed, 4 computed, 0 from lake)" in first
        assert campaign_main(args + ["--out-dir", str(tmp_path / "b"), "--lake", str(db)]) == 0
        second = capsys.readouterr().out
        assert "(0 resumed, 0 computed, 4 from lake)" in second
        # Without --lake the historical output format is unchanged.
        assert campaign_main(args + ["--out-dir", str(tmp_path / "c")]) == 0
        plain = capsys.readouterr().out
        assert "(0 resumed, 4 computed)" in plain and "from lake" not in plain


# ----------------------------------------------------------------------
# Rescan: the rebuildable-index invariant
# ----------------------------------------------------------------------


class TestRescan:
    def _live_and_tree(self, tmp_path) -> tuple[str, Path]:
        """A live-recorded catalog dump plus the tree it described."""
        db = tmp_path / "live.sqlite"
        spec = _grid_spec()
        CampaignEngine(
            spec, out_dir=tmp_path / "tree" / "run1", use_trace_store=False, lake=db
        ).run()
        CampaignEngine(
            spec, out_dir=tmp_path / "tree" / "run2", use_trace_store=False, lake=db
        ).run()
        with LakeCatalog(db) as cat:
            return cat.dump_rows(), tmp_path / "tree"

    def test_rescan_reproduces_live_catalog_byte_for_byte(self, tmp_path):
        live, tree = self._live_and_tree(tmp_path)
        with LakeCatalog(tmp_path / "rebuild.sqlite") as cat:
            report = ingest_tree(cat, tree)
            assert report["campaigns"] == 2 and report["skipped"] == 0
            assert cat.dump_rows() == live

    def test_rescan_cli_recovers_deleted_catalog(self, tmp_path):
        live, tree = self._live_and_tree(tmp_path)
        db = tmp_path / "live.sqlite"
        for suffix in ("", "-wal", "-shm"):
            p = Path(str(db) + suffix)
            if p.exists():
                p.unlink()
        assert lake_main(["--db", str(db), "ingest", str(tree), "--rescan"]) == 0
        with LakeCatalog(db) as cat:
            assert cat.dump_rows() == live

    def test_rescan_through_relative_paths_matches_live(self, tmp_path, monkeypatch):
        """`repro-lake ingest ./tree` (relative cwd paths) must land on
        the same rows live producers recorded through absolute paths —
        the catalog stores paths resolved, not as typed."""
        live, tree = self._live_and_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        with LakeCatalog(tmp_path / "rebuild.sqlite") as cat:
            ingest_tree(cat, Path(tree.name))
            assert cat.dump_rows() == live

    def test_reingest_is_idempotent(self, tmp_path):
        _, tree = self._live_and_tree(tmp_path)
        with LakeCatalog(tmp_path / "x.sqlite") as cat:
            ingest_tree(cat, tree)
            once = cat.dump_rows()
            ingest_tree(cat, tree)
            assert cat.dump_rows() == once

    def test_ingest_skips_garbage_without_failing(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "junk.npz").write_bytes(b"not an npz at all")
        bad = tree / "badcamp"
        bad.mkdir()
        (bad / "spec.json").write_text("{ this is not json")
        with LakeCatalog(tmp_path / "lake.sqlite") as cat:
            report = ingest_tree(cat, tree)
            assert report["skipped"] == 2
            assert report["campaigns"] == 0 and report["traces"] == 0

    def test_torn_segment_line_is_not_cataloged(self, tmp_path):
        _, tree = self._live_and_tree(tmp_path)
        segments = sorted((tree / "run1" / "runs").glob("segment-*.jsonl"))
        assert segments
        with segments[0].open("a") as handle:
            handle.write('{"key": "torn-off-mid-wri')  # no newline: a torn write
        with LakeCatalog(tmp_path / "x.sqlite") as cat:
            ingest_tree(cat, tree)
            keys = {r["run_key"] for r in cat.query_points()}
            assert keys == set(expand(_grid_spec()).keys())

    def test_trace_store_rescan_matches_live_registration(self, tmp_path):
        db = tmp_path / "live.sqlite"
        store = TraceStore(root=tmp_path / "store", lake=db)
        for seed in range(3):
            store.get_or_build(
                TraceStore.key_for("w", str(seed)), lambda s=seed: make_trace(s)
            )
        with LakeCatalog(db) as cat:
            live = cat.dump_rows()
            assert len(cat.artifacts("trace")) == 3
            fp = cat.artifacts("trace")[0]["fingerprint"]
            assert cat.refs(fp)[0].startswith("store:")
        with LakeCatalog(tmp_path / "rebuild.sqlite") as cat:
            ingest_tree(cat, tmp_path / "store")
            assert cat.dump_rows() == live

    def test_store_lake_registration_is_best_effort(self, tmp_path):
        # A lake path that cannot be a database never fails the build.
        bad = tmp_path / "not-a-dir"
        bad.write_text("file, not directory")
        store = TraceStore(root=tmp_path / "store", lake=bad / "lake.sqlite")
        trace = store.get_or_build(TraceStore.key_for("w"), lambda: make_trace(9))
        assert trace.content_fingerprint is not None


# ----------------------------------------------------------------------
# Crash consistency
# ----------------------------------------------------------------------


_KILL_MID_INGEST = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.lake.catalog import LakeCatalog
from repro.lake.ingest import ingest_tree

calls = 0
original = LakeCatalog.record_point
def killing_record_point(self, *args, **kwargs):
    global calls
    calls += 1
    if calls > {kill_after}:
        os.kill(os.getpid(), signal.SIGKILL)
    return original(self, *args, **kwargs)
LakeCatalog.record_point = killing_record_point

catalog = LakeCatalog({db!r})
ingest_tree(catalog, {tree!r})
"""


class TestCrashConsistency:
    def _tree(self, tmp_path) -> Path:
        CampaignEngine(
            _grid_spec(), out_dir=tmp_path / "tree" / "run", use_trace_store=False
        ).run()
        return tmp_path / "tree"

    def test_sigkill_mid_ingest_then_rescan_converges(self, tmp_path):
        """A process SIGKILLed between row commits loses nothing it
        committed, tears nothing, and a restarted ingest over the same
        database converges to exactly the clean full-scan row set."""
        tree = self._tree(tmp_path)
        db = tmp_path / "killed.sqlite"
        script = _KILL_MID_INGEST.format(
            src=REPO_SRC, db=str(db), tree=str(tree), kill_after=2
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert proc.returncode == -signal.SIGKILL

        with LakeCatalog(tmp_path / "clean.sqlite") as cat:
            ingest_tree(cat, tree)
            clean = json.loads(cat.dump_rows())
        with LakeCatalog(db) as cat:
            partial = json.loads(cat.dump_rows())
            # Zero torn rows: every surviving row is a complete clean row.
            for table in ("campaign_points", "artifacts", "artifact_refs"):
                for row in partial[table]:
                    assert row in clean[table], (table, row)
            assert len(partial["campaign_points"]) == 2
            # Restart: plain re-ingest, no special recovery path.
            ingest_tree(cat, tree)
            assert json.loads(cat.dump_rows()) == clean

    def test_kill_mid_campaign_then_resume_matches_rescan(
        self, tmp_path, counted_run_point
    ):
        spec = _grid_spec()
        db = tmp_path / "lake.sqlite"
        out = tmp_path / "run"
        counted_run_point(kill_after=2)
        with pytest.raises(KeyboardInterrupt):
            CampaignEngine(spec, out_dir=out, use_trace_store=False, lake=db).run()
        with LakeCatalog(db) as cat:
            rows = cat.query_points()
            assert len(rows) == 2  # the completed points, nothing torn
            assert all(json.loads(json.dumps(r)) == r for r in rows)

        counted_run_point()
        resumed = CampaignEngine(spec, out_dir=out, use_trace_store=False, lake=db).run()
        assert resumed.n_resumed == 2 and resumed.n_computed == 2
        with LakeCatalog(db) as cat:
            live = cat.dump_rows()
            assert cat.counts()["campaign_points"] == len(expand(spec))
        with LakeCatalog(tmp_path / "rebuild.sqlite") as cat:
            ingest_tree(cat, tmp_path / "run")
            assert cat.dump_rows() == live

    def test_rescan_after_crash_never_duplicates(self, tmp_path):
        tree = self._tree(tmp_path)
        db = tmp_path / "killed.sqlite"
        script = _KILL_MID_INGEST.format(
            src=REPO_SRC, db=str(db), tree=str(tree), kill_after=1
        )
        subprocess.run([sys.executable, "-c", script], capture_output=True)
        with LakeCatalog(db) as cat:
            for _ in range(3):
                ingest_tree(cat, tree)
            counts = cat.counts()
            assert counts["campaign_points"] == len(expand(_grid_spec()))
            assert counts["artifacts"] == 2  # results.npz + results.csv


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------


class TestConcurrency:
    def test_busy_timeout_and_wal_configured(self, tmp_path):
        with LakeCatalog(tmp_path / "lake.sqlite", timeout_s=7.0) as cat:
            assert cat._conn.execute("PRAGMA busy_timeout").fetchone()[0] == 7000
            assert cat._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"

    def test_two_parallel_workers_record_same_rows_as_serial(self, tmp_path):
        """jobs=2 writes every point through two concurrent worker
        connections; the recorded row set must equal the serial run's
        (a silently-dropped 'database is locked' write would show up
        here as a missing row)."""
        spec = _synthetic_spec(tuple(range(100, 112)))
        keys = expand(spec).keys()
        serial_db = tmp_path / "serial.sqlite"
        parallel_db = tmp_path / "parallel.sqlite"
        CampaignEngine(
            spec, out_dir=tmp_path / "serial", jobs=1,
            use_trace_store=False, lake=serial_db,
        ).run()
        CampaignEngine(
            spec, out_dir=tmp_path / "parallel", jobs=2,
            use_trace_store=False, lake=parallel_db,
        ).run()
        with LakeCatalog(serial_db) as a, LakeCatalog(parallel_db) as b:
            serial_rows = a.completed_rows(keys)
            parallel_rows = b.completed_rows(keys)
            assert len(serial_rows) == len(keys)
            assert parallel_rows == serial_rows

    def test_forked_workers_open_their_own_connections(self, tmp_path, monkeypatch):
        """An inline run caches a catalog in this process; the workers
        of a later jobs=2 run over the same lake must open their own
        instead of writing through the connection fork() copied."""
        opens = tmp_path / "opens.log"
        original = LakeCatalog.__init__

        def recording_init(self, *args, **kwargs):
            with open(opens, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            original(self, *args, **kwargs)

        monkeypatch.setattr(LakeCatalog, "__init__", recording_init)
        db = tmp_path / "lake.sqlite"
        CampaignEngine(
            _synthetic_spec((100, 101, 102)), out_dir=tmp_path / "inline",
            use_trace_store=False, lake=db,
        ).run()
        opens.unlink()
        spec = _synthetic_spec(tuple(range(200, 212)))
        CampaignEngine(
            spec, out_dir=tmp_path / "workers", jobs=2,
            use_trace_store=False, lake=db,
        ).run()
        worker_pids = set(opens.read_text().split()) - {str(os.getpid())}
        assert worker_pids
        keys = expand(spec).keys()
        with LakeCatalog(db) as cat:
            assert len(cat.completed_rows(keys)) == len(keys)

    def test_interleaved_writer_connections(self, tmp_path):
        db = tmp_path / "lake.sqlite"
        errors: list[Exception] = []

        def write(offset: int) -> None:
            try:
                with LakeCatalog(db) as cat:
                    for i in range(offset, offset + 40):
                        cat.record_point(f"k{i:03d}", "fp", "c", "a", _point_row(i), "hdd")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(o,)) for o in (0, 40)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        with LakeCatalog(db) as cat:
            assert cat.counts()["campaign_points"] == 80

    def test_concurrent_first_open_of_fresh_file(self, tmp_path):
        """Connections released together onto a missing file all open
        it: neither the switch to WAL ("database is locked") nor the
        schema-version row (UNIQUE constraint) may fail the loser."""
        errors: list[Exception] = []
        for k in range(20):
            db = tmp_path / f"lake{k}.sqlite"
            gate = threading.Barrier(6)

            def open_once() -> None:
                try:
                    gate.wait()
                    LakeCatalog(db).close()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=open_once) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with LakeCatalog(db) as cat:
                assert cat._conn.execute(
                    "SELECT value FROM lake_meta WHERE key='schema_version'"
                ).fetchall() == [(str(SCHEMA_VERSION),)]
        assert errors == []


# ----------------------------------------------------------------------
# repro-lake CLI
# ----------------------------------------------------------------------


class TestLakeCli:
    def test_stats_query_and_gc_round_trip(self, tmp_path, capsys):
        db = tmp_path / "lake.sqlite"
        CampaignEngine(
            _grid_spec(), out_dir=tmp_path / "run", use_trace_store=False, lake=db
        ).run()
        assert lake_main(["--db", str(db), "stats"]) == 0
        assert "campaign_points: 4" in capsys.readouterr().out
        assert lake_main(["--db", str(db), "query", "--workload", "MSNFS"]) == 0
        out = capsys.readouterr().out
        assert "MSNFS" in out and "ikki" not in out
        assert lake_main(["--db", str(db), "query", "--workload", "nope"]) == 1
        capsys.readouterr()
        assert lake_main(["--db", str(db), "gc"]) == 0

    def test_query_csv_format(self, tmp_path, capsys):
        db = tmp_path / "lake.sqlite"
        with LakeCatalog(db) as cat:
            cat.record_point("k", "fp", "c", "a", _point_row(0), "hdd")
        assert lake_main(["--db", str(db), "query", "--format", "csv"]) == 0
        assert "workload" in capsys.readouterr().out

    def test_ingest_unknown_path_errors(self, tmp_path, capsys):
        rc = lake_main(["--db", str(tmp_path / "db"), "ingest", str(tmp_path / "nope")])
        assert rc == 2
        assert "no such path" in capsys.readouterr().err

    def test_closed_stdout_exits_zero(self, tmp_path, capsys, closed_stdout):
        """``repro-lake query | head -1`` is not bad input."""
        db = tmp_path / "lake.sqlite"
        with LakeCatalog(db) as cat:
            cat.record_point("k", "fp", "c", "a", _point_row(0), "hdd")
        with closed_stdout:
            assert lake_main(["--db", str(db), "query"]) == 0
        assert capsys.readouterr().err == ""


# ----------------------------------------------------------------------
# Unopenable catalogs: the rescan is the way out
# ----------------------------------------------------------------------


def _unopenable_catalog(tmp_path: Path, shape: str) -> Path:
    """A catalog file this build refuses: a foreign schema stamp, or noise."""
    db = tmp_path / "lake.sqlite"
    if shape == "stamp-99":
        with LakeCatalog(db) as cat:
            cat.record_point("k", "fp", "c", "a", _point_row(0), "hdd")
            cat._conn.execute("UPDATE lake_meta SET value='99' WHERE key='schema_version'")
            cat._conn.commit()
    else:
        db.write_bytes(np.random.default_rng(5).bytes(4096))
    return db


class TestUnopenableCatalog:
    """A catalog stamped with another schema version, or bytes that are
    no SQLite database: every subcommand fails with one line naming the
    rescan, and ``ingest --rescan`` moves the file aside and rebuilds."""

    @pytest.mark.parametrize("shape", ["stamp-99", "random-bytes"])
    def test_subcommands_exit_2_naming_the_rescan(self, tmp_path, capsys, shape):
        db = _unopenable_catalog(tmp_path, shape)
        before = db.read_bytes()
        for argv in (["stats"], ["query"], ["gc"], ["ingest", str(tmp_path)]):
            assert lake_main(["--db", str(db), *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "repro-lake ingest --rescan" in err
        # Only the rescan moves a catalog aside.
        assert db.read_bytes() == before
        assert not db.with_name(db.name + ".bad").exists()

    @pytest.mark.parametrize("shape", ["stamp-99", "random-bytes"])
    def test_rescan_quarantines_and_rebuilds(self, tmp_path, capsys, shape):
        tree = tmp_path / "tree"
        CampaignEngine(
            _synthetic_spec((60, 80)), out_dir=tree / "run", use_trace_store=False
        ).run()
        save_trace_npz(make_trace(seed=4), tree / "t.npz")
        db = _unopenable_catalog(tmp_path, shape)
        before = db.read_bytes()
        assert lake_main(["--db", str(db), "ingest", str(tree), "--rescan"]) == 0
        bad = db.with_name(db.name + ".bad")
        assert bad.read_bytes() == before
        assert f"warning: moved {db} to {bad}: " in capsys.readouterr().err
        fresh = tmp_path / "fresh.sqlite"
        assert lake_main(["--db", str(fresh), "ingest", str(tree), "--rescan"]) == 0
        with LakeCatalog(db) as rebuilt, LakeCatalog(fresh) as reference:
            assert rebuilt.dump_rows() == reference.dump_rows()
            # The trace plus results.npz/.csv, both referenced by the campaign.
            assert rebuilt.counts() == {
                "artifacts": 3, "artifact_refs": 2, "campaign_points": 2,
            }


    def test_directory_db_exits_2_and_is_never_moved(self, tmp_path, capsys):
        """SQLite cannot open a directory at all: every subcommand, the
        rescan included, prints one ``error:`` line and exits 2, and the
        directory stays where and what it was."""
        db = tmp_path / "lake.sqlite"
        db.mkdir()
        (db / "keep.txt").write_text("x")
        for argv in (["stats"], ["query"], ["gc"], ["ingest", str(tmp_path), "--rescan"]):
            assert lake_main(["--db", str(db), *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(db) in err
        assert sorted(p.name for p in db.iterdir()) == ["keep.txt"]
        assert not db.with_name(db.name + ".bad").exists()

    def test_campaign_run_on_unopenable_lake_exits_2_naming_the_rescan(
        self, tmp_path, capsys
    ):
        db = _unopenable_catalog(tmp_path, "random-bytes")
        before = db.read_bytes()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_grid_spec().to_dict()))
        argv = [
            "run", str(spec_path), "--limit", "1", "--quiet", "--no-trace-store",
            "--out-dir", str(tmp_path / "out"), "--lake", str(db),
        ]
        assert campaign_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "repro-lake ingest --rescan" in err
        assert db.read_bytes() == before
        assert not db.with_name(db.name + ".bad").exists()


# ----------------------------------------------------------------------
# Lock-contention retry + multi-process write hammering (ISSUE 9)
# ----------------------------------------------------------------------


def _hammer_points(db: str, worker: int, per_worker: int, shared_key: str) -> None:
    """Child-process body: record distinct points plus one contended key."""
    import sqlite3 as _sqlite3

    from repro.lake.catalog import LakeCatalog as _Catalog
    from repro.lake.ingest import record_campaign_point as _record

    spec = _grid_spec(name="hammer")
    with _Catalog(db, timeout_s=30.0) as catalog:
        for i in range(per_worker):
            _record(
                catalog,
                spec,
                f"w{worker}-point-{i}",
                _point_row(i, worker=worker),
                wall_s=0.001 * i,
            )
            # Every worker also upserts one shared key: the upsert must
            # survive the contention, last writer winning.
            _record(catalog, spec, shared_key, _point_row(worker))


class TestWriteRetry:
    def test_locked_error_retried_until_success(self):
        from repro.lake.catalog import _write_with_retry

        attempts: list[int] = []

        def flaky() -> str:
            attempts.append(1)
            if len(attempts) < 3:
                raise __import__("sqlite3").OperationalError("database is locked")
            return "ok"

        assert _write_with_retry(flaky) == "ok"
        assert len(attempts) == 3

    def test_non_lock_operational_error_raises_immediately(self):
        import sqlite3 as _sqlite3

        from repro.lake.catalog import _write_with_retry

        attempts: list[int] = []

        def broken() -> None:
            attempts.append(1)
            raise _sqlite3.OperationalError("attempt to write a readonly database")

        with pytest.raises(_sqlite3.OperationalError):
            _write_with_retry(broken)
        assert len(attempts) == 1

    def test_lock_exhaustion_raises_the_last_error(self):
        import sqlite3 as _sqlite3

        from repro.lake.catalog import _LOCKED_ATTEMPTS, _write_with_retry

        attempts: list[int] = []

        def always_locked() -> None:
            attempts.append(1)
            raise _sqlite3.OperationalError("database is locked")

        with pytest.raises(_sqlite3.OperationalError, match="locked"):
            _write_with_retry(always_locked)
        assert len(attempts) == _LOCKED_ATTEMPTS


class TestConcurrentRecording:
    def test_many_processes_record_points_without_loss(self, tmp_path):
        """Hammer ``record_campaign_point`` from several processes at
        once: every distinct key lands, the contended key upserts
        cleanly, and the catalog stays readable throughout."""
        import multiprocessing

        db = str(tmp_path / "lake.sqlite")
        LakeCatalog(db).close()  # create the schema up front
        n_workers, per_worker = 4, 10
        shared_key = "contended-key"
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_points, args=(db, w, per_worker, shared_key))
            for w in range(n_workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0

        with LakeCatalog(db) as catalog:
            assert catalog.counts()["campaign_points"] == n_workers * per_worker + 1
            expected = [
                f"w{w}-point-{i}" for w in range(n_workers) for i in range(per_worker)
            ]
            rows = catalog.completed_rows(expected + [shared_key])
            assert set(rows) == set(expected) | {shared_key}
            # The contended row is one worker's intact payload, not a blend.
            winner = rows[shared_key]
            assert winner == _point_row(int(winner["metric"]))
