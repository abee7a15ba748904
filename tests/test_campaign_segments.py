"""Segment checkpoint format: append-only semantics, mixing, scanning.

The resume *contract* (kill → restart → zero recomputation → identical
table) is asserted for both formats in ``test_campaign_resume.py``;
this file pins the segment mechanics: files are append-only across
runs, torn lines are tolerated, the two formats mix freely, the resume
scan needs exactly one directory listing, and ``spec.json`` is not
rewritten when nothing changed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.campaign import CampaignEngine, CampaignSpec, DeviceSpec, expand
from repro.campaign.engine import (
    _scan_checkpoints,
    _SegmentWriter,
    _write_checkpoint,
)


def _spec(workloads=("MSNFS", "ikki")) -> CampaignSpec:
    return CampaignSpec(
        name="segments",
        action="reconstruct",
        workloads=workloads,
        devices=(DeviceSpec("new", "new-node"),),
        methods=("revision",),
        n_requests=(200,),
    )


class TestSegmentWriter:
    def test_lazy_unique_files(self, tmp_path: Path):
        first = _SegmentWriter(tmp_path)
        second = _SegmentWriter(tmp_path)
        assert not (tmp_path / "runs").exists()  # nothing until an append
        first.append("k1", {"a": 1})
        second.append("k2", {"a": 2})
        first.close()
        second.close()
        segments = sorted((tmp_path / "runs").glob("segment-*.jsonl"))
        assert len(segments) == 2  # same pid, distinct counters
        rows = _scan_checkpoints(tmp_path, ["k1", "k2"])
        assert rows == {"k1": {"a": 1}, "k2": {"a": 2}}

    def test_torn_line_skipped_earlier_lines_kept(self, tmp_path: Path):
        writer = _SegmentWriter(tmp_path)
        writer.append("k1", {"a": 1})
        writer.append("k2", {"a": 2})
        writer.close()
        (segment,) = (tmp_path / "runs").glob("segment-*.jsonl")
        text = segment.read_text()
        segment.write_text(text[: text.rindex("{") + 5])  # tear the final row
        rows = _scan_checkpoints(tmp_path, ["k1", "k2"])
        assert rows == {"k1": {"a": 1}}

    def test_scan_ignores_unwanted_keys_and_junk(self, tmp_path: Path):
        writer = _SegmentWriter(tmp_path)
        writer.append("wanted", {"a": 1})
        writer.append("other-campaign", {"a": 9})
        writer.close()
        (tmp_path / "runs" / "notes.txt").write_text("not a checkpoint")
        _write_checkpoint(tmp_path, "filed", {"b": 2})
        rows = _scan_checkpoints(tmp_path, ["wanted", "filed", "missing"])
        assert rows == {"wanted": {"a": 1}, "filed": {"b": 2}}

    def test_scan_on_missing_dir(self, tmp_path: Path):
        assert _scan_checkpoints(tmp_path / "nope", ["k"]) == {}

    def test_duplicate_keys_newest_file_wins(self, tmp_path: Path):
        """A rerun's refreshed rows shadow stale ones, regardless of
        segment filename order or format."""
        stale = _SegmentWriter(tmp_path)
        stale.append("k", {"v": "stale"})
        stale.close()
        fresh = _SegmentWriter(tmp_path)
        fresh.append("k", {"v": "fresh"})
        fresh.close()
        old_seg, new_seg = sorted(
            (tmp_path / "runs").glob("segment-*.jsonl"),
            key=lambda p: p.stat().st_mtime_ns,
        )
        # Force mtimes apart (and filename order against mtime order).
        os.utime(old_seg, ns=(1_000, 1_000))
        os.utime(new_seg, ns=(2_000, 2_000))
        assert _scan_checkpoints(tmp_path, ["k"]) == {"k": {"v": "fresh"}}
        # A newer per-point JSON beats every older segment line...
        _write_checkpoint(tmp_path, "k", {"v": "json"})
        os.utime(tmp_path / "runs" / "k.json", ns=(3_000, 3_000))
        assert _scan_checkpoints(tmp_path, ["k"]) == {"k": {"v": "json"}}
        # ...and an older one does not.
        os.utime(tmp_path / "runs" / "k.json", ns=(500, 500))
        assert _scan_checkpoints(tmp_path, ["k"]) == {"k": {"v": "fresh"}}

    def test_later_lines_win_within_a_segment(self, tmp_path: Path):
        writer = _SegmentWriter(tmp_path)
        writer.append("k", {"v": "first"})
        writer.append("k", {"v": "second"})
        writer.close()
        assert _scan_checkpoints(tmp_path, ["k"]) == {"k": {"v": "second"}}


class TestEngineSegmentSemantics:
    def test_segments_are_append_only_across_resumes(self, tmp_path: Path):
        """A grown grid appends a new segment; old segments keep their
        exact bytes (append-only contract)."""
        out = tmp_path / "camp"
        CampaignEngine(_spec(("MSNFS",)), out_dir=out).run()
        before = {p.name: p.read_bytes() for p in (out / "runs").glob("segment-*.jsonl")}
        assert before
        CampaignEngine(_spec(("MSNFS", "ikki")), out_dir=out).run()
        after = {p.name: p.read_bytes() for p in (out / "runs").glob("segment-*.jsonl")}
        assert len(after) == len(before) + 1
        for name, content in before.items():
            assert after[name] == content

    def test_formats_mix_across_runs(self, tmp_path: Path):
        """Points checkpointed as JSON files resume under segments and
        vice versa — one campaign directory, both formats."""
        out = tmp_path / "camp"
        json_run = CampaignEngine(
            _spec(("MSNFS",)), out_dir=out, checkpoint_format="json"
        ).run()
        grown = CampaignEngine(_spec(("MSNFS", "ikki")), out_dir=out).run()
        assert json_run.n_computed == 1
        assert grown.n_resumed == 1 and grown.n_computed == 1
        again = CampaignEngine(
            _spec(("MSNFS", "ikki")), out_dir=out, checkpoint_format="json"
        ).run()
        assert again.n_resumed == 2 and again.n_computed == 0

    def test_spec_json_not_rewritten_when_unchanged(self, tmp_path: Path):
        out = tmp_path / "camp"
        spec = _spec()
        CampaignEngine(spec, out_dir=out, resume=False).run()
        stat_before = (out / "spec.json").stat()
        CampaignEngine(spec, out_dir=out, resume=False).run()
        stat_after = (out / "spec.json").stat()
        assert stat_after.st_mtime_ns == stat_before.st_mtime_ns
        changed = _spec(("MSNFS", "ikki", "CFS"))
        CampaignEngine(changed, out_dir=out, resume=False).run()
        assert json.loads((out / "spec.json").read_text())["workloads"] == [
            "MSNFS", "ikki", "CFS",
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="checkpoint format"):
            CampaignEngine(_spec(), checkpoint_format="parquet")

    def test_jobs_segments_match_inline_json(self, tmp_path: Path):
        spec = _spec(("MSNFS", "ikki", "CFS"))
        inline = CampaignEngine(
            spec, out_dir=tmp_path / "a", jobs=1, checkpoint_format="json"
        ).run()
        sharded = CampaignEngine(spec, out_dir=tmp_path / "b", jobs=3).run()
        assert inline.table == sharded.table
        # every point checkpointed exactly once, across worker segments
        keys = expand(spec).keys()
        assert set(_scan_checkpoints(tmp_path / "b", keys)) == set(keys)
