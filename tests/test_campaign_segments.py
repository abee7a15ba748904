"""Segment checkpoints: append-only semantics and scanning.

The resume *contract* (kill → restart → zero recomputation → identical
table) is asserted in ``test_campaign_resume.py``; this file pins the
segment mechanics: files are append-only across runs, torn lines are
tolerated, the newest line of a key wins, files that are not segments
are ignored, and ``spec.json`` is not rewritten when nothing changed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.campaign import CampaignEngine, CampaignSpec, DeviceSpec, expand
from repro.campaign.cli import main as cli_main
from repro.campaign.engine import _scan_checkpoints, _SegmentWriter


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
        (tmp_path / "runs" / "filed.json").write_text(json.dumps({"key": "filed", "row": {}}))
        rows = _scan_checkpoints(tmp_path, ["wanted", "filed", "missing"])
        assert rows == {"wanted": {"a": 1}}

    def test_scan_on_missing_dir(self, tmp_path: Path):
        assert _scan_checkpoints(tmp_path / "nope", ["k"]) == {}

    def test_duplicate_keys_newest_file_wins(self, tmp_path: Path):
        """A rerun's refreshed rows shadow stale ones, regardless of
        segment filename order."""
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
        os.utime(old_seg, ns=(3_000, 3_000))
        assert _scan_checkpoints(tmp_path, ["k"]) == {"k": {"v": "stale"}}

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

    def test_leftover_json_checkpoint_ignored(self, tmp_path: Path):
        """A per-point ``runs/<key>.json`` an older version wrote is not
        a checkpoint: its point recomputes and the file is untouched."""
        spec = _spec()
        clean = CampaignEngine(spec, out_dir=tmp_path / "clean").run()
        out = tmp_path / "camp"
        key = expand(spec).keys()[0]
        leftover = out / "runs" / f"{key}.json"
        leftover.parent.mkdir(parents=True)
        payload = json.dumps({"key": key, "row": {"workload": "stale"}})
        leftover.write_text(payload, encoding="utf-8")
        result = CampaignEngine(spec, out_dir=out).run()
        assert result.n_resumed == 0 and result.n_computed == len(expand(spec))
        assert result.table == clean.table
        assert leftover.read_text(encoding="utf-8") == payload
        others = [p.name for p in (out / "runs").iterdir() if not p.name.startswith("segment-")]
        assert others == [leftover.name]  # not quarantined, nothing beside it

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

    def test_unknown_format_rejected(self, tmp_path: Path, capsys):
        """Segments are the only checkpoint format: naming any is refused."""
        with pytest.raises(TypeError, match="checkpoint_format"):
            CampaignEngine(_spec(), checkpoint_format="segments")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec().to_dict()))
        with pytest.raises(SystemExit) as exited:
            cli_main(["run", str(spec_path), "--checkpoint-format", "json"])
        assert exited.value.code == 2
        assert "--checkpoint-format" in capsys.readouterr().err

    def test_jobs_segments_match_inline(self, tmp_path: Path):
        spec = _spec(("MSNFS", "ikki", "CFS"))
        inline = CampaignEngine(spec, out_dir=tmp_path / "a", jobs=1).run()
        sharded = CampaignEngine(spec, out_dir=tmp_path / "b", jobs=3).run()
        assert inline.table == sharded.table
        # every point checkpointed exactly once, across worker segments
        keys = expand(spec).keys()
        assert set(_scan_checkpoints(tmp_path / "b", keys)) == set(keys)
