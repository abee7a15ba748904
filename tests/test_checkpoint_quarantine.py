"""Resume-scan hardening: corrupt checkpoints quarantine, never raise.

A segment file with zero decodable lines is quarantined whole (renamed
``<segment>.bad``) and its points re-queued; a merely-torn segment tail
keeps losing only the torn line.  Every quarantine leaves a
``degraded.log`` line and counts into
:attr:`CampaignResult.n_degraded`.
"""

from __future__ import annotations

from pathlib import Path

from repro.campaign import CampaignEngine, CampaignSpec, DeviceSpec, expand
from repro.campaign.engine import _scan_checkpoints


def _spec(n_points: int = 4) -> CampaignSpec:
    return CampaignSpec(
        name="quarantine-grid",
        action="synthetic",
        workloads=("MSNFS",),
        devices=(DeviceSpec("new", "new-node"),),
        methods=("revision",),
        n_requests=tuple(range(100, 100 + n_points)),
        options={"iters_per_request": 3},
    )


class TestCorruptSegment:
    def test_all_garbage_segment_quarantined_whole(self, tmp_path: Path):
        out = tmp_path / "camp"
        CampaignEngine(_spec(), out_dir=out).run()
        keys = expand(_spec()).keys()
        segments = sorted((out / "runs").glob("segment-*.jsonl"))
        assert segments
        segments[0].write_bytes(b"\x00\xff garbage bytes, zero json lines\n\x00")

        found = _scan_checkpoints(out, keys)
        assert found == {}  # single-worker run: every point was in that segment
        assert Path(str(segments[0]) + ".bad").exists()
        assert not segments[0].exists()

    def test_torn_tail_still_loses_only_the_torn_line(self, tmp_path: Path):
        out = tmp_path / "camp"
        CampaignEngine(_spec(), out_dir=out).run()
        keys = expand(_spec()).keys()
        segment = sorted((out / "runs").glob("segment-*.jsonl"))[0]
        lines = segment.read_text(encoding="utf-8").splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        segment.write_text(torn, encoding="utf-8")

        found = _scan_checkpoints(out, keys)
        assert len(found) == len(keys) - 1  # only the torn line is lost
        assert segment.exists()  # a torn tail is normal, not quarantinable
