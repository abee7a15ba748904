"""Resume semantics: a killed campaign restarts without recomputation.

The contract under test (ISSUE 3 acceptance): interrupt a campaign
mid-shard, restart it, and (a) no already-completed run key is
recomputed, (b) the aggregated table is identical to an uninterrupted
run's.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.campaign.engine as engine_mod
from repro.campaign import CampaignEngine, CampaignSpec, DeviceSpec, expand
from repro.campaign.engine import _scan_checkpoints
from repro.campaign.plan import run_key


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="resume-grid",
        action="reconstruct",
        workloads=("MSNFS", "ikki", "CFS"),
        devices=(DeviceSpec("new", "new-node"), DeviceSpec("old", "old-node")),
        methods=("revision",),
        n_requests=(200,),
    )


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
    """Count ``run_point`` invocations (and optionally kill mid-run).

    The genuine ``run_point`` is captured once, before any install, so
    repeated installs within a test never chain through each other.
    """
    original = engine_mod.run_point

    def install(kill_after: int | None = None):
        counter = _KillAfter(original, kill_after if kill_after is not None else 10**9)
        monkeypatch.setattr(engine_mod, "run_point", counter)
        return counter

    return install


def test_interrupt_then_resume_is_identical(tmp_path: Path, counted_run_point):
    spec = _spec()
    n_points = len(expand(spec))
    assert n_points == 6

    # Ground truth: one uninterrupted run.
    clean = CampaignEngine(spec, out_dir=tmp_path / "clean").run()

    # Interrupted run: the engine dies after 2 completed points...
    out = tmp_path / "killed"
    killer = counted_run_point(kill_after=2)
    with pytest.raises(KeyboardInterrupt):
        CampaignEngine(spec, out_dir=out).run()
    assert killer.calls == 2
    # ...but both completed points are on disk as segment lines.
    assert len(_scan_checkpoints(out, expand(spec).keys())) == 2
    assert not (out / "results.csv").exists()  # no aggregate yet

    # ...and the restart computes exactly the missing keys, none twice.
    counter = counted_run_point()
    resumed = CampaignEngine(spec, out_dir=out).run()
    assert counter.calls == n_points - 2
    assert resumed.n_resumed == 2 and resumed.n_computed == n_points - 2

    # The aggregate is identical to the uninterrupted run, column for column.
    assert resumed.table == clean.table

    # A third run touches nothing at all.
    counter2 = counted_run_point()
    again = CampaignEngine(spec, out_dir=out).run()
    assert counter2.calls == 0
    assert again.n_resumed == n_points and again.table == clean.table


def test_no_resume_flag_recomputes(tmp_path: Path, counted_run_point):
    spec = _spec()
    out = tmp_path / "camp"
    CampaignEngine(spec, out_dir=out).run()
    counter = counted_run_point()
    result = CampaignEngine(spec, out_dir=out, resume=False).run()
    assert counter.calls == len(expand(spec))
    assert result.n_resumed == 0


def test_device_sweep_interrupt_then_resume(tmp_path: Path, counted_run_point):
    """Parameterised device specs resume like any other point.

    The device knobs live inside the device description, so they are
    part of the checkpoint run key — a killed device sweep must restart
    with zero recomputation and an identical table.
    """
    spec = CampaignSpec(
        name="device-resume",
        action="reconstruct",
        workloads=("MSNFS",),
        devices=(
            DeviceSpec("array", "flash_array", {"n_ssds": 2, "stripe_kb": 16}),
            DeviceSpec("narrow-array", "flash_array", {"n_ssds": 2, "channels": 4}),
            DeviceSpec("mirror", "raid1", {"n": 3, "member": {"kind": "hdd", "seed": 5}}),
        ),
        methods=("revision",),
        n_requests=(150,),
    )
    n_points = len(expand(spec))
    assert n_points == 3

    clean = CampaignEngine(spec, out_dir=tmp_path / "clean").run()

    out = tmp_path / "killed"
    killer = counted_run_point(kill_after=1)
    with pytest.raises(KeyboardInterrupt):
        CampaignEngine(spec, out_dir=out).run()
    assert killer.calls == 1

    counter = counted_run_point()
    resumed = CampaignEngine(spec, out_dir=out).run()
    assert counter.calls == n_points - 1
    assert resumed.n_resumed == 1 and resumed.n_computed == n_points - 1
    assert resumed.table == clean.table


def _synthetic_spec(sizes: tuple[int, ...]) -> CampaignSpec:
    """A cheap deterministic grid: one point per ``n_requests`` value."""
    return CampaignSpec(
        name="steal-grid",
        action="synthetic",
        workloads=("MSNFS",),
        devices=(DeviceSpec("new", "new-node"),),
        methods=("revision",),
        n_requests=sizes,
        options={"iters_per_request": 3},
    )


class TestWorkStealingResume:
    """Checkpoints of chunked worker runs obey the same resume contract.

    The chunk queue changes *which worker* computes a point, never the
    point's run key or checkpoint payload, so a campaign killed
    mid-steal must resume on either execution path (inline or worker
    processes) with zero recomputation and a table identical to an
    uninterrupted run's.
    """

    def test_kill_mid_steal_then_resume(self, tmp_path: Path):
        """Simulated kill after a prefix of stolen chunks: the engine
        restarted over the same directory computes exactly the missing
        points and matches an uninterrupted run bit for bit."""
        from repro.campaign.engine import _complete_point, _SegmentWriter

        spec = _synthetic_spec(tuple(range(100, 130)))
        plan = expand(spec)
        keys = plan.keys()
        clean = CampaignEngine(spec, out_dir=tmp_path / "clean", jobs=2).run()

        # A worker steals three chunks, checkpoints every point as it
        # finishes... and the process dies before the queue drains.
        out = tmp_path / "killed"
        out.mkdir()
        segment = _SegmentWriter(out)
        chunks = plan.chunks(4)
        done: set[int] = set()
        try:
            for chunk in chunks[:3]:
                for i in chunk:
                    _complete_point(spec, plan, i, keys[i], segment, None, None)
                done.update(chunk)
        finally:
            # The "kill": drop the worker's segment handle (every
            # completed line is already flushed to disk).
            segment.close()
        assert len(_scan_checkpoints(out, keys)) == len(done) == 12

        resumed = CampaignEngine(spec, out_dir=out, jobs=2).run()
        assert resumed.n_resumed == len(done)
        assert resumed.n_computed == len(plan) - len(done)
        assert resumed.table == clean.table

    @pytest.mark.parametrize(
        "first,second", [(1, 2), (2, 1)], ids=["inline-workers", "workers-inline"]
    )
    def test_cross_path_resume(
        self, tmp_path: Path, monkeypatch, first: int, second: int
    ):
        """Checkpoints written on one execution path resume on the
        other: run keys do not know how points ran.  Computations are
        counted in an append-only log the forked workers share."""
        spec = _synthetic_spec(tuple(range(100, 112)))
        keys = expand(spec).keys()
        clean = CampaignEngine(spec).run()
        out = tmp_path / "camp"
        log = tmp_path / "computed.log"
        original = engine_mod.run_point

        def install(kill_at: int | None = None) -> None:
            def logged_run_point(spec, point):
                if point.n_requests == kill_at:
                    raise KeyboardInterrupt("simulated kill")
                row = original(spec, point)
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(run_key(spec, point) + "\n")
                return row

            monkeypatch.setattr(engine_mod, "run_point", logged_run_point)

        install(kill_at=105)
        with pytest.raises(KeyboardInterrupt):
            CampaignEngine(spec, out_dir=out, jobs=first).run()
        done = set(_scan_checkpoints(out, keys))
        assert keys[5] not in done
        assert done == set(log.read_text().splitlines())  # finished = checkpointed

        log.unlink()
        install()
        resumed = CampaignEngine(spec, out_dir=out, jobs=second).run()
        assert sorted(log.read_text().splitlines()) == sorted(set(keys) - done)
        assert resumed.n_resumed == len(done)
        assert resumed.n_computed == len(keys) - len(done)
        assert resumed.table == clean.table


def test_grown_grid_resumes_shared_points(tmp_path: Path, counted_run_point):
    """Adding an axis value only computes the new points."""
    small = _spec()
    out = tmp_path / "camp"
    CampaignEngine(small, out_dir=out).run()
    grown = CampaignSpec(
        name="resume-grid",
        action="reconstruct",
        workloads=("MSNFS", "ikki", "CFS", "prxy"),
        devices=small.devices,
        methods=small.methods,
        n_requests=small.n_requests,
    )
    counter = counted_run_point()
    result = CampaignEngine(grown, out_dir=out).run()
    assert counter.calls == 2  # only prxy x {new, old}
    assert result.n_resumed == 6 and result.n_computed == 2
