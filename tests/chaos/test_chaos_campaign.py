"""Chaos harness: deterministic fault injection against real campaigns.

The acceptance contract (ISSUE 9): with worker SIGKILLs, hangs, raised
exceptions, and checkpoint corruption injected mid-run, a supervised
campaign completes with **zero lost or duplicated points** and a
:class:`ResultsTable` bit-identical (excluding quarantined rows) to an
undisturbed oracle run; a poison point is quarantined after N retries
without sinking the campaign; and resume after a supervisor crash
recomputes nothing already checkpointed.

Injections are scheduled by plan index (``kill@3``) and claimed through
``O_EXCL`` markers under the campaign directory, so every fault fires
exactly once no matter which worker reaches it first — which is what
makes the recovered results comparable bit for bit.  Completed-point
accounting crosses process boundaries through an append-only log file
the (forked) workers inherit via a patched ``run_point``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.campaign.engine as engine_mod
from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    ChaosSpec,
    DeviceSpec,
    Resilience,
    RetryPolicy,
    ResultsTable,
    SupervisionError,
    expand,
)
from repro.campaign.engine import _scan_checkpoints
from repro.campaign.plan import run_key
from repro.campaign.supervise import QUARANTINED

#: Fast, deterministic backoff for every scenario below.
_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.01, multiplier=2.0, max_delay_s=0.05)


def _spec(n_points: int = 6) -> CampaignSpec:
    """A cheap deterministic grid: one synthetic point per size."""
    return CampaignSpec(
        name="chaos-grid",
        action="synthetic",
        workloads=("MSNFS",),
        devices=(DeviceSpec("new", "new-node"),),
        methods=("revision",),
        n_requests=tuple(range(100, 100 + n_points)),
        options={"iters_per_request": 3},
    )


@pytest.fixture
def oracle(tmp_path: Path) -> ResultsTable:
    """The undisturbed run every disturbed scenario is compared against."""
    return CampaignEngine(_spec(), out_dir=tmp_path / "oracle", jobs=1).run().table


@pytest.fixture
def compute_log(tmp_path: Path, monkeypatch):
    """Record every *completed* ``run_point`` across all worker processes.

    The patched function appends the point's run key to a shared file
    (O_APPEND, one small write — atomic on POSIX); forked supervised
    workers inherit the patch.  Reading it back answers the zero
    lost/duplicated question: every non-quarantined key appears exactly
    once per computation.
    """
    log = tmp_path / "computed.log"
    original = engine_mod.run_point

    def recording_run_point(spec, point):
        row = original(spec, point)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(run_key(spec, point) + "\n")
        return row

    monkeypatch.setattr(engine_mod, "run_point", recording_run_point)

    def read() -> list[str]:
        try:
            return log.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            return []

    return read


def _run_chaos(
    out_dir: Path,
    chaos: str,
    jobs: int = 2,
    hang_timeout_s: float | None = 2.0,
    respawn_budget: int | None = None,
    point_timeout_s: float | None = None,
    n_points: int = 6,
):
    engine = CampaignEngine(
        _spec(n_points),
        out_dir=out_dir,
        jobs=jobs,
        resilience=Resilience(
            retry=_RETRY,
            point_timeout_s=point_timeout_s,
            chaos=ChaosSpec.parse(chaos),
        ),
        hang_timeout_s=hang_timeout_s,
        respawn_budget=respawn_budget,
    )
    return engine.run()


class TestChaosRecovery:
    def test_worker_kill_recovers_bit_identical(
        self, tmp_path: Path, oracle: ResultsTable, compute_log
    ):
        result = _run_chaos(tmp_path / "kill", "kill@1")
        assert result.table == oracle
        assert result.supervision["dead"] == 1
        assert result.supervision["respawned"] >= 1
        assert result.n_quarantined == 0
        # Zero lost, zero duplicated: every key computed exactly once.
        keys = expand(_spec()).keys()
        assert sorted(compute_log()) == sorted(keys)

    def test_injected_exception_retried_bit_identical(
        self, tmp_path: Path, oracle: ResultsTable, compute_log
    ):
        result = _run_chaos(tmp_path / "exc", "exc@2")
        assert result.table == oracle
        assert result.n_quarantined == 0
        assert result.supervision["dead"] == 0
        assert sorted(compute_log()) == sorted(expand(_spec()).keys())

    def test_hung_worker_reclaimed_bit_identical(
        self, tmp_path: Path, oracle: ResultsTable, compute_log
    ):
        result = _run_chaos(tmp_path / "hang", "hang@0", hang_timeout_s=1.0)
        assert result.table == oracle
        assert result.supervision["hung"] == 1
        assert result.n_quarantined == 0
        assert sorted(compute_log()) == sorted(expand(_spec()).keys())

    def test_point_timeout_recovers_hang_without_deadline(
        self, tmp_path: Path, oracle: ResultsTable, compute_log
    ):
        """With no heartbeat deadline, the point timeout interrupts the
        injected hang and the retry finishes the point."""
        result = _run_chaos(
            tmp_path / "hang", "hang@0", hang_timeout_s=None, point_timeout_s=0.5
        )
        assert result.table == oracle
        assert result.supervision["hung"] == 0
        assert result.n_quarantined == 0
        assert sorted(compute_log()) == sorted(expand(_spec()).keys())

    def test_hang_without_any_deadline_rejected(self, tmp_path: Path):
        """Nothing could recover the injected hour-long sleep, so the
        engine refuses to start."""
        with pytest.raises(ValueError, match="hang"):
            _run_chaos(tmp_path / "hang", "hang@0", hang_timeout_s=None)

    def test_corrupt_checkpoint_tolerated_bit_identical(
        self, tmp_path: Path, oracle: ResultsTable, compute_log
    ):
        out = tmp_path / "corrupt"
        result = _run_chaos(out, "corrupt@3")
        assert result.table == oracle
        assert sorted(compute_log()) == sorted(expand(_spec()).keys())
        # The torn segment costs the lines the truncation destroyed —
        # never the whole directory: a fresh engine over it salvages
        # the surviving checkpoints, recomputes the rest without
        # raising, and still matches the oracle.
        resumed = CampaignEngine(_spec(), out_dir=out, jobs=1).run()
        assert resumed.table == oracle
        assert resumed.n_resumed >= 1
        assert resumed.n_computed < len(oracle)

    def test_combined_faults_bit_identical(
        self, tmp_path: Path, oracle: ResultsTable, compute_log
    ):
        """Kill + exception + corruption in one run still converges."""
        result = _run_chaos(tmp_path / "combo", "kill@1,exc@2,corrupt@4")
        assert result.table == oracle
        assert result.n_quarantined == 0
        assert sorted(compute_log()) == sorted(expand(_spec()).keys())


class TestRaiseThrough:
    def test_point_exception_raises_through_workers(
        self, tmp_path: Path, monkeypatch, compute_log
    ):
        """With no resilience policy, a point that raises in a worker
        fails the run with its own exception, computed once — not
        respawned and retried into a ``SupervisionError``."""
        spec = _spec(12)
        keys = expand(spec).keys()
        bad = keys[7]
        recording = engine_mod.run_point  # compute_log's recorder

        def raising_run_point(spec, point):
            row = recording(spec, point)  # logs the computation
            if run_key(spec, point) == bad:
                raise ValueError("bad point")
            return row

        monkeypatch.setattr(engine_mod, "run_point", raising_run_point)
        out = tmp_path / "raise"
        with pytest.raises(ValueError, match="bad point"):
            CampaignEngine(spec, out_dir=out, jobs=2).run()
        computed = compute_log()
        assert computed.count(bad) == 1
        checkpointed = _scan_checkpoints(out, keys)
        assert bad not in checkpointed
        assert set(computed) - {bad} == set(checkpointed)


class TestPoisonQuarantine:
    def test_poison_point_quarantined_without_sinking(
        self, tmp_path: Path, oracle: ResultsTable, compute_log
    ):
        poisoned = 4
        result = _run_chaos(tmp_path / "poison", f"poison@{poisoned}")
        # The campaign finished; the poison row is marked, not fatal.
        assert result.n_quarantined == 1
        statuses = result.table.column("status")
        assert statuses[poisoned] == QUARANTINED
        assert result.table.column("attempts")[poisoned] == _RETRY.max_attempts
        # Minus the quarantined row (and its marker columns), the table
        # is bit-identical to the oracle minus that point.
        expected = ResultsTable.from_rows(
            [row for i, row in enumerate(oracle.rows()) if i != poisoned]
        )
        assert result.table.without_quarantined() == expected
        # Every healthy key computed exactly once; the poison key never
        # completed a computation.
        keys = expand(_spec()).keys()
        healthy = [key for i, key in enumerate(keys) if i != poisoned]
        assert sorted(compute_log()) == sorted(healthy)

    def test_quarantine_is_checkpointed(self, tmp_path: Path, compute_log):
        """A poison point costs its retries once per directory: the
        quarantine row resumes like any other checkpoint."""
        out = tmp_path / "poison"
        first = _run_chaos(out, "poison@0")
        assert first.n_quarantined == 1
        keys = expand(_spec()).keys()
        assert len(_scan_checkpoints(out, keys)) == len(keys)
        # Rerun without chaos: nothing recomputes, the quarantined row
        # (status/error/attempts intact) comes back from the checkpoint.
        before = len(compute_log())
        again = CampaignEngine(_spec(), out_dir=out, jobs=1).run()
        assert len(compute_log()) == before
        assert again.n_resumed == len(keys) and again.n_computed == 0
        assert again.n_quarantined == 1
        assert again.table == first.table


class TestSupervisorCrashResume:
    def test_resume_after_supervisor_crash_recomputes_nothing(
        self, tmp_path: Path, oracle: ResultsTable, compute_log
    ):
        """Worker killed with a zero respawn budget: the supervisor
        raises (its own 'crash'), completed points stay checkpointed,
        and the rerun computes exactly the missing ones."""
        out = tmp_path / "crash"
        with pytest.raises(SupervisionError):
            _run_chaos(out, "kill@3", jobs=1, respawn_budget=0)
        computed_before = compute_log()
        checkpointed = _scan_checkpoints(out, expand(_spec()).keys())
        assert len(checkpointed) == len(computed_before)

        # The kill marker is claimed, so the same chaos flags rerun
        # clean — exactly how an operator would retry the command.
        result = _run_chaos(out, "kill@3", jobs=1, respawn_budget=0)
        assert result.table == oracle
        assert result.n_resumed == len(checkpointed)
        assert result.n_computed == len(expand(_spec())) - len(checkpointed)
        # No key computed twice across crash + resume.
        total = compute_log()
        assert sorted(total) == sorted(expand(_spec()).keys())
