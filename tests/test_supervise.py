"""Unit tests for the campaign fault-tolerance substrate.

Everything here runs in-process with injected clocks: the retry policy's
backoff sequence and jitter bounds (hypothesis property tests), the
transient-vs-permanent error taxonomy, quarantine-after-N semantics with
a recording fake sleep, the chaos-spec grammar, heartbeat bookkeeping,
and the quarantine-aware :class:`ResultsTable` views.  The
process-killing scenarios live in ``tests/chaos/``.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignEngine, CampaignSpec, DeviceSpec
from repro.campaign.results import ResultsTable
from repro.campaign.supervise import (
    CHAOS_KINDS,
    QUARANTINED,
    ChaosError,
    ChaosInjector,
    ChaosSpec,
    PermanentPointError,
    PointTimeout,
    Resilience,
    RetryPolicy,
    TransientPointError,
    classify_error,
    heartbeat_age_s,
    quarantine_row,
    run_point_resilient,
    time_limit,
    write_heartbeat,
)


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------


class TestClassifyError:
    @pytest.mark.parametrize(
        "exc",
        [
            TransientPointError("x"),
            PointTimeout("x"),
            ChaosError("x"),
            TimeoutError("x"),
            ConnectionError("x"),
            InterruptedError("x"),
            BlockingIOError("x"),
            OSError("x"),
            sqlite3.OperationalError("database is locked"),
        ],
    )
    def test_transient(self, exc):
        assert classify_error(exc) == "transient"

    @pytest.mark.parametrize(
        "exc",
        [
            PermanentPointError("x"),
            ValueError("x"),
            TypeError("x"),
            KeyError("x"),
            IndexError("x"),
            AttributeError("x"),
            AssertionError("x"),
            ZeroDivisionError("x"),
            NotImplementedError("x"),
            MemoryError("x"),
        ],
    )
    def test_permanent(self, exc):
        assert classify_error(exc) == "permanent"

    def test_unknown_defaults_to_transient(self):
        class Weird(Exception):
            pass

        assert classify_error(Weird("?")) == "transient"

    def test_marker_classes_outrank_builtin_bases(self):
        # A PermanentPointError is a RuntimeError; a subclass mixing in
        # a transient builtin must still follow the explicit marker.
        class Mixed(PermanentPointError, OSError):
            pass

        assert classify_error(Mixed("x")) == "permanent"


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------

_policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=8),
    base_delay_s=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    multiplier=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    max_delay_s=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -0.1},
            {"max_delay_s": -1.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
            {"jitter": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_sequence_grows_then_caps(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0
        )
        assert policy.delays("k") == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_deterministic_across_calls(self):
        policy = RetryPolicy()
        assert policy.delays("some-key") == policy.delays("some-key")

    def test_jitter_desynchronises_keys(self):
        policy = RetryPolicy(jitter=0.25)
        assert policy.delay_s("key-a", 0) != policy.delay_s("key-b", 0)

    @settings(max_examples=50)
    @given(policy=_policies, key=st.text(min_size=1, max_size=16))
    def test_delay_bounds(self, policy: RetryPolicy, key: str):
        """Every delay lies in [raw, raw * (1 + jitter)] with raw capped."""
        for attempt in range(policy.max_attempts - 1):
            raw = min(policy.base_delay_s * policy.multiplier**attempt, policy.max_delay_s)
            delay = policy.delay_s(key, attempt)
            assert raw <= delay <= raw * (1.0 + policy.jitter) + 1e-12

    @settings(max_examples=50)
    @given(policy=_policies, key=st.text(min_size=1, max_size=16))
    def test_delays_length_and_round_trip(self, policy: RetryPolicy, key: str):
        assert len(policy.delays(key)) == policy.max_attempts - 1


# ----------------------------------------------------------------------
# Resilient point execution (fake clock: sleeps are recorded, not slept)
# ----------------------------------------------------------------------


class _Point:
    """Stand-in grid point: only ``axis_values`` is consulted."""

    def axis_values(self):
        return {"workload": "w", "device": "d", "method": "m", "n_requests": 100}


class _FlakyPoint:
    """A run_point that fails transiently ``failures`` times, then works."""

    def __init__(self, failures: int, exc: BaseException | None = None):
        self.failures = failures
        self.calls = 0
        self.exc = exc if exc is not None else TransientPointError("flaky")

    def __call__(self, spec, point):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return {"workload": "w", "value": 42}


def _resilience(max_attempts: int = 3) -> Resilience:
    return Resilience(retry=RetryPolicy(max_attempts=max_attempts, jitter=0.0))


class TestRunPointResilient:
    def test_success_first_try_no_sleep(self):
        sleeps: list[float] = []
        fn = _FlakyPoint(0)
        row = run_point_resilient(
            fn, None, _Point(), 0, "k", _resilience(), sleep=sleeps.append
        )
        assert row == {"workload": "w", "value": 42}
        assert sleeps == [] and fn.calls == 1

    def test_transient_retries_with_policy_backoff(self):
        sleeps: list[float] = []
        fn = _FlakyPoint(2)
        resilience = _resilience(max_attempts=3)
        row = run_point_resilient(
            fn, None, _Point(), 0, "k", resilience, sleep=sleeps.append
        )
        assert row == {"workload": "w", "value": 42} and fn.calls == 3
        assert sleeps == resilience.retry.delays("k")

    def test_quarantine_after_n_attempts(self):
        sleeps: list[float] = []
        fn = _FlakyPoint(10)  # never recovers
        resilience = _resilience(max_attempts=4)
        row = run_point_resilient(
            fn, None, _Point(), 0, "k", resilience, sleep=sleeps.append
        )
        assert fn.calls == 4
        assert len(sleeps) == 3  # one backoff per retry, none after the last
        assert row["status"] == QUARANTINED
        assert row["attempts"] == 4
        assert "flaky" in row["error"]
        assert row["workload"] == "w"  # axis values preserved

    def test_permanent_quarantines_immediately(self):
        sleeps: list[float] = []
        fn = _FlakyPoint(10, exc=ValueError("bad shape"))
        row = run_point_resilient(
            fn, None, _Point(), 0, "k", _resilience(), sleep=sleeps.append
        )
        assert row["status"] == QUARANTINED and fn.calls == 1 and sleeps == []
        assert row["error"].startswith("ValueError")

    def test_keyboard_interrupt_propagates(self):
        def fn(spec, point):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_point_resilient(
                fn, None, _Point(), 0, "k", _resilience(), sleep=lambda s: None
            )

    @settings(max_examples=30, deadline=None)
    @given(
        failures=st.integers(min_value=0, max_value=10),
        max_attempts=st.integers(min_value=1, max_value=6),
    )
    def test_quarantine_after_n_property(self, failures: int, max_attempts: int):
        """Attempts used = min(failures + 1, max_attempts); quarantine
        iff the failures outlast the budget."""
        fn = _FlakyPoint(failures)
        row = run_point_resilient(
            fn, None, _Point(), 0, "k",
            _resilience(max_attempts=max_attempts), sleep=lambda s: None,
        )
        quarantined = row.get("status") == QUARANTINED
        assert quarantined == (failures >= max_attempts)
        assert fn.calls == min(failures + 1, max_attempts)
        if quarantined:
            assert row["attempts"] == max_attempts


class TestTimeLimit:
    def test_interrupts_a_hung_loop(self):
        import time as _time

        with pytest.raises(PointTimeout):
            with time_limit(0.05):
                _time.sleep(5.0)

    def test_no_budget_is_a_noop(self):
        with time_limit(None):
            pass
        with time_limit(0):
            pass

    def test_timer_disarmed_after_exit(self):
        import signal as _signal
        import time as _time

        with time_limit(0.2):
            pass
        _time.sleep(0.3)  # a leaked timer would fire here
        assert _signal.getitimer(_signal.ITIMER_REAL) == (0.0, 0.0)

    def test_budget_past_the_timer_range_is_capped(self):
        """``setitimer`` overflows ``time_t`` on a 1e12 s interval; the
        guard arms its cap instead, and restores the previous handler."""
        import signal as _signal

        previous = _signal.getsignal(_signal.SIGALRM)
        with time_limit(1e12):
            assert _signal.getitimer(_signal.ITIMER_REAL)[0] > 0
        assert _signal.getitimer(_signal.ITIMER_REAL) == (0.0, 0.0)
        assert _signal.getsignal(_signal.SIGALRM) is previous


# ----------------------------------------------------------------------
# Chaos grammar + fire-once claims
# ----------------------------------------------------------------------


class TestChaosSpec:
    def test_parse_round_trip(self):
        spec = ChaosSpec.parse("kill@3, hang@5 ,exc@2,poison@7,corrupt@4")
        assert spec.injections == (
            ("kill", 3), ("hang", 5), ("exc", 2), ("poison", 7), ("corrupt", 4)
        )

    def test_at_groups_by_index(self):
        spec = ChaosSpec.parse("exc@2,corrupt@2,kill@3")
        assert spec.at(2) == ["exc", "corrupt"]
        assert spec.at(3) == ["kill"]
        assert spec.at(0) == []

    @pytest.mark.parametrize("bad", ["explode@1", "kill", "kill@x", "@3"])
    def test_rejects_bad_grammar(self, bad):
        with pytest.raises(ValueError):
            ChaosSpec.parse(bad)

    def test_kinds_are_documented(self):
        assert set(CHAOS_KINDS) == {"exc", "poison", "kill", "hang", "corrupt"}


class TestChaosInjector:
    def test_exc_fires_exactly_once(self, tmp_path: Path):
        injector = ChaosInjector(ChaosSpec.parse("exc@1"), tmp_path / "markers")
        with pytest.raises(ChaosError):
            injector.before_point(1)
        injector.before_point(1)  # second pass: already claimed
        injector.before_point(0)  # other indices never fire

    def test_poison_fires_every_time(self, tmp_path: Path):
        injector = ChaosInjector(ChaosSpec.parse("poison@1"), tmp_path / "markers")
        for _ in range(3):
            with pytest.raises(ChaosError):
                injector.before_point(1)

    def test_claims_shared_across_injectors(self, tmp_path: Path):
        # Two injectors over one marker dir model two worker processes.
        a = ChaosInjector(ChaosSpec.parse("exc@1"), tmp_path / "m")
        b = ChaosInjector(ChaosSpec.parse("exc@1"), tmp_path / "m")
        with pytest.raises(ChaosError):
            a.before_point(1)
        b.before_point(1)  # the claim is global, not per-injector

    def test_corrupt_truncates_checkpoint(self, tmp_path: Path):
        target = tmp_path / "segment-x.jsonl"
        target.write_bytes(b"x" * 100)
        injector = ChaosInjector(ChaosSpec.parse("corrupt@2"), tmp_path / "m")
        injector.after_checkpoint(2, target)
        assert target.stat().st_size == 50
        injector.after_checkpoint(2, target)  # fire-once
        assert target.stat().st_size == 50


# ----------------------------------------------------------------------
# Resilience config plumbing
# ----------------------------------------------------------------------


class TestResilience:
    def test_injector_requires_chaos_and_dir(self, tmp_path: Path):
        """The engine builds the one chaos injector: none without a
        chaos spec (so ``jobs=1`` runs inline), a refusal without an
        out-dir, and markers under ``<out_dir>/.chaos`` with one."""
        spec = CampaignSpec(
            name="injector",
            action="synthetic",
            workloads=("MSNFS",),
            devices=(DeviceSpec("new", "new-node"),),
            methods=("revision",),
            n_requests=(100, 101),
            options={"iters_per_request": 3},
        )
        plain = CampaignEngine(spec, out_dir=tmp_path / "plain", resilience=Resilience())
        assert plain.injector is None
        assert plain.run().supervision is None  # inline at jobs=1
        chaos = Resilience(chaos=ChaosSpec.parse("kill@1"))
        with pytest.raises(ValueError, match="chaos injection needs an out_dir"):
            CampaignEngine(spec, out_dir=None, resilience=chaos)
        armed = CampaignEngine(spec, out_dir=tmp_path / "armed", resilience=chaos)
        assert isinstance(armed.injector, ChaosInjector)
        assert armed.injector.markers_dir == tmp_path / "armed" / ".chaos"


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------


class TestHeartbeats:
    def test_write_then_age(self, tmp_path: Path):
        beat = tmp_path / "hearts" / "w0.hb"
        assert heartbeat_age_s(beat) == float("inf")
        write_heartbeat(beat)
        assert heartbeat_age_s(beat) < 5.0

    def test_age_uses_supplied_now(self, tmp_path: Path):
        beat = tmp_path / "w0.hb"
        write_heartbeat(beat)
        mtime = beat.stat().st_mtime
        assert heartbeat_age_s(beat, now=mtime + 42.0) == pytest.approx(42.0)


# ----------------------------------------------------------------------
# Quarantine-aware table views
# ----------------------------------------------------------------------


def _mixed_table() -> ResultsTable:
    good = {"workload": "a", "value": 1.0}
    bad = quarantine_row(
        {"workload": "b", "value": None}, ValueError("boom"), attempts=3
    )
    good2 = {"workload": "c", "value": 3.0}
    return ResultsTable.from_rows([good, bad, good2])


class TestQuarantineViews:
    def test_quarantined_rows_selected(self):
        table = _mixed_table()
        assert len(table.quarantined()) == 1
        assert table.quarantined().column("workload") == ["b"]

    def test_without_quarantined_drops_rows_and_marker_columns(self):
        table = _mixed_table()
        clean = table.without_quarantined()
        assert len(clean) == 2
        assert set(clean.columns) == {"workload", "value"}

    def test_without_quarantined_matches_undisturbed(self):
        disturbed = _mixed_table().without_quarantined()
        oracle = ResultsTable.from_rows(
            [{"workload": "a", "value": 1.0}, {"workload": "c", "value": 3.0}]
        )
        assert disturbed == oracle

    def test_tables_without_status_pass_through(self):
        table = ResultsTable.from_rows([{"x": 1}, {"x": 2}])
        assert table.without_quarantined() == table
        assert len(table.quarantined()) == 0
