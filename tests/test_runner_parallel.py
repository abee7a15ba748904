"""Tests for the ParallelRunner: CLI parsing, trace store, parallel parity."""

from __future__ import annotations

import io

import pytest

from repro.experiments.runner import ParallelRunner, main

FAST_SUBSET = {"fig5", "fig9"}


def render(runner: ParallelRunner) -> str:
    out = io.StringIO()
    runner.run(out=out, log=io.StringIO())
    return out.getvalue()


class TestCLI:
    def test_full_flag_set_parses_and_writes(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(
            [
                "--fast",
                "--only", "fig9",
                "--out", str(out),
                "--jobs", "2",
                "--trace-store-dir", str(tmp_path / "traces"),
            ]
        )
        assert code == 0
        assert "Figure 9" in out.read_text()
        # the trace store is on by default, at the given directory
        assert f"dir={tmp_path / 'traces'}" in capsys.readouterr().err

    def test_no_cache_writes_nothing(self, tmp_path, monkeypatch):
        """Without the trace store a run writes its report and nothing else."""
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.delenv("REPRO_TRACE_STORE_DIR", raising=False)
        out = tmp_path / "report.txt"
        code = main(["--fast", "--only", "fig9", "--out", str(out), "--no-trace-store"])
        assert code == 0
        assert "Figure 9" in out.read_text()
        assert not any(home.iterdir())

    def test_unknown_experiment_id_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment ids"):
            ParallelRunner(only={"fig99"})

    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelRunner(jobs=0)



class TestTraceStore:
    def test_second_run_loads_from_store(self, tmp_path):
        """Catalog traces are materialised once, then memory-mapped back."""
        store_dir = tmp_path / "traces"

        def run() -> tuple[str, str]:
            out, log = io.StringIO(), io.StringIO()
            ParallelRunner(
                n_requests=600,
                only={"fig16"},
                use_trace_store=True,
                trace_store_dir=store_dir,
            ).run(out=out, log=log)
            return out.getvalue(), log.getvalue()

        first_report, first_log = run()
        second_report, second_log = run()
        assert first_report == second_report
        assert "misses=" in first_log and "hits=0" in first_log
        assert "hits=0" not in second_log and "misses=0" in second_log
        assert list(store_dir.glob("*.npz"))

    def test_parallel_workers_report_store_stats(self, tmp_path):
        """hit/miss counters from worker processes reach the parent's log."""
        import re

        store_dir = tmp_path / "traces"

        def run() -> tuple[int, int]:
            log = io.StringIO()
            ParallelRunner(
                n_requests=600,
                only={"fig5", "fig16"},
                jobs=2,
                use_trace_store=True,
                trace_store_dir=store_dir,
            ).run(out=io.StringIO(), log=log)
            match = re.search(r"hits=(\d+) misses=(\d+)", log.getvalue())
            assert match is not None
            return int(match.group(1)), int(match.group(2))

        _, first_misses = run()
        second_hits, second_misses = run()
        assert first_misses > 0
        assert second_hits > 0 and second_misses == 0

    def test_store_off_matches_store_on(self, tmp_path):
        plain, stored = io.StringIO(), io.StringIO()
        ParallelRunner(n_requests=600, only={"fig16"}).run(
            out=plain, log=io.StringIO()
        )
        ParallelRunner(
            n_requests=600,
            only={"fig16"},
            use_trace_store=True,
            trace_store_dir=tmp_path / "traces",
        ).run(out=stored, log=io.StringIO())
        assert plain.getvalue() == stored.getvalue()

    def test_cli_flags(self, tmp_path):
        out = tmp_path / "report.txt"
        code = main(
            [
                "--fast",
                "--only", "fig16",
                "--out", str(out),
                "--trace-store-dir", str(tmp_path / "traces"),
            ]
        )
        assert code == 0
        assert list((tmp_path / "traces").glob("*.npz"))
        code = main(
            [
                "--fast",
                "--only", "fig16",
                "--out", str(out),
                "--no-trace-store",
                "--trace-store-dir", str(tmp_path / "empty"),
            ]
        )
        assert code == 0
        assert not (tmp_path / "empty").exists()


class TestParallelParity:
    def test_parallel_report_matches_sequential(self):
        sequential = render(ParallelRunner(n_requests=600, only=FAST_SUBSET, jobs=1))
        parallel = render(ParallelRunner(n_requests=600, only=FAST_SUBSET, jobs=2))
        assert sequential == parallel
        # Canonical ordering: fig5 renders before fig9 in both.
        assert sequential.index("Figure 5") < sequential.index("Figure 9")
