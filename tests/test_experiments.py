"""Tests for the experiment harness: nodes, pairs, reporting, runner."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.experiments import (
    build_pair,
    build_pair_for,
    cdf_series,
    format_cdf_series,
    format_table,
    format_us,
    new_node,
    old_node,
)
from repro.experiments.runner import ParallelRunner, main
from repro.workloads import generate_intents, get_spec


class TestNodes:
    def test_old_node_is_disk(self):
        assert "hdd" in old_node().name

    def test_new_node_is_paper_array(self):
        node = new_node()
        assert node.n_ssds == 4
        assert node.ssds[0].geometry.channels == 18

    def test_old_node_seeds_differ(self):
        from repro.trace import OpType

        a = old_node(seed=1).submit(OpType.READ, 10**8, 8, 0.0)
        b = old_node(seed=2).submit(OpType.READ, 10**8, 8, 0.0)
        assert a.finish != b.finish  # different rotational phases


class TestPairs:
    def test_pair_shares_pattern(self):
        pair = build_pair_for("ikki", n_requests=200)
        np.testing.assert_array_equal(pair.old.lbas, pair.new.lbas)
        np.testing.assert_array_equal(pair.old.ops, pair.new.ops)
        assert pair.name == "ikki"

    def test_family_style_defaults(self):
        # FIU traces have no device stamps; MSPS/MSRC do.
        assert not build_pair_for("ikki", n_requests=100).old.has_device_times
        assert build_pair_for("CFS", n_requests=100).old.has_device_times
        assert build_pair_for("wdev", n_requests=100).old.has_device_times

    def test_new_trace_always_measured(self):
        pair = build_pair_for("ikki", n_requests=100)
        assert pair.new.has_device_times

    def test_explicit_style_override(self):
        pair = build_pair_for("ikki", n_requests=100, old_has_device_times=True)
        assert pair.old.has_device_times

    def test_build_pair_with_custom_devices(self, const_device):
        intents = generate_intents(get_spec("MSNFS").scaled(50))
        pair = build_pair(intents, old_device=const_device, new_device=new_node())
        assert pair.old.metadata["collected_on"] == const_device.name


class TestReporting:
    def test_format_us_scales(self):
        assert format_us(3.2) == "3.2 us"
        assert format_us(4_500.0) == "4.5 ms"
        assert format_us(2_500_000.0) == "2.5 s"
        assert format_us(float("nan")) == "n/a"

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": 2.5}, {"a": 10, "bb": 0.001}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_cdf_series_monotone(self, rng):
        series = cdf_series(rng.lognormal(5, 1, 500))
        ps = [p for _, p in series]
        assert all(b >= a for a, b in zip(ps, ps[1:]))
        assert ps[-1] == pytest.approx(1.0)

    def test_cdf_series_empty_for_nonpositive(self):
        assert cdf_series(np.array([0.0, -1.0])) == []

    def test_format_cdf_series(self, rng):
        text = format_cdf_series({"x": cdf_series(rng.lognormal(5, 1, 200))})
        assert "p50" in text


class TestABStatistics:
    """Multi-seed summary statistics and the Welch's-t verdict."""

    def test_t_critical_table_values(self):
        from repro.experiments.reporting import t_critical_95

        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(10) == pytest.approx(2.228)
        assert t_critical_95(30) == pytest.approx(2.042)
        # Beyond the table: the normal limit; fractional df floor.
        assert t_critical_95(200) == pytest.approx(1.960)
        assert t_critical_95(2.9) == t_critical_95(2)
        assert t_critical_95(0) == float("inf")

    def test_seed_summary(self):
        from repro.experiments.reporting import seed_summary, t_critical_95

        summary = seed_summary([10.0, 12.0, 14.0])
        assert summary["n"] == 3
        assert summary["mean"] == pytest.approx(12.0)
        assert summary["std"] == pytest.approx(2.0)
        assert summary["ci95"] == pytest.approx(
            t_critical_95(2) * 2.0 / np.sqrt(3)
        )

    def test_seed_summary_single_replicate(self):
        from repro.experiments.reporting import seed_summary

        summary = seed_summary([5.0])
        assert summary["n"] == 1 and summary["mean"] == 5.0
        assert np.isnan(summary["std"]) and np.isnan(summary["ci95"])

    def test_ab_verdict_significant_shift(self):
        from repro.experiments.reporting import ab_verdict

        verdict = ab_verdict([10.0, 10.1, 9.9], [14.0, 14.2, 13.8])
        assert verdict["verdict"] == "significant"
        assert verdict["significant"] is True
        assert verdict["delta"] == pytest.approx(4.0)
        assert verdict["t"] > 0 and verdict["df"] > 0

    def test_ab_verdict_overlapping_arms(self):
        from repro.experiments.reporting import ab_verdict

        verdict = ab_verdict([10.0, 14.0, 12.0], [11.0, 13.0, 12.5])
        assert verdict["verdict"] == "not significant"
        assert verdict["significant"] is False

    def test_ab_verdict_insufficient_replicates(self):
        from repro.experiments.reporting import ab_verdict

        verdict = ab_verdict([10.0], [12.0])
        assert verdict["significant"] is False
        assert "insufficient replicates" in verdict["verdict"]

    def test_ab_verdict_zero_variance(self):
        from repro.experiments.reporting import ab_verdict

        same = ab_verdict([5.0, 5.0], [5.0, 5.0])
        assert same["significant"] is False and same["delta"] == 0.0
        shifted = ab_verdict([5.0, 5.0], [9.0, 9.0])
        assert shifted["significant"] is True and shifted["delta"] == 4.0


class TestRunner:
    def test_run_all_subset(self):
        buffer = io.StringIO()
        ParallelRunner(n_requests=600, only={"fig9"}).run(out=buffer, log=io.StringIO())
        text = buffer.getvalue()
        assert "Figure 9" in text
        assert "pchip" in text
        assert "Figure 12" not in text

    def test_cli_writes_file(self, tmp_path):
        out = tmp_path / "report.txt"
        code = main(
            ["--fast", "--only", "fig9", "--out", str(out), "--trace-store-dir", str(tmp_path)]
        )
        assert code == 0
        assert "Figure 9" in out.read_text()
