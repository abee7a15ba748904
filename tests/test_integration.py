"""End-to-end integration tests across the whole stack.

These exercise full user journeys: catalog → OLD collection →
inference → replay → post-processing → persisted trace → reload, and
check cross-module invariants nothing else covers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    TraceTracker,
    collect_trace,
    dump_trace,
    generate_intents,
    get_spec,
    load_trace,
    standard_methods,
)
from repro.experiments import build_pair_for, new_node, old_node
from repro.inference import model_sanity
from repro.metrics import ks_distance
from repro.workloads import workload_names

# One representative per family keeps the integration pass fast.
SAMPLE_WORKLOADS = ("CFS", "ikki", "wdev")


class TestFullReconstructionJourney:
    @pytest.mark.parametrize("workload", SAMPLE_WORKLOADS)
    def test_catalog_to_reconstruction(self, workload):
        pair = build_pair_for(workload, n_requests=1500)
        result = TraceTracker().reconstruct(pair.old, new_node())
        new = result.trace
        # Pattern preserved, timing monotone, device stamps collected.
        np.testing.assert_array_equal(new.lbas, pair.old.lbas)
        assert np.all(np.diff(new.timestamps) >= 0)
        assert new.has_device_times
        # The inferred model is physically plausible.
        if result.extraction.report is not None:
            assert model_sanity(result.extraction.report.model) == []

    @pytest.mark.parametrize("workload", SAMPLE_WORKLOADS)
    def test_reconstruction_beats_naive_methods(self, workload):
        pair = build_pair_for(workload, n_requests=1500)
        distances = {
            m.name: ks_distance(m.reconstruct(pair.old, new_node()), pair.new)
            for m in standard_methods()
        }
        assert distances["tracetracker"] < distances["acceleration-100x"]
        assert distances["tracetracker"] < distances["revision"]

    def test_reconstructed_trace_round_trips_through_disk(self, tmp_path):
        pair = build_pair_for("CFS", n_requests=800)
        new = TraceTracker().reconstruct(pair.old, new_node()).trace
        path = dump_trace(new, tmp_path / "cfs_new.csv")
        reloaded = load_trace(path)
        np.testing.assert_allclose(reloaded.timestamps, new.timestamps, atol=0.01)
        np.testing.assert_allclose(reloaded.device_times(), new.device_times(), atol=0.01)

    def test_windowed_reconstruction(self):
        """Windows of a trace reconstruct independently (per-day studies)."""
        old = collect_trace(generate_intents(get_spec("MSNFS").scaled(2000)), old_node())
        window_us = old.duration / 3 + 1
        index = np.floor((old.timestamps - old.timestamps[0]) / window_us)
        windows = [old.select(index == w).rebased() for w in np.unique(index)]
        assert len(windows) >= 2
        for window in windows:
            if len(window) < 50:
                continue
            result = TraceTracker().reconstruct(window, new_node())
            assert len(result.trace) == len(window)

    def test_reconstruction_composes_with_reconstruction(self):
        """A reconstructed trace is a valid input to another pass.

        (The paper's motivation: "the target system will keep shifting
        its underlying storage technology" — reconstruction must be
        repeatable.)
        """
        pair = build_pair_for("ikki", n_requests=800)
        first = TraceTracker().reconstruct(pair.old, new_node()).trace
        second = TraceTracker().reconstruct(first, new_node()).trace
        assert len(second) == len(first)
        # A second pass onto the same hardware barely changes timing.
        assert ks_distance(second, first) < 0.25


class TestCatalogIntegrity:
    def test_every_workload_reconstructs(self):
        """Smoke: all 31 workloads run the full pipeline at tiny scale."""
        for name in workload_names():
            pair = build_pair_for(name, n_requests=400)
            result = TraceTracker().reconstruct(pair.old, new_node())
            assert len(result.trace) == 400, name

    def test_flash_reconstruction_is_denser_everywhere(self):
        for name in SAMPLE_WORKLOADS:
            pair = build_pair_for(name, n_requests=800)
            new = TraceTracker().reconstruct(pair.old, new_node()).trace
            assert new.duration <= pair.old.duration * 1.05, name
