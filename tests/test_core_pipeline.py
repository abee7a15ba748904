"""Unit and integration tests for the TraceTracker pipeline and baselines."""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from functools import cache

import numpy as np
import pytest

from repro.core import (
    Acceleration,
    Dynamic,
    FixedThreshold,
    PostprocessStage,
    Revision,
    TraceTracker,
    TraceTrackerConfig,
    TraceTrackerMethod,
    standard_methods,
)
from repro.experiments import new_node, old_node
from repro.metrics import ks_distance
from repro.trace import BlockTrace
from repro.workloads import collect_trace, generate_intents, get_spec


class TestTraceTrackerPipeline:
    def test_reconstruction_preserves_pattern(self, old_trace, flash):
        result = TraceTracker().reconstruct(old_trace, flash)
        np.testing.assert_array_equal(result.trace.lbas, old_trace.lbas)
        np.testing.assert_array_equal(result.trace.ops, old_trace.ops)
        assert len(result.trace) == len(old_trace)

    def test_software_half_standalone(self, old_trace):
        tracker = TraceTracker()
        extraction = tracker.infer.run(old_trace)
        assert len(extraction) == len(old_trace) - 1
        assert extraction.used_measured_tsdev

    def test_reconstruction_is_deterministic(self, old_trace, flash):
        a = TraceTracker().reconstruct(old_trace, flash).trace
        b = TraceTracker().reconstruct(old_trace, flash).trace
        np.testing.assert_allclose(a.timestamps, b.timestamps)

    def test_result_exposes_idle_and_async(self, old_trace, flash):
        result = TraceTracker().reconstruct(old_trace, flash)
        assert (result.extraction.tidle_us >= 0).all()
        assert result.async_indices.ndim == 1
        assert result.method == "tracetracker"

    def test_postprocess_shortens_trace(self, old_trace, flash):
        with_pp = TraceTracker().reconstruct(old_trace, flash).trace
        without = TraceTracker(
            TraceTrackerConfig(postprocess=False)
        ).reconstruct(old_trace, flash).trace
        # Post-processing only removes spurious waits.
        assert with_pp.duration <= without.duration

    def test_works_on_bare_traces(self, old_trace_bare, flash):
        result = TraceTracker().reconstruct(old_trace_bare, flash)
        assert result.extraction.report is not None
        assert len(result.trace) == len(old_trace_bare)

    def test_config_validation(self):
        # The post-processing floor is one constant, not an option.
        with pytest.raises(TypeError):
            TraceTrackerConfig(min_async_gap_us=-1.0)
        assert TraceTrackerConfig().min_async_gap_us == 1.0
        assert PostprocessStage().min_async_gap_us == TraceTrackerConfig.min_async_gap_us


class TestBaselines:
    def test_acceleration_scales_gaps_exactly(self, old_trace, flash):
        rec = Acceleration(100.0).reconstruct(old_trace, flash)
        np.testing.assert_allclose(
            rec.inter_arrival_times(), old_trace.inter_arrival_times() / 100.0
        )

    def test_acceleration_validation(self):
        with pytest.raises(ValueError):
            Acceleration(0.0)

    def test_revision_drops_all_idle(self, old_trace, flash):
        rec = Revision().reconstruct(old_trace, flash)
        # Much shorter than the original: idles gone, device faster.
        assert rec.duration < old_trace.duration * 0.1

    def test_fixed_threshold_keeps_long_idles(self, old_trace, flash):
        rec = FixedThreshold(10_000.0).reconstruct(old_trace, flash)
        rev = Revision().reconstruct(old_trace, flash)
        assert rec.duration > rev.duration

    def test_fixed_threshold_validation(self):
        with pytest.raises(ValueError):
            FixedThreshold(0.0)

    def test_dynamic_skips_postprocess(self, old_trace, flash):
        dyn = Dynamic().reconstruct(old_trace, flash)
        full = TraceTrackerMethod().reconstruct(old_trace, flash)
        assert dyn.duration >= full.duration

    def test_standard_methods_roster(self):
        methods = standard_methods()
        names = [m.name for m in methods]
        assert names == [
            "acceleration-100x",
            "revision",
            "fixed-th-10ms",
            "dynamic",
            "tracetracker",
        ]

    def test_all_methods_preserve_length(self, old_trace, flash):
        for method in standard_methods():
            rec = method.reconstruct(old_trace, flash)
            assert len(rec) == len(old_trace), method.name


class TestHeadlineBehaviour:
    """The paper's qualitative ranking must hold on our substrate."""

    def test_tracetracker_hugs_target_best(self, mixed_spec, hdd, flash):
        # OLD/NEW pair from the same intent stream (the paper's method).
        stream = generate_intents(mixed_spec)
        old = collect_trace(stream, hdd)
        new = collect_trace(stream, flash)  # ground truth on flash
        distances = {}
        for method in standard_methods():
            rec = method.reconstruct(old, flash)
            distances[method.name] = ks_distance(rec, new)
        assert distances["tracetracker"] < distances["revision"]
        assert distances["tracetracker"] < distances["acceleration-100x"]
        assert distances["tracetracker"] < distances["fixed-th-10ms"]

    def test_duration_ordering(self, mixed_spec, hdd, flash):
        stream = generate_intents(mixed_spec)
        old = collect_trace(stream, hdd)
        new = collect_trace(stream, flash)
        tt = TraceTrackerMethod().reconstruct(old, flash)
        rev = Revision().reconstruct(old, flash)
        # Revision collapses everything; TraceTracker keeps idle, so its
        # duration must sit near the true NEW duration.
        assert rev.duration < tt.duration
        assert tt.duration == pytest.approx(new.duration, rel=0.5)


#: SHA-256 of the timestamp, issue and complete columns of each
#: reconstruction of a 10 000-request OLD trace on the NEW node, plus
#: its metrics where the entry point returns them.  ``msnfs-bare``
#: carries no device stamps, so its latency model is inferred;
#: ``usr-stamped`` takes the measured path.  Only a pin shows a change
#: that moves every entry point at once.
PINNED_RECONSTRUCTION_DIGESTS = {
    ("msnfs-bare", "tracetracker"): "b05806d82d3662844c304c4b705911919413ab23aa582e734f37b4ead92b4845",
    ("msnfs-bare", "dynamic"): "4de9ad2a07f43484e6a4c7fd1b6817c16e59cf6bc1e3c6107c11a152f3de6d0a",
    ("msnfs-bare", "stream"): "79a7016a79353064c01b450d2c3673214f822c7f51a48469a086ce0a1c28644a",
    ("usr-stamped", "tracetracker"): "f7aff9b4cf3e6b4b14f2fd3a03a66517fb03f3fa299fee9f08d29eaa285cc86e",
    ("usr-stamped", "dynamic"): "4f1d1681d5cc6b5673246943266253b826eabbaba28f3dd7bade3c54cc06c55d",
    ("usr-stamped", "stream"): "f251952c808d6565ef92a8478066e98b4a85ddd96e9051ee543356821705195b",
}

_DIGEST_INPUTS = {"msnfs-bare": ("MSNFS", False), "usr-stamped": ("usr", True)}


@cache
def _digest_input(name: str) -> BlockTrace:
    workload, stamped = _DIGEST_INPUTS[name]
    intents = generate_intents(get_spec(workload).scaled(10_000))
    return collect_trace(intents, old_node(), record_device_times=stamped)


class TestReconstructionDigests:
    @staticmethod
    def _digest(trace: BlockTrace, metrics=None) -> str:
        digest = hashlib.sha256()
        for name in ("timestamps", "issues", "completes"):
            column = getattr(trace, name)
            digest.update(f"{name}:{column.dtype.str}:".encode())
            digest.update(np.ascontiguousarray(column).tobytes())
        if metrics is not None:
            digest.update(repr(sorted(asdict(metrics).items())).encode())
        return digest.hexdigest()

    @pytest.mark.parametrize("name, entry", list(PINNED_RECONSTRUCTION_DIGESTS))
    def test_reconstruction_is_pinned(self, name, entry):
        old = _digest_input(name)
        if entry == "tracetracker":
            result = TraceTracker().reconstruct(old, new_node())
            got = self._digest(result.trace, result.metrics)
        elif entry == "dynamic":
            got = self._digest(Dynamic().reconstruct(old, new_node()))
        else:
            chunks = (old.select(slice(s, s + 256)) for s in range(0, len(old), 256))
            result = TraceTracker().reconstruct_stream(chunks, new_node())
            got = self._digest(result.trace, result.metrics)
        assert got == PINNED_RECONSTRUCTION_DIGESTS[(name, entry)]
