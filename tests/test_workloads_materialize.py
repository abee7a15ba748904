"""collect_trace_cached: exact hits, key sensitivity, shared intents."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.storage import (
    SATA_600,
    ConstantLatencyDevice,
    FlashArray,
    FlashSSD,
    HDDModel,
    Raid1,
)
from repro.trace import TraceStore
from repro.workloads import (
    WorkloadSpec,
    collect_trace,
    collect_trace_cached,
    generate_intents,
    spec_key,
)
from repro.workloads import materialize as materialize_module


@pytest.fixture()
def spec() -> WorkloadSpec:
    return WorkloadSpec(name="mat", n_requests=300, seed=21)


@pytest.fixture()
def store(tmp_path) -> TraceStore:
    return TraceStore(root=tmp_path / "traces")


def assert_identical(a, b):
    for column in ("timestamps", "lbas", "sizes", "ops", "issues", "completes", "syncs"):
        ca, cb = getattr(a, column), getattr(b, column)
        assert (ca is None) == (cb is None), column
        if ca is not None:
            np.testing.assert_array_equal(ca, cb, err_msg=column)


class TestCaching:
    def test_hit_equals_direct_collection(self, spec, store):
        device = HDDModel(seed=5)
        direct = collect_trace(generate_intents(spec), HDDModel(seed=5))
        first = collect_trace_cached(spec, device, store=store)
        cached = collect_trace_cached(spec, HDDModel(seed=5), store=store)
        assert store.misses == 1 and store.hits == 1
        assert_identical(direct, first)
        assert_identical(direct, cached)
        assert cached.metadata == direct.metadata

    def test_hit_skips_generation(self, spec, store, monkeypatch):
        device = ConstantLatencyDevice(SATA_600)
        collect_trace_cached(spec, device, store=store)

        def boom(_spec):
            raise AssertionError("store hit expected; intents regenerated")

        monkeypatch.setattr(materialize_module, "generate_intents", boom)
        trace = collect_trace_cached(spec, ConstantLatencyDevice(SATA_600), store=store)
        assert len(trace) == spec.n_requests

    @pytest.mark.parametrize(
        "variant",
        [
            lambda s, d: (s.scaled(301), d),  # different spec
            lambda s, d: (s, HDDModel(seed=6)),  # different device seed
            lambda s, d: (s, ConstantLatencyDevice(SATA_600)),  # different device
        ],
    )
    def test_key_sensitivity(self, spec, store, variant):
        base_device = HDDModel(seed=5)
        collect_trace_cached(spec, base_device, store=store)
        other_spec, other_device = variant(spec, base_device)
        collect_trace_cached(other_spec, other_device, store=store)
        assert store.misses == 2 and store.hits == 0

    def test_flags_change_key(self, spec, store):
        device = ConstantLatencyDevice(SATA_600)
        collect_trace_cached(spec, device, store=store, record_device_times=True)
        bare = collect_trace_cached(
            spec, ConstantLatencyDevice(SATA_600), store=store, record_device_times=False
        )
        assert store.misses == 2
        assert not bare.has_device_times

    def test_generation_code_change_invalidates(self, spec, store, monkeypatch):
        device = ConstantLatencyDevice(SATA_600)
        collect_trace_cached(spec, device, store=store)
        # Simulate an edit to the generator/storage-model sources.
        monkeypatch.setattr(
            materialize_module, "generation_fingerprint", lambda: "deadbeef0000"
        )
        collect_trace_cached(spec, ConstantLatencyDevice(SATA_600), store=store)
        assert store.misses == 2 and store.hits == 0

    def test_fingerprint_hashes_every_module_collection_runs(self, spec):
        """A source file whose code runs while a trace is generated and
        collected must be hashed into the store key, or an edit to it
        would keep serving stale entries.  Collection runs through the
        replay package's submission loops, one per device family."""
        devices = [
            HDDModel(seed=5),
            FlashSSD(),
            FlashArray(),
            Raid1([HDDModel(seed=s) for s in (1, 2)]),
            HDDModel(write_back_cache_kb=256),
        ]
        ran: set[str] = set()

        def profile(frame, event, arg):
            if event == "call":
                ran.add(frame.f_code.co_filename)

        sys.setprofile(profile)
        try:
            intents = generate_intents(spec)
            for device in devices:
                collect_trace(intents, device)
        finally:
            sys.setprofile(None)
        package_root = Path(materialize_module.__file__).resolve().parents[1]
        ran_in_package = {
            Path(name).resolve() for name in ran if Path(name).resolve().is_relative_to(package_root)
        }
        assert package_root / "replay" / "qdepth.py" in ran_in_package
        assert ran_in_package <= set(materialize_module._generation_sources())

    def test_disabled_store_collects_directly(self, spec, tmp_path):
        disabled = TraceStore(root=tmp_path / "none", enabled=False)
        trace = collect_trace_cached(spec, ConstantLatencyDevice(SATA_600), store=disabled)
        assert len(trace) == spec.n_requests
        assert not (tmp_path / "none").exists()

    def test_shared_intents_factory_generates_once(self, spec, store):
        streams: list[int] = []

        def factory():
            streams.append(1)
            return generate_intents(spec)

        collect_trace_cached(
            spec, ConstantLatencyDevice(SATA_600), store=store, intents_factory=factory
        )
        collect_trace_cached(
            spec, HDDModel(seed=5), store=store, intents_factory=factory
        )
        assert streams == [1, 1]  # two misses -> generated per miss
        collect_trace_cached(
            spec, ConstantLatencyDevice(SATA_600), store=store, intents_factory=factory
        )
        assert streams == [1, 1]  # hit -> not regenerated


class TestSpecKey:
    def test_covers_every_knob(self, spec):
        assert spec_key(spec) != spec_key(spec.scaled(301))
        assert "seed=21" in spec_key(spec)

    def test_device_fingerprints_distinguish_configurations(self):
        assert HDDModel(seed=1).fingerprint() != HDDModel(seed=2).fingerprint()
        assert (
            HDDModel(write_back_cache_kb=0).fingerprint()
            != HDDModel(write_back_cache_kb=512).fingerprint()
        )
        from repro.storage import FlashArray

        assert FlashArray(n_ssds=2).fingerprint() != FlashArray(n_ssds=4).fingerprint()
