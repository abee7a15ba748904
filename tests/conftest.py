"""Shared fixtures: small traces, devices, and workload specs.

Fixture sizes are deliberately modest so the whole suite runs in well
under a minute; the benchmark harness exercises full-scale runs.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

from repro.storage import ConstantLatencyDevice, FlashArray, HDDModel, SATA_600
from repro.trace import BlockTrace, OpType
from repro.workloads import (
    IdleProcess,
    SizeMix,
    WorkloadSpec,
    collect_trace,
    generate_intents,
)


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away: every write raises."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


@pytest.fixture()
def closed_stdout():
    """A ``redirect_stdout`` into a pipe its reader closed (``cmd | head -1``)."""
    return contextlib.redirect_stdout(_ClosedPipe())


@pytest.fixture()
def tiny_trace() -> BlockTrace:
    """Five hand-written requests with known gaps and device stamps."""
    return BlockTrace(
        timestamps=[0.0, 100.0, 250.0, 1250.0, 1300.0],
        lbas=[0, 8, 16, 1000, 1008],
        sizes=[8, 8, 8, 16, 8],
        ops=[int(OpType.READ)] * 3 + [int(OpType.WRITE)] * 2,
        issues=[0.0, 105.0, 255.0, 1255.0, 1310.0],
        completes=[80.0, 185.0, 335.0, 1350.0, 1400.0],
        name="tiny",
    )


@pytest.fixture()
def mixed_spec() -> WorkloadSpec:
    """A compact workload with size variety, idles and async requests."""
    return WorkloadSpec(
        name="mixed",
        category="test",
        n_requests=2_000,
        read_fraction=0.6,
        seq_run_continue=0.45,
        size_mix=SizeMix(sizes=(8, 16, 64, 256), weights=(0.55, 0.25, 0.15, 0.05)),
        idle=IdleProcess(idle_fraction=0.25, idle_median_us=15_000.0, idle_sigma=1.8),
        async_fraction=0.2,
        seed=11,
    )


@pytest.fixture()
def hdd() -> HDDModel:
    """Default decade-old disk model."""
    return HDDModel()

@pytest.fixture()
def flash() -> FlashArray:
    """Default four-SSD all-flash array (the NEW node)."""
    return FlashArray()


@pytest.fixture()
def const_device() -> ConstantLatencyDevice:
    """Deterministic fixed-latency device for replayer arithmetic tests."""
    return ConstantLatencyDevice(SATA_600, read_us=100.0, write_us=200.0)


@pytest.fixture()
def old_trace(mixed_spec: WorkloadSpec, hdd: HDDModel) -> BlockTrace:
    """OLD-node collection of the mixed workload (device stamps kept)."""
    return collect_trace(generate_intents(mixed_spec), hdd, record_device_times=True)


@pytest.fixture()
def old_trace_bare(mixed_spec: WorkloadSpec, hdd: HDDModel) -> BlockTrace:
    """FIU-style OLD trace: no device stamps, inference required."""
    return collect_trace(generate_intents(mixed_spec), hdd, record_device_times=False)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic NumPy generator for ad-hoc sampling in tests."""
    return np.random.default_rng(1234)
