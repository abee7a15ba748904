"""Property-based tests for RAID fragmenting and replay invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replay import replay_with_idle
from repro.storage import ConstantLatencyDevice, Raid0, SATA_600

from test_properties import block_traces


class TestRaidProperties:
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10**7),
        st.integers(min_value=1, max_value=5000),
    )
    @settings(max_examples=60)
    def test_fragments_cover_extent_exactly(self, n_members, stripe_kb, lba, size):
        raid = Raid0(
            [ConstantLatencyDevice(SATA_600) for _ in range(n_members)], stripe_kb=stripe_kb
        )
        frags = raid._fragments(lba, size)
        assert sum(f[2] for f in frags) == size
        assert all(0 <= f[0] < n_members for f in frags)
        assert all(f[2] >= 1 for f in frags)
        # No fragment exceeds the stripe unit.
        assert all(f[2] <= raid.stripe_sectors for f in frags)


class TestReplayProperties:
    @given(block_traces(min_n=2, max_n=40), st.data())
    @settings(max_examples=30, deadline=None)
    def test_replay_gap_decomposition(self, trace, data):
        n = len(trace)
        idle = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=1e5),
                    min_size=n - 1,
                    max_size=n - 1,
                )
            )
        )
        device = ConstantLatencyDevice(SATA_600, read_us=50.0, write_us=75.0)
        result = replay_with_idle(trace, device, idle)
        gaps = result.trace.inter_arrival_times()
        # Every replayed gap is exactly service latency + injected idle.
        latencies = np.array([c.latency for c in result.completions[:-1]])
        np.testing.assert_allclose(gaps, latencies + idle, rtol=1e-9, atol=1e-6)
        # And therefore never shorter than the idle alone.
        assert np.all(gaps >= idle - 1e-9)
