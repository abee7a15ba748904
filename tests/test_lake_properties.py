"""Content dedup in the lake catalog.

Identical bytes reached through two paths are one piece of content:
the catalog keeps one artifact row for them, with a reference edge per
path.
"""

from __future__ import annotations

import numpy as np

from repro.lake import LakeCatalog
from repro.trace import BlockTrace, load_trace_npz, save_trace_npz


class TestDedupProperty:
    def test_same_bytes_two_paths_one_row_two_refs(self, tmp_path):
        """Ingesting one trace's bytes from two locations yields exactly
        one artifact row and both reference edges."""
        rng = np.random.default_rng(11)
        n = 50
        ts = np.cumsum(rng.random(n))
        trace = BlockTrace(
            timestamps=ts - ts[0],
            lbas=rng.integers(0, 1 << 20, n),
            sizes=rng.integers(1, 64, n),
            ops=rng.integers(0, 2, n).astype(np.int8),
        )
        a = save_trace_npz(trace, tmp_path / "a" / "t.npz")
        b = tmp_path / "b" / "t.npz"
        b.parent.mkdir()
        b.write_bytes(a.read_bytes())
        with LakeCatalog(tmp_path / "lake.sqlite") as cat:
            fp1 = cat.record_trace(a, load_trace_npz(a), ref="store:aaa")
            fp2 = cat.record_trace(b, load_trace_npz(b), ref="store:bbb")
            assert fp1 == fp2
            assert cat.counts()["artifacts"] == 1
            assert cat.refs(fp1) == ["store:aaa", "store:bbb"]
