"""Bulk parsers vs the line-by-line oracle: column identity + hardening.

The vectorised parsers in :mod:`repro.trace.io.bulk` must produce
column-identical traces to the row-wise parsers (the temporary test
oracle) on every dialect, including the optional issue/completion and
sync columns, and must harden the same way: CRLF line endings,
trailing whitespace, and malformed rows that raise a
:class:`TraceParseError` carrying the 1-based line number.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    BlockTrace,
    OpType,
    ParseError,
    TraceParseError,
    load_trace,
    parse_fiu,
    parse_fiu_bulk,
    parse_internal,
    parse_internal_bulk,
    parse_msps,
    parse_msps_bulk,
    parse_msrc,
    parse_msrc_bulk,
    write_csv,
)

_COLUMNS = ("timestamps", "lbas", "sizes", "ops", "issues", "completes", "syncs")


def assert_column_identical(a: BlockTrace, b: BlockTrace) -> None:
    for column in _COLUMNS:
        ca, cb = getattr(a, column), getattr(b, column)
        assert (ca is None) == (cb is None), f"column {column} presence differs"
        if ca is not None:
            np.testing.assert_array_equal(ca, cb, err_msg=f"column {column}")


@st.composite
def trace_texts(draw):
    """Random rows for every dialect, plus op-spelling variety."""
    n = draw(st.integers(min_value=1, max_value=80))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    ts = np.cumsum(rng.integers(1, 10**7, n))
    lbas = rng.integers(0, 1 << 40, n)
    sizes = rng.integers(1, 512, n)
    ops = rng.integers(0, 2, n)
    dev = rng.integers(1, 10**6, n)
    read_spelling = draw(st.sampled_from(["R", "r", "Read", "read", "0"]))
    write_spelling = draw(st.sampled_from(["W", "w", "Write", "write", "1"]))
    spell = [read_spelling if o == 0 else write_spelling for o in ops]
    return ts, lbas, sizes, ops, dev, spell


class TestColumnIdentity:
    @given(trace_texts())
    @settings(max_examples=25, deadline=None)
    def test_msrc(self, data):
        ts, lbas, sizes, _, dev, spell = data
        lines = [
            f"{ts[i]},host,0,{spell[i]},{lbas[i] * 512},{sizes[i] * 512},{dev[i]}"
            for i in range(len(ts))
        ]
        assert_column_identical(parse_msrc(lines), parse_msrc_bulk(lines))

    @given(trace_texts())
    @settings(max_examples=25, deadline=None)
    def test_fiu(self, data):
        ts, lbas, sizes, _, _, spell = data
        # Ragged rows: the optional trailing md5 appears on some lines.
        lines = [
            f"{ts[i] / 1e6:.6f} 12 proc {lbas[i]} {sizes[i]} {spell[i]} 8 1"
            + (" d41d8cd9" if i % 2 else "")
            for i in range(len(ts))
        ]
        assert_column_identical(parse_fiu(lines), parse_fiu_bulk(lines))

    @given(trace_texts())
    @settings(max_examples=25, deadline=None)
    def test_msps(self, data):
        ts, lbas, sizes, _, dev, spell = data
        lines = [
            f"{ts[i]:.3f} {ts[i] + dev[i]:.3f} {spell[i]} {lbas[i]} {sizes[i]}"
            for i in range(len(ts))
        ]
        assert_column_identical(parse_msps(lines), parse_msps_bulk(lines))

    @given(trace_texts(), st.booleans(), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_internal_round_trip(self, data, with_dev, with_sync):
        ts, lbas, sizes, ops, dev, _ = data
        rng_sync = np.arange(len(ts)) % 3 == 0
        trace = BlockTrace(
            timestamps=ts.astype(float) - float(ts[0]),
            lbas=lbas,
            sizes=sizes,
            ops=ops.astype(np.int8),
            issues=ts.astype(float) - float(ts[0]) if with_dev else None,
            completes=ts - float(ts[0]) + dev.astype(float) if with_dev else None,
            syncs=rng_sync if with_sync else None,
            name="prop",
        )
        buffer = io.StringIO()
        write_csv(trace, buffer)
        text = buffer.getvalue()
        line = parse_internal(text.split("\n"), name="prop")
        bulk = parse_internal_bulk(text, name="prop")
        assert_column_identical(line, bulk)
        assert line.has_device_times == with_dev
        assert line.has_sync_flags == with_sync

    def test_unsorted_input_sorts_identically(self):
        lines = [
            "300.0 400.0 R 0 8",
            "100.0 150.0 W 8 16",
            "100.0 120.0 R 16 8",  # tie: stable order must hold
            "200.0 210.0 W 24 8",
        ]
        assert_column_identical(parse_msps(lines), parse_msps_bulk(lines))


class TestHardening:
    """CRLF, trailing whitespace, malformed rows — both engines."""

    MSRC = "1000,host,0,Read,4096,8192,1200"

    @pytest.mark.parametrize("parse", [parse_msrc, parse_msrc_bulk])
    def test_crlf_and_trailing_whitespace(self, parse):
        clean = parse([self.MSRC, self.MSRC.replace("1000", "2000")])
        messy = parse(f"{self.MSRC}  \r\n{self.MSRC.replace('1000', '2000')}\t\r\n".split("\n"))
        assert_column_identical(clean, messy)

    @pytest.mark.parametrize("parse", [parse_msrc_bulk])
    def test_crlf_whole_string_input(self, parse):
        text = f"{self.MSRC}\r\n{self.MSRC.replace('1000', '2000')}\r\n"
        assert len(parse(text)) == 2

    @pytest.mark.parametrize(
        "parse,line,match",
        [
            (parse_msrc, "1,2,3", "line 2"),
            (parse_msrc_bulk, "1,2,3", "line 2"),
            (parse_msrc, "x,host,0,Read,0,512,1", "line 2"),
            (parse_msrc_bulk, "x,host,0,Read,0,512,1", "line 2"),
            (parse_msrc, "1,host,0,Read,0,0,1", "size"),
            (parse_msrc_bulk, "1,host,0,Read,0,0,1", "size"),
            (parse_fiu, "1.0 1 p 0 8", "line 2"),
            (parse_fiu_bulk, "1.0 1 p 0 8", "line 2"),
            (parse_msps, "100.0 50.0 R 0 8", "precedes"),
            (parse_msps_bulk, "100.0 50.0 R 0 8", "precedes"),
            (parse_msps, "1.0 2.0 Q 0 8", "line 2"),
            (parse_msps_bulk, "1.0 2.0 Q 0 8", "line 2"),
        ],
    )
    def test_malformed_rows_raise_with_line_number(self, parse, line, match):
        with pytest.raises(TraceParseError, match=match):
            parse(["# leading comment", line])

    @pytest.mark.parametrize("parse", [parse_msrc, parse_msrc_bulk])
    def test_line_number_points_at_offender(self, parse):
        good = self.MSRC
        with pytest.raises(TraceParseError) as info:
            parse([good, "", "# note", "broken,row"])
        assert info.value.lineno == 4
        assert "broken,row" in info.value.line

    @pytest.mark.parametrize("parse", [parse_internal, parse_internal_bulk])
    def test_internal_header_missing_complete(self, parse):
        with pytest.raises(TraceParseError, match="complete_us"):
            parse(["timestamp_us,lba,size_sectors,op,issue_us", "0.0,0,8,R,1.0"])

    @pytest.mark.parametrize("parse", [parse_internal, parse_internal_bulk])
    def test_internal_bad_header(self, parse):
        with pytest.raises(TraceParseError, match="header"):
            parse(["foo,bar,baz,qux", "1,2,3,R"])

    def test_parse_error_alias(self):
        assert ParseError is TraceParseError

    @pytest.mark.parametrize(
        "parse", [parse_msrc, parse_msrc_bulk, parse_fiu, parse_fiu_bulk,
                  parse_msps, parse_msps_bulk, parse_internal, parse_internal_bulk]
    )
    def test_empty_and_comment_only(self, parse):
        assert len(parse([])) == 0
        assert len(parse(["# only a comment", "", "   "])) == 0


class TestFastPathStaysFast:
    """The vectorised path must succeed *without* the oracle fallback.

    The public parsers fall back silently on data-shaped errors, so a
    broken fast path would make every parity test vacuously compare
    the oracle to itself; disabling the per-block oracle while the
    public parsers run keeps the >=5x ingestion speedup observable in
    CI.
    """

    def test_fast_paths_parse_canonical_inputs(self, monkeypatch):
        from repro.trace.io import bulk

        def no_oracle(lines):
            raise AssertionError("the fast path fell back to the oracle")

        for fmt, dialect in bulk._DIALECTS.items():
            monkeypatch.setitem(bulk._DIALECTS, fmt, dialect._replace(oracle=no_oracle))
        msrc = "1000,host,0,Read,4096,8192,1200\n2000,host,0,Write,0,512,10\n"
        assert len(parse_msrc_bulk(msrc, "m", True)) == 2
        fiu = "1.0 1 p 0 8 R 8 1\n2.0 1 p 8 8 W 8 1 md5\n"
        assert len(parse_fiu_bulk(fiu, "f", True)) == 2
        msps = "0.0 150.0 R 0 8\n200.0 900.0 W 8 16\n"
        assert len(parse_msps_bulk(msps, "s", True)) == 2
        internal = "timestamp_us,lba,size_sectors,op\n0.0,0,8,R\n5.0,8,16,W\n"
        assert len(parse_internal_bulk(internal, "i", True)) == 2


class TestLoadTraceEngines:
    def test_engines_agree_on_disk(self, tmp_path):
        trace = BlockTrace([0.0, 5.0, 9.0], [0, 8, 64], [8, 8, 16], [0, 1, 0], name="d")
        path = tmp_path / "d.csv"
        with path.open("w") as handle:
            write_csv(trace, handle)
        bulk = load_trace(path)
        line = load_trace(path, engine="line")
        assert_column_identical(bulk, line)
        assert bulk.name == "d"

    def test_crlf_file_on_disk(self, tmp_path):
        path = tmp_path / "m.msrc"
        path.write_bytes(b"1000,h,0,Read,0,512,10\r\n2000,h,0,Write,512,512,10\r\n")
        assert len(load_trace(path, fmt="msrc")) == 2

    def test_unknown_engine_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("timestamp_us,lba,size_sectors,op\n")
        with pytest.raises(ValueError, match="engine"):
            load_trace(path, engine="warp")
