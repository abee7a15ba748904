"""Unit tests for the trace parsers and writers (round trips included)."""

from __future__ import annotations

import io
from collections.abc import Iterator

import numpy as np
import pytest

from repro.trace import (
    BlockTrace,
    OpType,
    TraceParseError,
    dump_trace,
    load_trace,
    parse_fiu,
    parse_internal,
    parse_msps,
    parse_msrc,
    write_blktrace_text,
    write_csv,
    write_msrc,
)
from repro.trace.writers import CSV_BLOCK_ROWS, iter_csv_rows


def reference_csv_rows(trace: BlockTrace) -> Iterator[str]:
    """Per-row internal CSV formatter: the byte oracle for the block writer."""
    columns = ["timestamp_us", "lba", "size_sectors", "op"]
    if trace.has_device_times:
        columns += ["issue_us", "complete_us"]
    if trace.has_sync_flags:
        columns.append("sync")
    yield ",".join(columns)
    for i in range(len(trace)):
        fields = [
            f"{trace.timestamps[i]:.3f}",
            str(int(trace.lbas[i])),
            str(int(trace.sizes[i])),
            OpType(int(trace.ops[i])).to_char(),
        ]
        if trace.has_device_times:
            assert trace.issues is not None and trace.completes is not None
            fields += [f"{trace.issues[i]:.3f}", f"{trace.completes[i]:.3f}"]
        if trace.has_sync_flags:
            assert trace.syncs is not None
            fields.append("1" if trace.syncs[i] else "0")
        yield ",".join(fields)


def csv_text(trace: BlockTrace) -> str:
    buffer = io.StringIO()
    write_csv(trace, buffer)
    return buffer.getvalue()


def random_trace(n: int, stamps: bool = True, syncs: bool = True, seed: int = 0) -> BlockTrace:
    """``n`` requests with LBAs past 2^32 and sub-microsecond stamp digits."""
    rng = np.random.default_rng(seed)
    timestamps = np.cumsum(rng.exponential(75.0, n))
    issues = timestamps + rng.uniform(0.0, 9.0, n)
    return BlockTrace(
        timestamps,
        rng.integers(0, 2**40, n),
        rng.integers(1, 1024, n),
        rng.integers(0, 2, n),
        issues=issues if stamps else None,
        completes=issues + rng.exponential(300.0, n) if stamps else None,
        syncs=rng.random(n) < 0.6 if syncs else None,
    )


def with_op_code(trace: BlockTrace, row: int, code: int) -> BlockTrace:
    ops = trace.ops.copy()
    ops[row] = code
    return BlockTrace(
        trace.timestamps, trace.lbas, trace.sizes, ops,
        issues=trace.issues, completes=trace.completes, syncs=trace.syncs,
    )


class TestMsrcParser:
    LINES = [
        "128166372003061629,host,0,Read,4096,8192,1200",
        "128166372013061629,host,0,Write,8192,4096,800",
    ]

    def test_parses_and_rebases(self):
        t = parse_msrc(self.LINES)
        assert len(t) == 2
        assert t.timestamps[0] == 0.0
        # Second row is 1e7 ticks = 1e6 us later.
        assert t.timestamps[1] == pytest.approx(1e6)

    def test_converts_bytes_to_sectors(self):
        t = parse_msrc(self.LINES)
        assert t.lbas[0] == 4096 // 512
        assert t.sizes[0] == 8192 // 512

    def test_response_time_becomes_device_time(self):
        t = parse_msrc(self.LINES)
        assert t.has_device_times
        assert t.device_times()[0] == pytest.approx(120.0)  # 1200 ticks = 120 us

    def test_skips_comments_and_blanks(self):
        t = parse_msrc(["# header", "", *self.LINES])
        assert len(t) == 2

    def test_bad_field_count(self):
        with pytest.raises(TraceParseError, match="7"):
            parse_msrc(["1,2,3"])

    def test_bad_number(self):
        with pytest.raises(TraceParseError):
            parse_msrc(["notanumber,host,0,Read,0,512,1"])

    def test_non_positive_size(self):
        with pytest.raises(TraceParseError, match="size"):
            parse_msrc(["1,host,0,Read,0,0,1"])


class TestFiuParser:
    LINES = [
        "1225448400.000000 123 proc 1000 8 W 8 1 abcdef",
        "1225448400.001000 123 proc 1008 8 R 8 1 abcdef",
    ]

    def test_parses(self):
        t = parse_fiu(self.LINES)
        assert len(t) == 2
        assert not t.has_device_times
        assert t.ops[0] == int(OpType.WRITE)
        assert t.timestamps[1] - t.timestamps[0] == pytest.approx(1000.0)

    def test_md5_optional(self):
        t = parse_fiu(["1.0 1 p 0 8 R 8 1"])
        assert len(t) == 1

    def test_too_few_fields(self):
        with pytest.raises(TraceParseError):
            parse_fiu(["1.0 1 p 0 8"])


class TestMspsParser:
    LINES = ["0.0 150.0 R 0 8", "200.0 900.0 W 8 16"]

    def test_parses_with_device_times(self):
        t = parse_msps(self.LINES)
        assert t.has_device_times
        np.testing.assert_allclose(t.device_times(), [150.0, 700.0])

    def test_completion_before_issue_rejected(self):
        with pytest.raises(TraceParseError, match="precedes"):
            parse_msps(["100.0 50.0 R 0 8"])


class TestInternalRoundTrip:
    def _round_trip(self, trace: BlockTrace) -> BlockTrace:
        buffer = io.StringIO()
        write_csv(trace, buffer)
        buffer.seek(0)
        return parse_internal(buffer, name=trace.name)

    def test_round_trip_plain(self):
        t = BlockTrace([0.0, 10.0], [0, 8], [8, 16], [0, 1], name="x")
        r = self._round_trip(t)
        np.testing.assert_allclose(r.timestamps, t.timestamps)
        np.testing.assert_array_equal(r.sizes, t.sizes)
        np.testing.assert_array_equal(r.ops, t.ops)

    def test_round_trip_with_device_and_sync(self):
        t = BlockTrace(
            [0.0, 10.0],
            [0, 8],
            [8, 16],
            [0, 1],
            issues=[1.0, 11.0],
            completes=[5.0, 30.0],
            syncs=[True, False],
            name="x",
        )
        r = self._round_trip(t)
        assert r.has_device_times and r.has_sync_flags
        np.testing.assert_allclose(r.device_times(), t.device_times())
        assert r.syncs is not None
        assert list(r.syncs) == [True, False]

    def test_empty_round_trip(self):
        t = BlockTrace([], [], [], [])
        assert len(self._round_trip(t)) == 0

    def test_bad_header(self):
        with pytest.raises(TraceParseError, match="header"):
            parse_internal(["foo,bar,baz,qux", "1,2,3,R"])


class TestCsvWriterIdentity:
    """The block writer is byte-identical to the per-row reference."""

    @pytest.mark.parametrize("stamps", [False, True])
    @pytest.mark.parametrize("syncs", [False, True])
    @pytest.mark.parametrize(
        "n",
        [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 17],
    )
    def test_matches_reference(self, stamps, syncs, n):
        trace = random_trace(n, stamps, syncs, seed=n)
        reference = list(reference_csv_rows(trace))
        assert list(iter_csv_rows(trace)) == reference
        assert csv_text(trace) == "".join(row + "\n" for row in reference)

    def test_rounding_ties_and_large_values(self):
        # 0.0625 is a binary tie at 3 decimals (round-half-even prints
        # 0.062); 0.0005 is not exactly representable and prints 0.001.
        timestamps = [
            0.0005, 0.0015, 0.0625, 0.1875, 1.0625, 9_999_999_999.9995, 1e10, 1e10 + 0.0625
        ]
        n = len(timestamps)
        trace = BlockTrace(
            timestamps,
            [0, 2**32 - 1, 2**32, 2**33 + 7, 2**40, 2**50, 2**62, 2**63 - 1],
            [1, 8, 2**31, 2**32, 16, 8, 8, 2**40],
            [0, 1] * (n // 2),
            issues=[t + 0.0625 for t in timestamps],
            completes=[t + 2.5e-4 for t in timestamps],
            syncs=[True, False] * (n // 2),
        )
        text = csv_text(trace)
        assert text == "".join(row + "\n" for row in reference_csv_rows(trace))
        rows = text.splitlines()
        assert rows[1].startswith("0.001,0,1,R,")
        assert rows[3].startswith("0.062,4294967296,")
        assert rows[8].startswith(
            "10000000000.062,9223372036854775807,1099511627776,W,10000000000.125,"
        )

    @pytest.mark.parametrize("row", [0, 3, CSV_BLOCK_ROWS + 3])
    def test_op_code_outside_optype_raises(self, row):
        trace = with_op_code(random_trace(CSV_BLOCK_ROWS + 10), row, 7)
        with pytest.raises(ValueError, match="OpType"):
            write_csv(trace, io.StringIO())
        with pytest.raises(ValueError, match="OpType"):
            list(iter_csv_rows(trace))


class TestMsrcWriter:
    def test_msrc_round_trip(self):
        t = BlockTrace(
            [0.0, 1000.0],
            [8, 16],
            [8, 8],
            [0, 1],
            issues=[0.0, 1000.0],
            completes=[120.0, 1500.0],
            name="host",
        )
        buffer = io.StringIO()
        write_msrc(t, buffer)
        buffer.seek(0)
        r = parse_msrc(buffer)
        np.testing.assert_allclose(r.timestamps, t.timestamps, atol=0.2)
        np.testing.assert_allclose(r.device_times(), t.device_times(), atol=0.2)

    def test_msrc_writer_needs_device_times(self):
        t = BlockTrace([0.0], [0], [8], [0])
        with pytest.raises(ValueError, match="stamps"):
            write_msrc(t, io.StringIO())


class TestBlktraceWriter:
    def test_emits_dispatch_and_complete_lines(self):
        t = BlockTrace(
            [0.0], [8], [8], [0], issues=[0.0], completes=[100.0], name="x"
        )
        buffer = io.StringIO()
        write_blktrace_text(t, buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2
        assert " D R 8 + 8" in lines[0]
        assert " C R 8 + 8" in lines[1]


class TestFileIO:
    def test_dump_and_load(self, tmp_path):
        t = BlockTrace([0.0, 5.0], [0, 8], [8, 8], [0, 1], name="disk0")
        path = dump_trace(t, tmp_path / "disk0.csv")
        loaded = load_trace(path, fmt="internal")
        assert loaded.name == "disk0"
        assert len(loaded) == 2

    def test_load_unknown_format(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="unknown trace format"):
            load_trace(p, fmt="nope")

    def test_dump_unknown_format(self, tmp_path):
        t = BlockTrace([0.0], [0], [8], [0])
        with pytest.raises(ValueError, match="unknown trace format"):
            dump_trace(t, tmp_path / "x", fmt="nope")

    @pytest.mark.parametrize("bad_row", [3, CSV_BLOCK_ROWS + 3])
    def test_failed_dump_leaves_existing_file_unchanged(self, tmp_path, bad_row):
        target = tmp_path / "kept.csv"
        previous = csv_text(random_trace(5)).encode("utf-8")
        target.write_bytes(previous)
        with pytest.raises(ValueError, match="stamps"):
            dump_trace(random_trace(5, stamps=False), target, fmt="msrc")
        with pytest.raises(ValueError, match="OpType"):
            dump_trace(with_op_code(random_trace(CSV_BLOCK_ROWS + 10), bad_row, 7), target)
        assert target.read_bytes() == previous
        assert list(tmp_path.iterdir()) == [target]  # no temp file left behind
