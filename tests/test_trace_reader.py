"""Chunked TraceReader: whole-file parity across dialects and stores."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.trace import (
    BlockTrace,
    TraceParseError,
    TraceReader,
    TraceStreamError,
    dump_trace,
    load_trace,
    save_trace_npz,
    write_csv,
)
from repro.trace.io import bulk

_COLUMNS = ("timestamps", "lbas", "sizes", "ops", "issues", "completes", "syncs")

#: A parse block of a few dozen characters: every test file crosses
#: many block edges, and some lines are longer than a block.
SMALL_BLOCK_CHARS = 40


def assert_identical(a: BlockTrace, b: BlockTrace) -> None:
    for column in _COLUMNS:
        ca, cb = getattr(a, column), getattr(b, column)
        assert (ca is None) == (cb is None), column
        if ca is not None:
            np.testing.assert_array_equal(ca, cb, err_msg=column)


@pytest.fixture()
def trace_files(tmp_path):
    """One ~200-request file per text dialect, plus an npz."""
    n = 200
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.integers(1, 10**6, n))
    lbas = rng.integers(0, 1 << 32, n)
    sizes = rng.integers(1, 128, n)
    ops = rng.integers(0, 2, n)
    dev = rng.integers(1, 10**5, n)
    spell = ["Read" if o == 0 else "Write" for o in ops]
    files = {}
    (tmp_path / "t.msrc").write_text(
        "\n".join(
            f"{ts[i]},host,0,{spell[i]},{lbas[i] * 512},{sizes[i] * 512},{dev[i]}"
            for i in range(n)
        )
    )
    files["msrc"] = tmp_path / "t.msrc"
    (tmp_path / "t.fiu").write_text(
        "\n".join(
            f"{ts[i] / 1e6:.6f} 1 p {lbas[i]} {sizes[i]} {spell[i][0]} 8 1"
            for i in range(n)
        )
    )
    files["fiu"] = tmp_path / "t.fiu"
    (tmp_path / "t.msps").write_text(
        "\n".join(
            f"{ts[i]:.3f} {ts[i] + dev[i]:.3f} {spell[i][0]} {lbas[i]} {sizes[i]}"
            for i in range(n)
        )
    )
    files["msps"] = tmp_path / "t.msps"
    internal = load_trace(files["msrc"], fmt="msrc")
    with (tmp_path / "t.csv").open("w") as handle:
        write_csv(internal, handle)
    files["internal"] = tmp_path / "t.csv"
    save_trace_npz(internal, tmp_path / "t.npz")
    files["npz"] = tmp_path / "t.npz"
    return files


class TestParity:
    @pytest.mark.parametrize("fmt", ["msrc", "fiu", "msps", "internal"])
    @pytest.mark.parametrize("chunk_requests", [1, 7, 64, 10_000])
    def test_chunked_equals_whole(self, trace_files, fmt, chunk_requests):
        whole = load_trace(trace_files[fmt], fmt=fmt)
        chunked = TraceReader(
            trace_files[fmt], fmt=fmt, chunk_requests=chunk_requests
        ).read()
        assert_identical(whole, chunked)
        assert chunked.name == whole.name

    @pytest.mark.parametrize("chunk_requests", [7, 300])
    def test_npz_chunked_equals_whole(self, trace_files, chunk_requests):
        whole = load_trace(trace_files["npz"], fmt="npz")
        chunked = TraceReader(
            trace_files["npz"], fmt="npz", chunk_requests=chunk_requests
        ).read()
        assert_identical(whole, chunked)

    def test_chunks_are_bounded_ordered_and_complete(self, trace_files):
        chunks = list(TraceReader(trace_files["msrc"], fmt="msrc", chunk_requests=64))
        assert all(len(c) <= 64 for c in chunks)
        assert sum(len(c) for c in chunks) == 200
        for earlier, later in zip(chunks, chunks[1:]):
            assert later.timestamps[0] >= earlier.timestamps[-1]

    def test_first_chunk_starts_at_zero_for_rebased_dialects(self, trace_files):
        first = next(iter(TraceReader(trace_files["msrc"], fmt="msrc", chunk_requests=10)))
        assert first.timestamps[0] == 0.0


@pytest.fixture()
def small_blocks(monkeypatch):
    monkeypatch.setattr(bulk, "PARSE_BLOCK_CHARS", SMALL_BLOCK_CHARS)


@pytest.mark.usefixtures("small_blocks")
class TestParityAcrossBlockEdges(TestParity):
    """Every parity test again, with blocks of a few dozen characters."""

    def test_blocks_are_small(self):
        assert bulk.PARSE_BLOCK_CHARS == SMALL_BLOCK_CHARS


def messy(text: str) -> str:
    """The same rows behind comments, with comments, blank lines and CRLF ends between them."""
    out = ["# collected on a test rig", ""]
    for i, line in enumerate(text.rstrip("\n").split("\n")):
        out.append(line)
        if i % 3 == 0:
            out.append("# note")
        if i % 5 == 0:
            out.append("")
    return "\r\n".join(out) + "\r\n"


@pytest.mark.usefixtures("small_blocks")
class TestBlockEdges:
    """Rows, comments, blank lines, CRLF pairs, the internal header and a
    torn tail straddle block edges; every read still equals the clean file's."""

    @pytest.mark.parametrize("fmt", ["msrc", "fiu", "msps", "internal"])
    @pytest.mark.parametrize("chunk_requests", [1, 7, 10_000])
    def test_messy_file_reads_like_clean_one(self, trace_files, tmp_path, fmt, chunk_requests):
        clean = load_trace(trace_files[fmt], fmt=fmt)
        path = tmp_path / f"messy.{fmt}"
        path.write_bytes(messy(trace_files[fmt].read_text()).encode())
        assert_identical(load_trace(path, fmt=fmt), clean)
        assert_identical(TraceReader(path, fmt=fmt, chunk_requests=chunk_requests).read(), clean)
        chunks = list(TraceReader(path, fmt=fmt, chunk_requests=chunk_requests))
        assert [len(c) for c in chunks[:-1]] == [chunk_requests] * (len(chunks) - 1)
        with path.open(encoding="utf-8", newline="") as handle:  # CRLF reaches the parser
            assert_identical(bulk.BULK_PARSERS[fmt](handle), clean)

    @pytest.mark.parametrize("fmt", ["msrc", "fiu", "msps", "internal"])
    def test_blank_space_lines_stay_on_the_fast_path(self, trace_files, tmp_path, monkeypatch, fmt):
        clean = load_trace(trace_files[fmt], fmt=fmt)
        path = tmp_path / f"spaced.{fmt}"
        path.write_text(trace_files[fmt].read_text().replace("\n", "\n \t \n  # indented\n"))

        def no_oracle(lines):
            raise AssertionError("a block fell back to the oracle")

        for name, dialect in bulk._DIALECTS.items():
            monkeypatch.setitem(bulk._DIALECTS, name, dialect._replace(oracle=no_oracle))
        assert_identical(load_trace(path, fmt=fmt), clean)
        assert_identical(TraceReader(path, fmt=fmt, chunk_requests=7).read(), clean)

    @pytest.mark.parametrize("chunk_requests", [10_000, 300])
    def test_unsorted_chunk_over_many_blocks_sorts_like_the_oracle(self, tmp_path, chunk_requests):
        rng = np.random.default_rng(11)
        stamps = rng.integers(0, 40, 300)  # shuffled, and most stamps repeat
        rows = [f"{t}.0 {t}.5 R {i * 8} 8" for i, t in enumerate(stamps)]
        # A sixth field makes loadtxt refuse this row's block, so the
        # oracle parses (and sorts) that block alone.
        rows[150] += " extra"
        path = tmp_path / "shuffled.msps"
        path.write_text("\n".join(rows) + "\n")
        expected = load_trace(path, fmt="msps", engine="line")  # sorts the whole file
        assert_identical(load_trace(path, fmt="msps"), expected)
        chunked = TraceReader(path, fmt="msps", chunk_requests=chunk_requests).read()
        assert_identical(chunked, expected)


#: Per dialect: a file whose line 6 is bad, after comments and a blank line.
_BAD_LINE_6 = {
    "msrc": ["# one", "# two", "", "1,h,0,Read,0,512,9", "2,h,0,Read,0,512,9",
             "3,h,0,Q,0,512,9", "4,h,0,Read,0,512,9"],
    "fiu": ["# one", "# two", "", "1.0 1 p 0 8 R 8 1", "2.0 1 p 0 8 R 8 1",
            "3.0 1 p 0 8 Q 8 1", "4.0 1 p 0 8 R 8 1"],
    "msps": ["# one", "# two", "", "1.0 1.5 R 0 8", "2.0 2.5 W 8 8",
             "3.0 3.5 Q 16 8", "4.0 4.5 R 24 8"],
    "internal": ["# one", "timestamp_us,lba,size_sectors,op", "", "1.0,0,8,R", "# two",
                 "3.0,16,8,Q", "4.0,24,8,R"],
}


def _reads(path, fmt):
    """Every whole-file read of ``path``, by label."""
    return {
        "bulk": lambda: load_trace(path, fmt=fmt),
        "line": lambda: load_trace(path, fmt=fmt, engine="line"),
        **{
            f"reader-{k}": (lambda k=k: TraceReader(path, fmt=fmt, chunk_requests=k).read())
            for k in (1, 2, 100_000)
        },
    }


class TestParseErrorLines:
    """Every TraceParseError names the line of the file, however it is read."""

    @pytest.mark.parametrize("block_chars", [None, SMALL_BLOCK_CHARS])
    @pytest.mark.parametrize("fmt", ["msrc", "fiu", "msps", "internal"])
    def test_bad_row(self, tmp_path, monkeypatch, fmt, block_chars):
        if block_chars is not None:
            monkeypatch.setattr(bulk, "PARSE_BLOCK_CHARS", block_chars)
        path = tmp_path / f"bad.{fmt}"
        path.write_text("\n".join(_BAD_LINE_6[fmt]) + "\n")
        for label, read in _reads(path, fmt).items():
            with pytest.raises(TraceParseError) as info:
                read()
            assert (info.value.lineno, info.value.line) == (6, _BAD_LINE_6[fmt][5]), label

    @pytest.mark.parametrize("size", ["0", "-8"])
    def test_internal_non_positive_size(self, tmp_path, size):
        lines = list(_BAD_LINE_6["internal"])
        lines[5] = f"3.0,16,{size},R"
        path = tmp_path / "size.csv"
        path.write_text("\n".join(lines) + "\n")
        for label, read in _reads(path, "internal").items():
            with pytest.raises(TraceParseError, match="non-positive request size") as info:
                read()
            assert info.value.lineno == 6, label

    def test_internal_header_after_a_comment(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("# written by hand\nfoo,bar,baz,qux\n1,2,3,R\n")
        for label, read in _reads(path, "internal").items():
            with pytest.raises(TraceParseError, match="header") as info:
                read()
            assert info.value.lineno == 2, label


class TestParseMemory:
    """A whole-file read holds one text block at a time.

    Traced allocation while 10^5-row internal CSVs (4 columns, and 7
    with device stamps and sync flags) are read: the peak stays below
    128 B/request (as ``TestReplayMemory`` bounds replay), and what is
    retained is the parsed columns' own contiguous bytes — 25 and 42
    B/request.
    """

    N_REQUESTS = 100_000

    @pytest.fixture(scope="class")
    def csv_files(self, tmp_path_factory):
        n = self.N_REQUESTS
        rng = np.random.default_rng(5)
        ts = np.cumsum(rng.integers(1, 10**4, n)).astype(float)
        base = dict(
            timestamps=ts - ts[0],
            lbas=rng.integers(0, 1 << 32, n),
            sizes=rng.integers(1, 256, n),
            ops=rng.integers(0, 2, n),
        )
        stamps = dict(
            issues=base["timestamps"] + 2.0,
            completes=base["timestamps"] + rng.integers(50, 10**4, n),
            syncs=rng.random(n) < 0.7,
        )
        root = tmp_path_factory.mktemp("parse-memory")
        files = {}
        for columns, extra in ((4, {}), (7, stamps)):
            files[columns] = root / f"{columns}col.csv"
            with files[columns].open("w") as handle:
                write_csv(BlockTrace(**base, **extra), handle)
        return files

    @pytest.mark.parametrize(
        "read", [lambda p: TraceReader(p).read(), load_trace], ids=["reader", "load_trace"]
    )
    @pytest.mark.parametrize("columns,own_bytes", [(4, 25), (7, 42)])
    def test_bytes_per_request(self, csv_files, read, columns, own_bytes):
        n = self.N_REQUESTS
        read(csv_files[columns])  # warm-up: imports and first-call caches
        tracemalloc.start()
        try:
            trace = read(csv_files[columns])
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = [getattr(trace, c) for c in _COLUMNS if getattr(trace, c) is not None]
        assert len(arrays) == columns
        assert all(a.flags.c_contiguous for a in arrays)
        assert sum(a.nbytes for a in arrays) == own_bytes * n
        assert peak / n < 128
        assert retained / n < own_bytes + 1


class TestEdges:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.msrc"
        path.write_text("# nothing but comments\n\n")
        reader = TraceReader(path, fmt="msrc")
        assert list(reader) == []
        assert len(reader.read()) == 0

    def test_unsorted_across_chunks_raises(self, tmp_path):
        rows = [f"{t}.0 {t}.5 R 0 8" for t in (100, 200, 50, 60)]
        path = tmp_path / "u.msps"
        path.write_text("\n".join(rows))
        with pytest.raises(TraceStreamError, match="time-sorted"):
            list(TraceReader(path, fmt="msps", chunk_requests=2))

    def test_whole_file_load_still_sorts_that_input(self, tmp_path):
        rows = [f"{t}.0 {t}.5 R 0 8" for t in (100, 200, 50, 60)]
        path = tmp_path / "u.msps"
        path.write_text("\n".join(rows))
        trace = load_trace(path, fmt="msps")
        assert np.all(np.diff(trace.timestamps) >= 0)

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            TraceReader(tmp_path / "x", fmt="nope")

    def test_bad_chunk_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_requests"):
            TraceReader(tmp_path / "x", chunk_requests=0)

    def test_streams_npz_from_dump_trace(self, tmp_path):
        trace = BlockTrace([0.0, 1.0, 2.0], [0, 8, 16], [8, 8, 8], [0, 1, 0], name="z")
        path = dump_trace(trace, tmp_path / "z.npz", fmt="npz")
        chunks = list(TraceReader(path, fmt="npz", chunk_requests=2))
        assert [len(c) for c in chunks] == [2, 1]


class TestTailMode:
    """The end of the file: a final line with no newline is a complete record."""

    @staticmethod
    def _internal_file(tmp_path, n=60):
        ts = np.arange(n, dtype=float) * 100.0
        trace = BlockTrace(
            timestamps=ts,
            lbas=np.arange(n) * 8,
            sizes=np.full(n, 8),
            ops=np.zeros(n, dtype=int),
            name="tail",
        )
        path = tmp_path / "grow.csv"
        with path.open("w") as handle:
            write_csv(trace, handle)
        return path, trace

    def test_default_mode_still_parses_final_unterminated_line(self, tmp_path):
        path, trace = self._internal_file(tmp_path)
        raw = path.read_text()
        path.write_text(raw.rstrip("\n"))  # complete line, just no newline
        got = TraceReader(path).read()
        assert len(got) == len(trace)
