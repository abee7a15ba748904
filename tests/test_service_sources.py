"""The file tail: tail discipline, cursors, and the failure taxonomy."""

from __future__ import annotations

import pytest

from repro.resilience import PermanentPointError, TransientPointError
from repro.service import FileTailSource, parse_source_spec
from repro.service.sources import _IO_BLOCK


def drain(source):
    return [text for text, _ in source.poll()]


class TestFileTailSource:
    def test_complete_lines_with_cursors(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a\nbb\nccc\n")
        source = FileTailSource(path)
        source.open()
        got = source.poll()
        assert [text for text, _ in got] == ["a", "bb", "ccc"]
        # cursor = byte offset just past each line's newline
        assert [cursor for _, cursor in got] == [2, 5, 9]
        assert source.idle()

    def test_torn_tail_held_until_completed(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("one\ntw")
        source = FileTailSource(path)
        source.open()
        assert drain(source) == ["one"]
        assert source.idle()  # the torn fragment does not count as data
        with path.open("a") as handle:
            handle.write("o\nthree\n")
        assert drain(source) == ["two", "three"]

    def test_line_longer_than_a_block_comes_back_whole(self, tmp_path):
        path = tmp_path / "s.csv"
        long_line = "x" * (3 * _IO_BLOCK + 5)
        path.write_text("a\n" + long_line)
        source = FileTailSource(path)
        source.open()
        got = []
        while not source.idle():  # one block per poll
            got += source.poll()
        assert [text for text, _ in got] == ["a"]
        with path.open("a") as handle:
            handle.write("\nb\n")
        while not source.idle():
            got += source.poll()
        source.close()
        assert got == [("a", 2), (long_line, 3 + len(long_line)), ("b", 5 + len(long_line))]

    def test_cursor_resume_rereads_uncommitted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("one\ntwo\nthree\n")
        source = FileTailSource(path)
        source.open()
        first = source.poll()
        resumed = FileTailSource(path)
        resumed.open(first[0][1])  # committed through "one" only
        assert drain(resumed) == ["two", "three"]

    def test_missing_file_is_transient(self, tmp_path):
        source = FileTailSource(tmp_path / "nope.csv")
        source.open()
        with pytest.raises(TransientPointError):
            source.poll()

    def test_shrunk_file_is_permanent(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("one\ntwo\n")
        source = FileTailSource(path)
        source.open()
        source.poll()
        path.write_text("x\n")  # rotated/truncated under the cursor
        with pytest.raises(PermanentPointError):
            source.poll()

    def test_eof_flush_releases_fragment(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("one\nlast-no-newline")
        source = FileTailSource(path)
        source.open()
        assert drain(source) == ["one"]
        assert [text for text, _ in source.eof_flush()] == ["last-no-newline"]


class TestParseSourceSpec:
    def test_specs(self):
        for spec in ("file:/x/y.csv", "/x/y.csv"):
            source = parse_source_spec(spec)
            assert isinstance(source, FileTailSource)
            assert str(source.path) == "/x/y.csv"
        for spec in ("dir:/segs:*.csv", "tcp:0.0.0.0:9000"):
            with pytest.raises(ValueError, match="repro-serve reads one file"):
                parse_source_spec(spec)
