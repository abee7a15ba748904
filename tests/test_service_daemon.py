"""Streaming daemon: batch-oracle parity, quarantine, drain, group commit.

The load-bearing contract: for the same well-formed content, the
daemon's ``out.csv`` and final metrics are byte-/bit-identical to the
batch oracle ``TraceTracker().reconstruct_stream(TraceReader(path, chunk_requests=N))``.
Poison records are quarantined to the dead-letter file and never kill
the stream.
"""

from __future__ import annotations

import errno
import io
import json
import os
import signal
import threading
import time

from dataclasses import replace

import numpy as np
import pytest

from repro import TraceTracker
from repro.core import StreamingReconstructionSession
from repro.experiments.nodes import old_node
from repro.storage import ConstantLatencyDevice, HDDModel, SATA_600
from repro.trace import BlockTrace, TraceReader, dump_trace, write_csv
from repro.workloads import collect_trace, generate_intents, get_spec
from repro.service import (
    FileTailSource,
    ServiceConfig,
    StreamCheckpoint,
    StreamingReconstructionService,
    save_checkpoint,
)
from repro.service import cli as serve_cli
from repro.service import daemon as serve_daemon
from repro.service.daemon import _CsvSink, _DeadLetterLog
from repro.service.sources import _IO_BLOCK

CHUNK = 60


def device():
    return ConstantLatencyDevice(SATA_600, read_us=80.0, write_us=120.0)


@pytest.fixture(scope="module")
def stream_trace() -> BlockTrace:
    """A measured 400-request trace (stamps make inference well-posed)."""
    return collect_trace(generate_intents(get_spec("MSNFS").scaled(400)), HDDModel())


@pytest.fixture(scope="module")
def oracle(stream_trace, tmp_path_factory):
    """The batch pipeline over the same content and chunk boundaries."""
    base = tmp_path_factory.mktemp("oracle")
    src = base / "old.csv"
    dump_trace(stream_trace, src, fmt="internal")
    result = TraceTracker().reconstruct_stream(
        TraceReader(src, chunk_requests=CHUNK), device()
    )
    out = base / "out.csv"
    dump_trace(result.trace, out, fmt="internal")
    return {"src": src, "bytes": out.read_bytes(), "metrics": result.metrics}


def run_service(source, workdir, **config):
    config.setdefault("chunk_requests", CHUNK)
    config.setdefault("until_idle_s", 0.2)
    config.setdefault("status_interval_s", 0.1)
    service = StreamingReconstructionService(
        source, device(), workdir, ServiceConfig(**config)
    )
    metrics = service.run(install_signal_handlers=False)
    return service, metrics


def assert_parity(workdir, metrics, oracle):
    assert (workdir / "out.csv").read_bytes() == oracle["bytes"]
    assert metrics == oracle["metrics"]
    saved = json.loads((workdir / "metrics.json").read_text())
    assert saved["n_requests"] == oracle["metrics"].n_requests
    assert saved["new_duration_us"] == oracle["metrics"].new_duration_us


def slow_tracker() -> TraceTracker:
    """A tracker whose stream sessions sleep 30 ms before each feed.

    Reconstruction then lags the file it reads, as in a catch-up on a
    file at rest.
    """
    tracker = TraceTracker()
    real = tracker.stream_session

    def slow_session(target):
        session = real(target)
        original = session.feed

        def feed(chunk):
            time.sleep(0.03)
            return original(chunk)

        session.feed = feed
        return session

    tracker.stream_session = slow_session
    return tracker


def stop_in_third_feed(src, workdir) -> StreamingReconstructionService:
    """Run the daemon over ``src`` with a SIGTERM raised inside the third feed.

    The handler runs on the thread that runs the loop, in the middle of
    a chunk, as a real signal's would.
    """
    assert threading.current_thread() is threading.main_thread()
    tracker = TraceTracker()
    real = tracker.stream_session

    def signalling_session(target):
        session = real(target)
        original = session.feed
        calls = []

        def feed(chunk):
            calls.append(len(chunk))
            if len(calls) == 3:
                signal.raise_signal(signal.SIGTERM)
            return original(chunk)

        session.feed = feed
        return session

    tracker.stream_session = signalling_session
    service = StreamingReconstructionService(
        FileTailSource(src),
        device(),
        workdir,
        ServiceConfig(chunk_requests=CHUNK, until_idle_s=0.2, status_interval_s=0.1),
        tracker=tracker,
    )
    # Should run() not install its own handler, this one keeps the
    # signal from ending the test process.
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    try:
        service.run()
    finally:
        signal.signal(signal.SIGTERM, previous)
    return service


def record_checkpoints(monkeypatch) -> list[int]:
    """``rows_consumed`` of every checkpoint the daemon writes, in order."""
    written: list[int] = []
    real = serve_daemon.save_checkpoint

    def save(path, checkpoint):
        written.append(checkpoint.rows_consumed)
        real(path, checkpoint)

    monkeypatch.setattr(serve_daemon, "save_checkpoint", save)
    return written


def record_fsyncs(monkeypatch) -> list[int]:
    """The inode of every file ``os.fsync`` is called on, in order."""
    synced: list[int] = []
    real = os.fsync

    def fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return synced


def csv_bytes(trace: BlockTrace) -> bytes:
    buffer = io.StringIO()
    write_csv(trace, buffer)
    return buffer.getvalue().encode("utf-8")


class _TornWrite:
    """File handle whose writes land half their bytes, then fail."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.handle, name)


class TestCsvSink:
    """Piecewise appends, rollback of a failed append, truncate on open."""

    def test_pieces_concatenate_to_write_csv(self, stream_trace, tmp_path):
        cuts = [0, 0, 37, 38, 300, len(stream_trace)]  # an empty and a one-row piece
        sink = _CsvSink(tmp_path / "out.csv")
        sink.open(truncate_to=0)
        for lo, hi in zip(cuts, cuts[1:]):
            sink.append(stream_trace.select(slice(lo, hi)))
        sink.close()
        data = (tmp_path / "out.csv").read_bytes()
        assert data == csv_bytes(stream_trace)  # one header
        assert sink.nbytes == len(data)

    @pytest.mark.parametrize("failure", ["op_code", "torn_write"])
    def test_failed_append_rolls_back_and_retry_appends_cleanly(
        self, stream_trace, tmp_path, failure
    ):
        path = tmp_path / "out.csv"
        head, tail = stream_trace.select(slice(0, 100)), stream_trace.select(slice(100, None))
        sink = _CsvSink(path)
        sink.open(truncate_to=0)
        sink.append(head)
        before = sink.nbytes
        if failure == "op_code":
            ops = tail.ops.copy()
            ops[5] = 7
            poisoned = BlockTrace(
                tail.timestamps, tail.lbas, tail.sizes, ops,
                issues=tail.issues, completes=tail.completes, syncs=tail.syncs,
            )
            with pytest.raises(ValueError):
                sink.append(poisoned)
        else:
            handle = sink._handle
            sink._handle = _TornWrite(handle)
            with pytest.raises(OSError):
                sink.append(tail)
            sink._handle = handle
        sink.sync()
        assert sink.nbytes == before == path.stat().st_size
        sink.append(tail)
        sink.close()
        assert path.read_bytes() == csv_bytes(stream_trace)

    def test_open_truncates_past_checkpoint(self, stream_trace, tmp_path):
        path = tmp_path / "out.csv"
        head, tail = stream_trace.select(slice(0, 100)), stream_trace.select(slice(100, None))
        sink = _CsvSink(path)
        sink.open(truncate_to=0)
        sink.append(head)
        checkpoint = sink.nbytes
        sink.append(tail)  # bytes of a chunk whose checkpoint never committed
        sink.close()
        sink.open(truncate_to=checkpoint)
        assert sink.nbytes == checkpoint == path.stat().st_size
        assert path.read_bytes() == csv_bytes(head)
        sink.append(tail)
        sink.close()
        assert path.read_bytes() == csv_bytes(stream_trace)
        sink.open(truncate_to=0)
        sink.close()
        assert path.read_bytes() == b""


class TestParityHarness:
    def test_file_source(self, oracle, tmp_path):
        service, metrics = run_service(FileTailSource(oracle["src"]), tmp_path / "wd")
        assert service.outcome == "finished"
        assert_parity(tmp_path / "wd", metrics, oracle)

    def test_file_source_with_repeated_headers(self, oracle, tmp_path):
        """A file made by concatenating CSVs repeats its header; the repeats drop."""
        lines = oracle["src"].read_text().splitlines()
        header, body = lines[0], lines[1:]
        src = tmp_path / "concatenated.csv"
        src.write_text(
            "".join(
                "\n".join([header] + body[lo : lo + 150]) + "\n"
                for lo in range(0, len(body), 150)
            )
        )
        service, metrics = run_service(FileTailSource(src), tmp_path / "wd")
        assert service.outcome == "finished"
        assert_parity(tmp_path / "wd", metrics, oracle)
        status = json.loads((tmp_path / "wd" / "status.json").read_text())
        assert status["counters"]["n_header_repeats"] == 2  # one per later segment


class TestQuarantine:
    def test_poison_lines_dead_lettered_not_fatal(self, stream_trace, tmp_path):
        src = tmp_path / "old.csv"
        dump_trace(stream_trace, src, fmt="internal")
        lines = src.read_text().splitlines()
        # scatter malformed records through the body
        lines.insert(50, "not,a,record,at,all,?")
        lines.insert(150, "99kk9.0,12")
        lines.insert(250, "100.0,10,8,Z")  # bad op char
        src.write_text("\n".join(lines) + "\n")
        service, metrics = run_service(FileTailSource(src), tmp_path / "wd")
        assert service.outcome == "finished"
        assert metrics.n_requests == len(stream_trace)  # every good row survived
        dead = [
            json.loads(line)
            for line in (tmp_path / "wd" / "quarantine.jsonl").read_text().splitlines()
        ]
        assert len(dead) == 3
        assert {d["kind"] for d in dead} == {"parse"}
        assert any("not,a,record" in d["line"] for d in dead)

    def test_time_regression_rows_quarantined_as_order(self, stream_trace, tmp_path):
        src = tmp_path / "old.csv"
        dump_trace(stream_trace, src, fmt="internal")
        lines = src.read_text().splitlines()
        # a well-formed record far in the past, landing after later
        # chunks committed — parseable, but unsplicable
        n_cols = len(lines[0].split(","))
        row = ["0.001", "777", "8", "R", "0.002", "0.003", "0"][:n_cols]
        lines.insert(200, ",".join(row))
        src.write_text("\n".join(lines) + "\n")
        service, metrics = run_service(FileTailSource(src), tmp_path / "wd")
        assert service.outcome == "finished"
        assert metrics.n_requests == len(stream_trace)
        dead = [
            json.loads(line)
            for line in (tmp_path / "wd" / "quarantine.jsonl").read_text().splitlines()
        ]
        assert [d["kind"] for d in dead] == ["order"]
        assert dead[0]["lba"] == 777

    def test_all_poison_stream_finishes_empty(self, tmp_path):
        src = tmp_path / "old.csv"
        src.write_text("timestamp_us,lba,size_sectors,op\nbad\nworse\n")
        service, metrics = run_service(FileTailSource(src), tmp_path / "wd")
        assert service.outcome == "finished"
        assert metrics is None
        assert not (tmp_path / "wd" / "metrics.json").exists()
        status = json.loads((tmp_path / "wd" / "status.json").read_text())
        assert status["counters"]["n_quarantined"] == 2


class TestDrainAndStatus:
    def test_sigterm_style_drain_then_resume(self, oracle, tmp_path):
        """request_stop drains in-flight chunks; a later run finishes."""
        workdir = tmp_path / "wd"
        source = FileTailSource(oracle["src"])
        service = StreamingReconstructionService(
            source,
            device(),
            workdir,
            ServiceConfig(chunk_requests=CHUNK, until_idle_s=None),  # follow mode
        )
        thread = threading.Thread(target=service.run, kwargs={"install_signal_handlers": False})
        thread.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                if json.loads((workdir / "checkpoint.json").read_text())["rows_consumed"] > 0:
                    break
            except (OSError, ValueError):
                pass
            time.sleep(0.01)
        service.request_stop()
        thread.join(timeout=30.0)
        assert service.outcome == "stopped"
        assert not (workdir / "metrics.json").exists()  # stream not finished
        # resume in until-idle mode: same boundaries, same bytes
        resumed, metrics = run_service(FileTailSource(oracle["src"]), workdir)
        assert resumed.outcome == "finished"
        assert_parity(workdir, metrics, oracle)

    def test_slow_consumer_holds_queue_at_watermark(self, oracle, tmp_path):
        service = StreamingReconstructionService(
            FileTailSource(oracle["src"]),
            device(),
            tmp_path / "wd",
            ServiceConfig(chunk_requests=20, queue_high=3, until_idle_s=0.2),
            tracker=slow_tracker(),
        )
        depths = []
        thread = threading.Thread(target=service.run, kwargs={"install_signal_handlers": False})
        thread.start()
        while thread.is_alive():
            depths.append(service._pending)
            time.sleep(0.005)
        thread.join()
        assert service.outcome == "finished"
        assert max(depths) <= 3  # held at the watermark, never beyond
        status = json.loads((tmp_path / "wd" / "status.json").read_text())
        assert status["queue"]["max_depth"] == 3  # the whole file is read at once
        assert (tmp_path / "wd" / "out.csv").read_bytes() == oracle["bytes"]

    def test_status_page_shape(self, oracle, tmp_path):
        service, _ = run_service(FileTailSource(oracle["src"]), tmp_path / "wd")
        status = json.loads((tmp_path / "wd" / "status.json").read_text())
        assert status["state"] == "finished"
        assert status["queue"]["high_watermark"] == 8
        assert status["counters"]["rows_out"] == 400
        assert status["lag_rows"] == 0
        assert status["session"]["n_requests"] == 400
        assert (tmp_path / "wd" / "heartbeat").exists()

    def test_status_to_closed_stdout_exits_zero(self, tmp_path, capsys, closed_stdout):
        """``repro-serve status | head -1`` is not an error."""
        (tmp_path / "status.json").write_text(json.dumps({"state": "finished"}))
        with closed_stdout:
            assert serve_cli.main(["status", "--workdir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_permanent_source_failure_fails_loudly(self, oracle, tmp_path):
        src = tmp_path / "old.csv"
        src.write_bytes(oracle["src"].read_bytes())
        workdir = tmp_path / "wd"
        service = StreamingReconstructionService(
            FileTailSource(src),
            device(),
            workdir,
            ServiceConfig(chunk_requests=CHUNK, until_idle_s=5.0),
        )
        thread = threading.Thread(target=service.run, kwargs={"install_signal_handlers": False})
        thread.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                if json.loads((workdir / "checkpoint.json").read_text())["rows_consumed"] > 0:
                    break
            except (OSError, ValueError):
                pass
            time.sleep(0.01)
        src.write_text("x\n")  # truncate under the live cursor
        thread.join(timeout=30.0)
        assert service.outcome == "failed"
        status = json.loads((workdir / "status.json").read_text())
        assert "shrank" in status["fatal"]

        # A directory is not a stream: fail at once instead of retrying.
        segdir = tmp_path / "segs"
        segdir.mkdir()
        (segdir / "seg-000.csv").write_bytes(oracle["src"].read_bytes())
        workdir = tmp_path / "wd-dir"
        service = StreamingReconstructionService(
            FileTailSource(segdir),
            device(),
            workdir,
            ServiceConfig(chunk_requests=CHUNK, until_idle_s=0.3),
        )
        thread = threading.Thread(target=service.run, kwargs={"install_signal_handlers": False})
        thread.start()
        thread.join(timeout=10.0)
        retrying = thread.is_alive()
        if retrying:
            service.request_stop()
            thread.join(timeout=30.0)
        assert not retrying
        assert service.outcome == "failed"
        fatal = json.loads((workdir / "status.json").read_text())["fatal"]
        assert f"{segdir}: is a directory" in fatal
        code = serve_cli.main(
            [
                "run",
                "--source", str(segdir),
                "--workdir", str(tmp_path / "wd-cli"),
                "--device", "hdd",
                "--until-idle", "0.3",
            ]
        )
        assert code == 1


class TestGroupCommit:
    """One checkpoint per queue of chunks, never more than ``queue_high``."""

    @pytest.mark.parametrize("queue_high", [1, 3])
    def test_catch_up_commits_at_most_queue_high_chunks(
        self, oracle, tmp_path, monkeypatch, queue_high
    ):
        written = record_checkpoints(monkeypatch)
        chunk = 20
        n_chunks = 400 // chunk
        workdir = tmp_path / "wd"
        service = StreamingReconstructionService(
            FileTailSource(oracle["src"]),
            device(),
            workdir,
            ServiceConfig(
                chunk_requests=chunk, queue_high=queue_high, until_idle_s=0.2,
                status_interval_s=0.1,
            ),
            tracker=slow_tracker(),
        )
        service.run(install_signal_handlers=False)
        assert service.outcome == "finished"
        assert (workdir / "out.csv").read_bytes() == oracle["bytes"]
        covered = np.diff([0, *written])
        assert covered.max() <= queue_high * chunk
        assert written[-1] == 400
        if queue_high == 1:
            # One checkpoint per chunk, then the end-of-stream commit.
            assert covered.tolist() == [chunk] * n_chunks + [0]
        else:
            assert len(written) < n_chunks
        status = json.loads((workdir / "status.json").read_text())
        assert status["counters"]["n_commits"] == len(written)
        assert status["queue"]["max_depth"] <= queue_high

    def test_live_tail_commits_every_chunk(self, oracle, tmp_path, monkeypatch):
        written = record_checkpoints(monkeypatch)
        lines = oracle["src"].read_text().splitlines(keepends=True)
        header, body = lines[0], lines[1:]
        src = tmp_path / "live.csv"
        src.write_text(header)
        workdir = tmp_path / "wd"
        service = StreamingReconstructionService(
            FileTailSource(src),
            device(),
            workdir,
            ServiceConfig(chunk_requests=CHUNK, until_idle_s=None, status_interval_s=0.1),
        )
        thread = threading.Thread(target=service.run, kwargs={"install_signal_handlers": False})
        thread.start()
        try:
            for k in range(1, 4):
                with src.open("a") as handle:
                    handle.write("".join(body[(k - 1) * CHUNK : k * CHUNK]))
                deadline = time.monotonic() + 30.0
                while written[-1:] != [k * CHUNK] and time.monotonic() < deadline:
                    time.sleep(0.005)
        finally:
            service.request_stop()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert service.outcome == "stopped"
        assert written == [CHUNK, 2 * CHUNK, 3 * CHUNK]  # default queue_high is 8
        # The rest of the file arrives; the resumed stream is in parity.
        with src.open("a") as handle:
            handle.write("".join(body[3 * CHUNK :]))
        resumed, metrics = run_service(FileTailSource(src), workdir)
        assert resumed.outcome == "finished"
        assert_parity(workdir, metrics, oracle)

    def test_drain_commits_the_pending_chunks(self, oracle, tmp_path):
        workdir = tmp_path / "wd"
        service = StreamingReconstructionService(
            FileTailSource(oracle["src"]),
            device(),
            workdir,
            ServiceConfig(chunk_requests=20, until_idle_s=None, status_interval_s=0.1),
            tracker=slow_tracker(),
        )
        thread = threading.Thread(target=service.run, kwargs={"install_signal_handlers": False})
        thread.start()
        deadline = time.monotonic() + 30.0
        while service._counters["rows_consumed"] < 3 * 20 and time.monotonic() < deadline:
            time.sleep(0.005)
        service.request_stop()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert service.outcome == "stopped"
        status = json.loads((workdir / "status.json").read_text())
        checkpoint = json.loads((workdir / "checkpoint.json").read_text())
        assert checkpoint["rows_consumed"] == status["counters"]["rows_consumed"] >= 3 * 20
        resumed, _ = run_service(FileTailSource(oracle["src"]), workdir, chunk_requests=20)
        assert resumed.outcome == "finished"
        assert (workdir / "out.csv").read_bytes() == oracle["bytes"]

    def test_queue_high_below_one_exits_2(self, oracle, tmp_path, capsys):
        workdir = tmp_path / "wd"
        code = serve_cli.main(
            [
                "run",
                "--source", str(oracle["src"]),
                "--workdir", str(workdir),
                "--queue-high", "0",
                "--until-idle", "0.2",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["repro-serve: queue_high must be at least 1"]
        assert not workdir.exists()

    def test_clean_stream_fsyncs_quarantine_once(self, oracle, tmp_path, monkeypatch):
        synced = record_fsyncs(monkeypatch)
        workdir = tmp_path / "wd"
        service, metrics = run_service(FileTailSource(oracle["src"]), workdir, queue_high=1)
        assert service.outcome == "finished"
        assert_parity(workdir, metrics, oracle)
        n_commits = json.loads((workdir / "status.json").read_text())["counters"]["n_commits"]
        assert n_commits == 7  # six 60-row chunks, then the 40-row tail at end-of-stream
        assert synced.count(os.stat(workdir / "quarantine.jsonl").st_ino) == 1
        assert synced.count(os.stat(workdir / "out.csv").st_ino) == n_commits

    def test_data_files_fsync_only_after_a_write(self, stream_trace, tmp_path, monkeypatch):
        synced = record_fsyncs(monkeypatch)
        sink, log = _CsvSink(tmp_path / "out.csv"), _DeadLetterLog(tmp_path / "q.jsonl")
        sink.open(truncate_to=0)
        log.open(truncate_to=0)
        for _ in range(2):
            sink.sync()
            log.sync()
        assert len(synced) == 2  # the truncate on open, once per file
        sink.append(stream_trace.select(slice(0, 10)))
        for _ in range(2):
            sink.sync()
            log.sync()
        assert len(synced) == 3
        log.record("parse", line="bad", error="no")
        for _ in range(2):
            sink.sync()
            log.sync()
        sink.close()
        log.close()
        inodes = [os.stat(tmp_path / name).st_ino for name in ("out.csv", "q.jsonl")]
        assert synced == [inodes[0], inodes[1], inodes[0], inodes[1]]


class TestRefusedSettings:
    """An idle deadline or status period that cannot act is refused
    before the work directory is created."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("until_idle_s", float("nan"), "until_idle_s must be non-negative"),
            ("until_idle_s", float("inf"), "until_idle_s must be finite"),
            ("status_interval_s", 0.0, "status_interval_s must be positive"),
            ("status_interval_s", -1.0, "status_interval_s must be positive"),
            ("status_interval_s", float("nan"), "status_interval_s must be positive"),
        ],
        ids=["idle-nan", "idle-inf", "status-0", "status-negative", "status-nan"],
    )
    def test_config_refuses(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ServiceConfig(**{field: value})

    def test_zero_status_interval_exits_2(self, oracle, tmp_path, capsys):
        workdir = tmp_path / "wd"
        code = serve_cli.main(
            [
                "run",
                "--source", str(oracle["src"]),
                "--workdir", str(workdir),
                "--status-interval", "0",
                "--until-idle", "0.2",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["repro-serve: status_interval_s must be positive"]
        assert not workdir.exists()

    def test_nan_idle_deadline_exits_2(self, oracle, tmp_path):
        """A NaN deadline could never be reached; the run exits 2 instead
        of tailing forever.  Run in its own process group under a 30 s
        ceiling, so a wedge fails the test instead of hanging it."""
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(root / "src"), env.get("PYTHONPATH")) if part
        )
        workdir = tmp_path / "wd"
        argv = [
            sys.executable, "-m", "repro.service.cli", "run",
            "--source", f"file:{oracle['src']}", "--workdir", str(workdir),
            "--device", "hdd", "--until-idle", "nan",
        ]
        proc = subprocess.Popen(
            argv, env=env, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("--until-idle nan tailed the source forever")
        assert proc.returncode == 2
        assert stdout == ""
        assert stderr.splitlines() == ["repro-serve: until_idle_s must be non-negative"]
        assert not workdir.exists()


class TestOneLoop:
    """One loop on the caller's thread; the file it tails is its queue."""

    def test_run_starts_no_thread(self, oracle, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"run() started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        service, metrics = run_service(FileTailSource(oracle["src"]), tmp_path / "wd")
        assert service.outcome == "finished"
        assert_parity(tmp_path / "wd", metrics, oracle)

    def test_signal_inside_a_chunk_stops_after_it(self, oracle, tmp_path):
        """The chunk in hand completes and commits; read lines wait for the next run."""
        workdir = tmp_path / "wd"
        service = stop_in_third_feed(oracle["src"], workdir)
        assert service.outcome == "stopped"
        checkpoint = json.loads((workdir / "checkpoint.json").read_text())
        assert checkpoint["rows_consumed"] == 3 * CHUNK
        status = json.loads((workdir / "status.json").read_text())
        assert status["state"] == "stopped"
        assert status["counters"]["rows_consumed"] == 3 * CHUNK
        assert status["lag_rows"] == 400 - 3 * CHUNK  # the file fits one block
        assert not (workdir / "metrics.json").exists()
        resumed, metrics = run_service(FileTailSource(oracle["src"]), workdir)
        assert resumed.outcome == "finished"
        assert_parity(workdir, metrics, oracle)

    def test_reads_one_block_ahead(self, tmp_path, monkeypatch):
        src = tmp_path / "old.csv"
        n_requests = 6_000
        old = collect_trace(generate_intents(get_spec("MSNFS").scaled(n_requests)), HDDModel())
        dump_trace(old, src, fmt="internal")
        assert src.stat().st_size > 4 * _IO_BLOCK
        leads: list[tuple[int, int]] = []
        real = StreamingReconstructionService._handle_chunk

        def handle(service, session, rows, cursor):
            last = service._last_cursor or 0
            # (read-ahead past the last handled chunk, bytes of the chunk in hand)
            leads.append((service.source._read_pos - last, cursor - last))
            real(service, session, rows, cursor)

        monkeypatch.setattr(StreamingReconstructionService, "_handle_chunk", handle)
        chunk = ServiceConfig().chunk_requests
        service, metrics = run_service(FileTailSource(src), tmp_path / "wd", chunk_requests=chunk)
        assert service.outcome == "finished"
        assert len(leads) == -(-n_requests // chunk)
        assert all(lead <= _IO_BLOCK + in_hand for lead, in_hand in leads)
        oracle = TraceTracker().reconstruct_stream(
            TraceReader(src, chunk_requests=chunk), device()
        )
        assert (tmp_path / "wd" / "out.csv").read_bytes() == csv_bytes(oracle.trace)
        assert metrics == oracle.metrics


def bare_msnfs(n_requests: int, seed: int) -> BlockTrace:
    """An MSNFS trace without device stamps: every chunk needs inference."""
    spec = replace(get_spec("MSNFS").scaled(n_requests), seed=seed)
    return collect_trace(generate_intents(spec), old_node(), record_device_times=False)


class TestShortTail:
    """Bare streams ending in an 80-row chunk finish, in parity with the oracle.

    The 80-row tail is too short to fit a model of its own.  After 8
    whole 256-row chunks the warm-up fallback decomposes it; after 20,
    the frozen model does.
    """

    @pytest.mark.parametrize(
        "n_requests, seed",
        [(2_128, s) for s in (2, 3, 5, 7)] + [(5_200, s) for s in (1, 2, 3, 5)],
    )
    def test_short_final_chunk(self, tmp_path, n_requests, seed):
        src = tmp_path / "old.csv"
        dump_trace(bare_msnfs(n_requests, seed), src, fmt="internal")
        chunk = ServiceConfig().chunk_requests
        assert n_requests % chunk == 80
        oracle = TraceTracker().reconstruct_stream(
            TraceReader(src, chunk_requests=chunk), device()
        )
        service, metrics = run_service(
            FileTailSource(src), tmp_path / "wd", chunk_requests=chunk
        )
        assert service.outcome == "finished"
        assert (tmp_path / "wd" / "out.csv").read_bytes() == csv_bytes(oracle.trace)
        assert metrics == oracle.metrics
        assert metrics.n_requests == n_requests
        assert metrics.n_chunks == -(-n_requests // chunk)
        state = json.loads((tmp_path / "wd" / "checkpoint.json").read_text())["session_state"]
        warm = StreamingReconstructionSession.WARMUP_FITS
        assert len(state["fits"]) == min(n_requests // chunk, warm)  # the tail fit nothing
        assert (state["model"] is not None) == (n_requests // chunk >= warm)


#: A version-1 session state, as the daemon checkpointed it before the
#: warm-up fits and the frozen model joined the state.
V1_SESSION_STATE = {
    "version": 1,
    "carry": {
        "timestamps": [98765.5],
        "lbas": [4096],
        "sizes": [8],
        "ops": [0],
        "issues": [98770.25],
        "completes": [98901.0],
        "syncs": None,
        "name": "stream",
        "metadata": {},
    },
    "pending": None,
    "splice_at": 61234.75,
    "old_duration": 98765.5,
    "old_start": 0.0,
    "slept": 40321.0,
    "n_async": 7,
    "used_measured": True,
    "n_chunks": 1,
    "n_requests": 60,
    "out_start": 0.0,
    "out_last": 61234.75,
}


#: A loadable version-2 state: no warm-up fits yet, no frozen model.
V2_SESSION_STATE = {**V1_SESSION_STATE, "version": 2, "fits": [], "model": None}


class TestEarlierCheckpoint:
    def test_extra_key_resumes_in_parity(self, oracle, tmp_path):
        """Checkpoints of earlier releases carry an always-empty ``extra``."""
        workdir = tmp_path / "wd"
        assert stop_in_third_feed(oracle["src"], workdir).outcome == "stopped"
        path = workdir / "checkpoint.json"
        doc = json.loads(path.read_text())
        assert "extra" not in doc
        path.write_text(json.dumps({**doc, "extra": {}}, sort_keys=True))
        resumed, metrics = run_service(FileTailSource(oracle["src"]), workdir)
        assert resumed.outcome == "finished"
        assert_parity(workdir, metrics, oracle)
        assert "extra" not in json.loads(path.read_text())


class TestUnloadableSessionState:
    """A checkpoint whose session state or cursor cannot load fails the daemon loudly."""

    @pytest.mark.parametrize(
        "state, cursor, cause",
        [
            (V1_SESSION_STATE, 1_234, "ValueError: unsupported stream-session state version 1"),
            ({**V1_SESSION_STATE, "version": 2}, 1_234, "KeyError: 'fits'"),
            (
                V2_SESSION_STATE,
                ["seg-000.csv", 812],  # a segment-directory cursor
                "ValueError: source cursor ['seg-000.csv', 812] is not a byte offset into {src}",
            ),
        ],
        ids=["version-1", "missing-key", "list-cursor"],
    )
    def test_fails_with_files_untouched(self, oracle, tmp_path, state, cursor, cause):
        workdir = tmp_path / "wd"
        workdir.mkdir()
        head = oracle["bytes"][: oracle["bytes"].index(b"\n", 2_000) + 1]
        (workdir / "out.csv").write_bytes(head)
        dead = b'{"kind": "parse", "line": "bad"}\n'
        (workdir / "quarantine.jsonl").write_bytes(dead)
        save_checkpoint(
            workdir / "checkpoint.json",
            StreamCheckpoint(
                source_cursor=cursor,
                session_state=state,
                sink_bytes=len(head),
                quarantine_bytes=len(dead),
                header=oracle["src"].read_text().splitlines()[0],
                rows_consumed=60,
                rows_out=60,
                n_quarantined=1,
            ),
        )
        names = ("checkpoint.json", "out.csv", "quarantine.jsonl")
        before = {name: (workdir / name).read_bytes() for name in names}
        code = serve_cli.main(
            [
                "run",
                "--source", f"file:{oracle['src']}",
                "--workdir", str(workdir),
                "--device", "hdd",
                "--until-idle", "0.2",
            ]
        )
        assert code == 1
        status = json.loads((workdir / "status.json").read_text())
        assert status["state"] == "failed"
        cause = cause.format(src=oracle["src"])
        assert status["fatal"] == f"cannot resume checkpoint.json: {cause}"
        assert status["session"] == {"n_chunks": 0, "n_requests": 0}  # nothing resumed
        assert {name: (workdir / name).read_bytes() for name in names} == before
        assert not (workdir / "checkpoint.json.corrupt").exists()
        assert not (workdir / "metrics.json").exists()
