"""Streaming daemon: batch-oracle parity, quarantine, drain, backpressure.

The load-bearing contract: for the same well-formed content, the
daemon's ``out.csv`` and final metrics are byte-/bit-identical to the
batch oracle ``pipeline.run_stream(TraceReader(path, chunk_requests=N))``
— for every source type.  Poison records are quarantined to the
dead-letter file and never kill the stream.
"""

from __future__ import annotations

import errno
import io
import json
import socket
import threading
import time

import pytest

from repro import TraceTracker
from repro.storage import ConstantLatencyDevice, HDDModel, SATA_600
from repro.trace import BlockTrace, TraceReader, dump_trace, write_csv
from repro.workloads import collect_trace, generate_intents, get_spec
from repro.service import (
    DirectoryWatchSource,
    FileTailSource,
    ServiceConfig,
    SocketLineSource,
    StreamingReconstructionService,
)
from repro.service.daemon import _CsvSink

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
    result = TraceTracker().pipeline.run_stream(
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

    def test_directory_source_with_per_segment_headers(self, oracle, tmp_path):
        lines = oracle["src"].read_text().splitlines()
        header, body = lines[0], lines[1:]
        segdir = tmp_path / "segs"
        segdir.mkdir()
        for i, lo in enumerate(range(0, len(body), 150)):
            (segdir / f"seg-{i:03d}.csv").write_text(
                "\n".join([header] + body[lo : lo + 150]) + "\n"
            )
        service, metrics = run_service(
            DirectoryWatchSource(segdir, "*.csv"), tmp_path / "wd"
        )
        assert service.outcome == "finished"
        assert_parity(tmp_path / "wd", metrics, oracle)
        status = json.loads((tmp_path / "wd" / "status.json").read_text())
        assert status["counters"]["n_header_repeats"] == 2  # one per later segment

    def test_socket_source(self, oracle, tmp_path):
        workdir = tmp_path / "wd"
        workdir.mkdir()
        source = SocketLineSource("127.0.0.1", 0, workdir / "spool.lines")
        holder = {}

        def serve():
            holder["service"], holder["metrics"] = run_service(
                source, workdir, until_idle_s=0.5
            )

        thread = threading.Thread(target=serve)
        thread.start()
        deadline = time.monotonic() + 10.0
        while source.port == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        payload = oracle["src"].read_bytes()
        with socket.create_connection(("127.0.0.1", source.port)) as conn:
            for off in range(0, len(payload), 997):  # torn, misaligned slices
                conn.sendall(payload[off : off + 997])
        thread.join(timeout=120.0)
        assert holder["service"].outcome == "finished"
        assert_parity(workdir, holder["metrics"], oracle)


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
        service = StreamingReconstructionService(
            FileTailSource(oracle["src"]),
            device(),
            tmp_path / "wd",
            ServiceConfig(chunk_requests=20, queue_high=3, queue_low=1, until_idle_s=0.2),
            tracker=tracker,
        )
        depths = []
        thread = threading.Thread(target=service.run, kwargs={"install_signal_handlers": False})
        thread.start()
        while thread.is_alive():
            depths.append(service._queue.depth())
            time.sleep(0.005)
        thread.join()
        assert service.outcome == "finished"
        assert max(depths) <= 3  # held at the watermark, never beyond
        assert service._queue.stats()["max_depth"] <= 3
        assert (tmp_path / "wd" / "out.csv").read_bytes() == oracle["bytes"]

    def test_shed_policy_drops_and_counts(self, oracle, tmp_path):
        tracker = TraceTracker()
        real = tracker.stream_session

        def slow_session(target):
            session = real(target)
            original = session.feed

            def feed(chunk):
                time.sleep(0.05)
                return original(chunk)

            session.feed = feed
            return session

        tracker.stream_session = slow_session
        service = StreamingReconstructionService(
            FileTailSource(oracle["src"]),
            device(),
            tmp_path / "wd",
            ServiceConfig(
                chunk_requests=20,
                queue_high=2,
                queue_low=1,
                queue_policy="shed",
                until_idle_s=0.2,
            ),
            tracker=tracker,
        )
        metrics = service.run(install_signal_handlers=False)
        assert service.outcome == "finished"
        status = json.loads((tmp_path / "wd" / "status.json").read_text())
        shed = status["counters"]["rows_shed"]
        assert shed > 0  # freshness over completeness, visibly accounted
        assert metrics.n_requests == 400 - shed

    def test_status_page_shape(self, oracle, tmp_path):
        service, _ = run_service(FileTailSource(oracle["src"]), tmp_path / "wd")
        status = json.loads((tmp_path / "wd" / "status.json").read_text())
        assert status["state"] == "finished"
        assert status["queue"]["high_watermark"] == 8
        assert status["counters"]["rows_out"] == 400
        assert status["lag_rows"] == 0
        assert status["session"]["n_requests"] == 400
        assert (tmp_path / "wd" / "heartbeat").exists()

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
