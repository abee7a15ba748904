"""Chaos: SIGKILL the streaming daemon, restart, demand bit-identity.

The property under test: a daemon SIGKILLed at *any* point and
restarted over the same work directory produces a sink and metrics
byte-/bit-identical to an undisturbed batch-oracle run — zero
duplicated and zero lost requests.  Kill points are chosen at random
chunk boundaries from a seeded RNG (the chaos-harness style of
tests/chaos/test_chaos_campaign.py: real processes, real signals,
deterministic schedule).  A stream without device stamps is killed
once while the session is still fitting a model per chunk and once
after it has frozen the stream's model.  One daemon is killed inside a
group commit, with its chunks fsynced in ``out.csv`` but not yet in
``checkpoint.json``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro import TraceTracker
from repro.core import StreamingReconstructionSession
from repro.storage import ConstantLatencyDevice, HDDModel, SATA_600
from repro.trace import TraceReader, dump_trace, load_trace
from repro.workloads import collect_trace, generate_intents, get_spec

CHUNK = 50
N_REQUESTS = 600
#: The bare stream: 20 default-size chunks and an 80-row tail.
BARE_CHUNK = 256
N_BARE = 20 * BARE_CHUNK + 80


def device():
    return ConstantLatencyDevice(SATA_600, read_us=80.0, write_us=120.0)


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    base = tmp_path_factory.mktemp("chaos-stream")
    old = collect_trace(
        generate_intents(get_spec("MSNFS").scaled(N_REQUESTS)), HDDModel()
    )
    src = base / "old.csv"
    dump_trace(old, src, fmt="internal")
    return src


@pytest.fixture(scope="module")
def bare_stream_file(tmp_path_factory):
    base = tmp_path_factory.mktemp("chaos-bare-stream")
    old = collect_trace(
        generate_intents(get_spec("MSNFS").scaled(N_BARE)), HDDModel(), record_device_times=False
    )
    src = base / "old.csv"
    dump_trace(old, src, fmt="internal")
    return src


def stream_oracle(src, chunk, base):
    result = TraceTracker().reconstruct_stream(
        TraceReader(src, chunk_requests=chunk), device()
    )
    out = base / "out.csv"
    dump_trace(result.trace, out, fmt="internal")
    return {"bytes": out.read_bytes(), "metrics": result.metrics}


@pytest.fixture(scope="module")
def oracle(stream_file, tmp_path_factory):
    return stream_oracle(stream_file, CHUNK, tmp_path_factory.mktemp("chaos-oracle"))


@pytest.fixture(scope="module")
def bare_oracle(bare_stream_file, tmp_path_factory):
    return stream_oracle(
        bare_stream_file, BARE_CHUNK, tmp_path_factory.mktemp("chaos-bare-oracle")
    )


def serve_file(src, workdir, chunk=CHUNK):
    """Child-process entry: run the daemon to completion over a file."""
    from repro.service import FileTailSource, ServiceConfig, StreamingReconstructionService

    service = StreamingReconstructionService(
        FileTailSource(src),
        device(),
        workdir,
        ServiceConfig(chunk_requests=chunk, until_idle_s=0.3),
    )
    service.run()


def serve_file_killed_in_commit(src, workdir, chunk=CHUNK):
    """Child-process entry: SIGKILL itself inside a commit of two or more chunks.

    The kill lands in ``save_checkpoint``: after the commit has fsynced
    the data files, before ``checkpoint.json`` is replaced.  Each feed
    sleeps, as in a catch-up whose reconstruction lags the file, and
    one commit covers up to ``queue_high`` chunks.
    """
    from repro.service import FileTailSource, ServiceConfig, StreamingReconstructionService
    from repro.service import daemon

    committed = [0]  # rows_consumed of the checkpoint on disk
    real_save = daemon.save_checkpoint

    def save(path, checkpoint):
        if checkpoint.rows_consumed - committed[0] >= 2 * chunk:
            os.kill(os.getpid(), signal.SIGKILL)
        real_save(path, checkpoint)
        committed[0] = checkpoint.rows_consumed

    daemon.save_checkpoint = save
    tracker = TraceTracker()
    real_session = tracker.stream_session

    def slow_session(target):
        session = real_session(target)
        feed = session.feed

        def slow_feed(segment):
            time.sleep(0.02)
            return feed(segment)

        session.feed = slow_feed
        return session

    tracker.stream_session = slow_session
    service = StreamingReconstructionService(
        FileTailSource(src),
        device(),
        workdir,
        ServiceConfig(chunk_requests=chunk, until_idle_s=0.3),
        tracker=tracker,
    )
    service.run()


def wait_rows_consumed(checkpoint_path, threshold, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if json.loads(checkpoint_path.read_text())["rows_consumed"] >= threshold:
                return
        except (OSError, ValueError, KeyError):
            pass
        time.sleep(0.003)
    raise AssertionError(f"daemon never consumed {threshold} rows")


def assert_exactly_once(workdir, oracle):
    """Byte parity implies zero duplicated and zero lost requests."""
    assert (workdir / "out.csv").read_bytes() == oracle["bytes"]
    got = load_trace(workdir / "out.csv", fmt="internal")
    assert len(got) == oracle["metrics"].n_requests
    assert len(np.unique(got.timestamps)) == len(got)  # no duplicated rows
    saved = json.loads((workdir / "metrics.json").read_text())
    m = oracle["metrics"]
    assert saved == {
        "n_requests": m.n_requests,
        "old_duration_us": m.old_duration_us,
        "new_duration_us": m.new_duration_us,
        "slept_idle_us": m.slept_idle_us,
        "n_async_gaps": m.n_async_gaps,
        "used_measured_tsdev": m.used_measured_tsdev,
        "n_chunks": m.n_chunks,
    }


@pytest.mark.parametrize(
    "seed, bare", [(0, False), (1, False), (2, True)], ids=["0", "1", "bare"]
)
def test_sigkill_at_random_chunk_boundaries(request, tmp_path, seed, bare):
    """Kill the daemon twice at seeded random progress points, then finish.

    The bare stream is killed once in the first few chunks, while the
    session fits a model per chunk, and once after the freeze.
    """
    ctx = multiprocessing.get_context("fork")
    workdir = tmp_path / "wd"
    rng = np.random.default_rng(seed)
    if bare:
        src, oracle, chunk = (
            request.getfixturevalue("bare_stream_file"),
            request.getfixturevalue("bare_oracle"),
            BARE_CHUNK,
        )
        warm = StreamingReconstructionSession.WARMUP_FITS
        kill_points = [
            rng.integers(1, 4) * chunk,
            rng.integers(warm + 1, N_BARE // chunk) * chunk,
        ]
    else:
        src, oracle, chunk = (
            request.getfixturevalue("stream_file"),
            request.getfixturevalue("oracle"),
            CHUNK,
        )
        kill_points = sorted(
            rng.choice(np.arange(1, N_REQUESTS // chunk), size=2, replace=False) * chunk
        )
    frozen_at_kill = []
    for threshold in kill_points:
        proc = ctx.Process(target=serve_file, args=(src, workdir, chunk))
        proc.start()
        wait_rows_consumed(workdir / "checkpoint.json", int(threshold))
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=30.0)
        assert proc.exitcode == -signal.SIGKILL
        if bare:
            state = json.loads((workdir / "checkpoint.json").read_text())["session_state"]
            frozen_at_kill.append(state["model"] is not None)
    if bare:
        assert frozen_at_kill == [False, True]  # one kill in warm-up, one after it
    proc = ctx.Process(target=serve_file, args=(src, workdir, chunk))
    proc.start()
    proc.join(timeout=180.0)
    assert proc.exitcode == 0
    assert_exactly_once(workdir, oracle)


def test_sigterm_drains_and_exits_zero(stream_file, oracle, tmp_path):
    """Real-signal drain: SIGTERM mid-stream exits cleanly and resumably."""
    ctx = multiprocessing.get_context("fork")
    workdir = tmp_path / "wd"
    proc = ctx.Process(target=serve_file, args=(stream_file, workdir))
    proc.start()
    wait_rows_consumed(workdir / "checkpoint.json", CHUNK * 2)
    os.kill(proc.pid, signal.SIGTERM)
    proc.join(timeout=60.0)
    assert proc.exitcode == 0
    status = json.loads((workdir / "status.json").read_text())
    assert status["state"] in ("stopped", "finished")
    proc = ctx.Process(target=serve_file, args=(stream_file, workdir))
    proc.start()
    proc.join(timeout=180.0)
    assert proc.exitcode == 0
    assert_exactly_once(workdir, oracle)


def test_sigkill_inside_group_commit(stream_file, oracle, tmp_path):
    """Fsynced but uncommitted chunks are truncated back and redone exactly once."""
    ctx = multiprocessing.get_context("fork")
    workdir = tmp_path / "wd"
    proc = ctx.Process(target=serve_file_killed_in_commit, args=(stream_file, workdir))
    proc.start()
    proc.join(timeout=60.0)
    assert proc.exitcode == -signal.SIGKILL
    checkpoint = workdir / "checkpoint.json"
    rows_committed = json.loads(checkpoint.read_text())["rows_out"] if checkpoint.exists() else 0
    rows_written = len((workdir / "out.csv").read_text().splitlines()) - 1  # less the header
    # One chunk emits at most CHUNK rows, so more means two or more chunks.
    assert rows_written - rows_committed > CHUNK
    proc = ctx.Process(target=serve_file, args=(stream_file, workdir))
    proc.start()
    proc.join(timeout=180.0)
    assert proc.exitcode == 0
    assert_exactly_once(workdir, oracle)
