"""Reconstruction stages: the whole-trace run, chunked streaming and the session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    InferStage,
    ReconstructionMetrics,
    StreamingReconstructionSession,
    TraceTracker,
    TraceTrackerConfig,
)
from repro.inference import LatencyModel, extract_idle_with_model
from repro.storage import ConstantLatencyDevice, FlashArray, SATA_600


#: Rows per chunk of the bare (inferred-model) streams: ``old_trace_bare``
#: cuts into 19 chunks, and each of the first 16 fits a model of its own.
BARE_CHUNK = 110


def chunked(trace, size):
    for start in range(0, len(trace), size):
        yield trace.select(slice(start, start + size))


def per_chunk_refit(chunks, device):
    """Chunked reconstruction with a fresh model fit for every chunk.

    The carry-one-request splice of the streaming session, with each
    chunk run through the whole-trace reconstruction: the session's
    output until its model freezes.
    """
    tracker = TraceTracker()
    pieces, carry, splice_at = [], None, 0.0
    for chunk in chunks:
        work = chunk if carry is None else carry.concat(chunk)
        new = tracker.reconstruct(work, device).trace
        if carry is not None:
            new = new.select(slice(1, None)).shifted(splice_at - float(new.timestamps[0]))
        pieces.append(new)
        carry, splice_at = chunk.select(slice(-1, None)), float(new.timestamps[-1])
    return pieces[0].concat_all(pieces)


class TestWholeTraceEquivalence:
    """Batch and stream share one per-segment path."""

    @pytest.mark.parametrize("trace_name", ["old_trace", "old_trace_bare"])
    def test_one_chunk_stream_is_the_whole_trace_run(self, trace_name, request):
        trace = request.getfixturevalue(trace_name)
        whole = TraceTracker().reconstruct(trace, FlashArray())
        streamed = TraceTracker().reconstruct_stream(iter([trace]), FlashArray())
        for column in ("timestamps", "issues", "completes"):
            np.testing.assert_array_equal(
                getattr(streamed.trace, column), getattr(whole.trace, column)
            )
        assert streamed.metrics == whole.metrics

    def test_metrics_populated(self, old_trace, flash):
        result = TraceTracker().reconstruct(old_trace, flash)
        metrics = result.metrics
        assert isinstance(metrics, ReconstructionMetrics)
        assert metrics.n_requests == len(old_trace)
        assert metrics.old_duration_us == pytest.approx(old_trace.duration)
        assert metrics.new_duration_us == pytest.approx(result.trace.duration)
        assert metrics.n_chunks == 1
        assert metrics.used_measured_tsdev
        assert metrics.speedup > 1.0  # flash replays an HDD trace faster

    def test_postprocess_stage_optional(self, old_trace):
        assert TraceTracker(TraceTrackerConfig(postprocess=False)).postprocess is None


class TestStreaming:
    @pytest.mark.parametrize("chunk_size", [50, 333, 5_000])
    def test_stream_preserves_pattern_and_length(self, old_trace, chunk_size):
        device = ConstantLatencyDevice(SATA_600, read_us=80.0, write_us=120.0)
        streamed = TraceTracker().reconstruct_stream(
            chunked(old_trace, chunk_size), device
        )
        assert len(streamed.trace) == len(old_trace)
        np.testing.assert_array_equal(streamed.trace.lbas, old_trace.lbas)
        np.testing.assert_array_equal(streamed.trace.ops, old_trace.ops)
        assert np.all(np.diff(streamed.trace.timestamps) >= 0)

    @pytest.mark.parametrize("chunk_size", [100, 999])
    def test_stream_matches_whole_trace_closely(self, old_trace, chunk_size):
        """Gap-invariant device: chunking changes results only at rounding."""
        tracker = TraceTracker()
        device = ConstantLatencyDevice(SATA_600, read_us=80.0, write_us=120.0)
        whole = tracker.reconstruct(old_trace, device)
        streamed = tracker.reconstruct_stream(chunked(old_trace, chunk_size), device)
        np.testing.assert_allclose(
            streamed.trace.timestamps, whole.trace.timestamps, rtol=1e-9, atol=1e-6
        )
        assert streamed.metrics.n_async_gaps == whole.metrics.n_async_gaps
        assert streamed.metrics.slept_idle_us == pytest.approx(
            whole.metrics.slept_idle_us
        )
        assert streamed.metrics.n_chunks == -(-len(old_trace) // chunk_size)

    def test_stream_on_flash_array(self, old_trace, flash):
        streamed = TraceTracker().reconstruct_stream(chunked(old_trace, 250), flash)
        whole = TraceTracker().reconstruct(old_trace, FlashArray())
        assert len(streamed.trace) == len(whole.trace)
        assert streamed.trace.duration == pytest.approx(whole.trace.duration, rel=0.01)

    def test_single_request_stream(self, old_trace):
        device = ConstantLatencyDevice(SATA_600)
        one = old_trace.select(slice(0, 1))
        streamed = TraceTracker().reconstruct_stream(iter([one]), device)
        assert len(streamed.trace) == 1

    def test_tiny_chunks(self, old_trace):
        device = ConstantLatencyDevice(SATA_600)
        head = old_trace.select(slice(0, 6))
        streamed = TraceTracker().reconstruct_stream(chunked(head, 1), device)
        assert len(streamed.trace) == 6

    def test_empty_chunks_skipped(self, old_trace):
        device = ConstantLatencyDevice(SATA_600)
        head = old_trace.select(slice(0, 10))
        pieces = [
            head.select(slice(0, 0)),
            head.select(slice(0, 5)),
            head.select(slice(5, 5)),
            head.select(slice(5, 10)),
        ]
        streamed = TraceTracker().reconstruct_stream(iter(pieces), device)
        assert len(streamed.trace) == 10

    def test_empty_stream_rejected(self):
        device = ConstantLatencyDevice(SATA_600)
        with pytest.raises(ValueError, match="empty stream"):
            TraceTracker().reconstruct_stream(iter([]), device)


class TestStreamingSession:
    """Incremental session ≡ reconstruct_stream, including across a state round-trip."""

    def _device(self):
        return ConstantLatencyDevice(SATA_600, read_us=80.0, write_us=120.0)

    def test_session_matches_run_stream(self, old_trace):
        tracker = TraceTracker()
        oracle = tracker.reconstruct_stream(chunked(old_trace, 64), self._device())
        session = tracker.stream_session(self._device())
        pieces = [
            p for p in (session.feed(c) for c in chunked(old_trace, 64)) if p is not None
        ]
        tail = session.finish()
        if tail is not None:
            pieces.append(tail)
        got = pieces[0].concat_all(pieces)
        np.testing.assert_array_equal(got.timestamps, oracle.trace.timestamps)
        np.testing.assert_array_equal(got.lbas, oracle.trace.lbas)
        assert session.metrics() == oracle.metrics

    @pytest.mark.parametrize(
        "stream, cut",
        [("stamped", 1), ("stamped", 3), ("stamped", 7), ("bare", 3), ("bare", 16), ("bare", 17)],
        ids=["1", "3", "7", "bare-3", "bare-16", "bare-17"],
    )
    def test_state_roundtrip_is_bit_identical(self, old_trace, old_trace_bare, stream, cut):
        """SIGKILL-at-a-chunk-boundary simulated via state_dict/load_state.

        The bare stream is cut mid-warm-up, at the freeze and after it.
        """
        import json

        trace, size = (old_trace, 40) if stream == "stamped" else (old_trace_bare, BARE_CHUNK)
        tracker = TraceTracker()
        oracle = tracker.reconstruct_stream(chunked(trace, size), self._device())

        first = tracker.stream_session(self._device())
        pieces = []
        chunks = list(chunked(trace, size))
        for chunk in chunks[:cut]:
            piece = first.feed(chunk)
            if piece is not None:
                pieces.append(piece)
        # serialise through JSON exactly like the daemon's checkpoint
        state = json.loads(json.dumps(first.state_dict()))
        if stream == "bare":
            assert len(state["fits"]) == min(cut, first.WARMUP_FITS)
            assert (state["model"] is not None) == (cut >= first.WARMUP_FITS)

        second = tracker.stream_session(self._device())  # fresh device: cold replay
        second.load_state(state)
        for chunk in chunks[cut:]:
            piece = second.feed(chunk)
            if piece is not None:
                pieces.append(piece)
        tail = second.finish()
        if tail is not None:
            pieces.append(tail)
        got = pieces[0].concat_all(pieces)
        np.testing.assert_array_equal(got.timestamps, oracle.trace.timestamps)
        np.testing.assert_array_equal(got.issues, oracle.trace.issues)
        assert second.metrics() == oracle.metrics

    def test_failed_feed_leaves_state_retryable(self, old_trace):
        tracker = TraceTracker()
        session = tracker.stream_session(self._device())
        chunks = list(chunked(old_trace, 64))
        session.feed(chunks[0])
        before = session.state_dict()
        bad = chunks[1].shifted(-10**9)  # overlaps the carried boundary
        with pytest.raises(ValueError):
            session.feed(bad)
        assert session.state_dict() == before  # untouched, retryable
        session.feed(chunks[1])  # the good chunk still lands

    def test_single_request_stream_finish(self, tiny_trace):
        tracker = TraceTracker()
        session = tracker.stream_session(self._device())
        assert session.feed(tiny_trace.select(slice(0, 1))) is None
        piece = session.finish()
        assert piece is not None and len(piece) == 1
        assert session.metrics().n_requests == 1

    def test_empty_session_metrics_raises(self):
        session = TraceTracker().stream_session(self._device())
        with pytest.raises(ValueError, match="empty stream"):
            session.metrics()


class TestOneModelPerStream:
    """Bare streams: a fit per chunk during warm-up, one frozen model after."""

    WARMUP = StreamingReconstructionSession.WARMUP_FITS

    def _device(self):
        return ConstantLatencyDevice(SATA_600, read_us=80.0, write_us=120.0)

    def test_infer_stage_decomposes_with_a_given_model(self, old_trace, old_trace_bare):
        stage = InferStage()
        fitted = stage.run(old_trace_bare)
        given = stage.run(old_trace_bare, model=fitted.report.model)
        assert given.report is None and not given.used_measured_tsdev
        np.testing.assert_array_equal(given.tidle_us, fitted.tidle_us)
        np.testing.assert_array_equal(given.async_mask, fitted.async_mask)
        # device stamps take the measured path whatever model is given
        assert stage.run(old_trace, model=fitted.report.model).used_measured_tsdev

    def test_stream_within_warmup_is_per_chunk_refit(self, old_trace_bare):
        chunks = list(chunked(old_trace_bare, BARE_CHUNK))[: self.WARMUP]
        streamed = TraceTracker().reconstruct_stream(iter(chunks), self._device())
        expected = per_chunk_refit(chunks, self._device())
        np.testing.assert_array_equal(streamed.trace.timestamps, expected.timestamps)
        np.testing.assert_array_equal(streamed.trace.issues, expected.issues)
        np.testing.assert_array_equal(streamed.trace.completes, expected.completes)

    def test_warmup_stamps_equal_a_warmup_long_stream(self, old_trace_bare):
        chunks = list(chunked(old_trace_bare, BARE_CHUNK))
        assert len(chunks) > self.WARMUP
        whole = TraceTracker().reconstruct_stream(iter(chunks), self._device())
        head = TraceTracker().reconstruct_stream(iter(chunks[: self.WARMUP]), self._device())
        n = len(head.trace)
        np.testing.assert_array_equal(whole.trace.timestamps[:n], head.trace.timestamps)
        np.testing.assert_array_equal(whole.trace.issues[:n], head.trace.issues)
        np.testing.assert_array_equal(whole.trace.completes[:n], head.trace.completes)

    def test_frozen_model_is_the_median_of_the_warmup_fits(self, old_trace_bare):
        session = TraceTracker().stream_session(self._device())
        chunks = list(chunked(old_trace_bare, BARE_CHUNK))
        for chunk in chunks[: self.WARMUP]:
            session.feed(chunk)
        frozen = session.state_dict()
        fits = frozen["fits"]
        assert len(fits) == self.WARMUP
        assert frozen["model"] == {key: float(np.median([f[key] for f in fits])) for key in fits[0]}
        slept = session.metrics().slept_idle_us
        work = chunks[self.WARMUP - 1].select(slice(-1, None)).concat(chunks[self.WARMUP])
        session.feed(chunks[self.WARMUP])
        after = session.state_dict()
        assert after["fits"] == fits and after["model"] == frozen["model"]  # no refit
        expected = extract_idle_with_model(work, LatencyModel(**frozen["model"]))
        assert session.metrics().slept_idle_us == slept + float(expected.tidle_us.sum())

    def test_failed_warmup_fit_falls_back_to_the_fits_so_far(self, old_trace_bare):
        # At 100-row chunks the second chunk has no size group large
        # enough to fit a model of its own.
        chunks = list(chunked(old_trace_bare, 100))
        work = chunks[0].select(slice(-1, None)).concat(chunks[1])
        with pytest.raises(ValueError, match="no request group large enough"):
            InferStage().run(work)
        session = TraceTracker().stream_session(self._device())
        session.feed(chunks[0])
        fits = session.state_dict()["fits"]
        slept = session.metrics().slept_idle_us
        assert session.feed(chunks[1]) is not None
        assert session.state_dict()["fits"] == fits
        assert session.state_dict()["model"] is None
        expected = extract_idle_with_model(work, LatencyModel(**fits[0]))
        assert session.metrics().slept_idle_us == slept + float(expected.tidle_us.sum())

    def test_failed_fit_with_no_fit_yet_raises_and_leaves_state(self, old_trace_bare):
        session = TraceTracker().stream_session(self._device())
        before = session.state_dict()
        with pytest.raises(ValueError, match="no request group large enough"):
            session.feed(old_trace_bare.select(slice(0, 64)))
        assert session.state_dict() == before

    def test_other_state_version_rejected(self):
        session = TraceTracker().stream_session(self._device())
        state = session.state_dict()
        with pytest.raises(ValueError, match="state version 1"):
            session.load_state({**state, "version": 1})
        del state["fits"]
        with pytest.raises(KeyError, match="fits"):
            session.load_state(state)
