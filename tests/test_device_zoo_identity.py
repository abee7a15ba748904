"""Differential identity harness over the whole device zoo.

Every registry kind must produce bitwise identical stamps whichever
submission loop serves it:

- synchronous scalar replay vs the batch entry point;
- queue-depth replay vs its retained scalar oracle, at queue depth 1
  and 3, through the dispatcher and through each loop driven directly;
- trace collection vs a per-request ``submit`` reference, with sync
  and async requests mixed;
- whole-stream ``service_batch`` pricing vs the same stream priced in
  two chunks (order-dependent state — mirror round robin, HDD RNG
  draws — must advance identically).

A cross-loop check also runs every entry on wide extents, which the
mixed trace never reaches.

The zoo itself (:func:`repro.campaign.devices.device_zoo`) is the
parametrisation source, and the coverage test pins it to the registry:
adding a device kind without a zoo entry fails here, so new models are
automatically locked into the identity matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.devices import DEVICE_KINDS, build_device, device_zoo
from repro.replay import (
    replay_queue_depth,
    replay_queue_depth_scalar,
    replay_with_idle,
    replay_with_idle_batch,
)
from repro.trace.record import OpType
from repro.trace.trace import BlockTrace
from repro.workloads.generator import IntentStream, WorkloadSpec, collect_trace
from test_replay_batch import assert_replays_identical, replay_through_loop

ZOO = device_zoo()


def _zoo_trace(
    n: int = 60, seed: int = 17, sizes: tuple[int, int] = (1, 96)
) -> tuple[BlockTrace, np.ndarray]:
    """Deterministic mixed read/write trace over many stripe units.

    LBAs range over [0, 20000), hundreds of the zoo's 16 KB stripe
    units, so striped entries (flash arrays, RAID-0 over disks or
    SSDs) route requests to every member and some straddle a stripe
    boundary; the default sizes stay below the flash write buffer
    often enough to exercise both the buffered and media write paths.
    """
    rng = np.random.default_rng(seed)
    trace = BlockTrace(
        timestamps=np.cumsum(rng.integers(1, 400, n)).astype(np.float64),
        lbas=rng.integers(0, 20_000, n),
        sizes=rng.integers(*sizes, n),
        ops=rng.integers(0, 2, n).astype(np.int8),
    )
    idle = rng.uniform(0.0, 5_000.0, n - 1)
    return trace, idle


def _build(entry: str):
    desc = dict(ZOO[entry])
    kind = desc.pop("kind")
    return build_device(kind, desc)


class TestZooCoverage:
    """The zoo is the registry's mirror — no kind escapes it."""

    def test_every_registry_kind_in_zoo(self):
        zoo_kinds = {desc["kind"] for desc in ZOO.values()}
        assert zoo_kinds == set(DEVICE_KINDS)

    def test_fingerprints_distinct(self):
        prints = {name: _build(name).fingerprint() for name in ZOO}
        assert len(set(prints.values())) == len(prints)


class TestSyncReplayIdentity:
    """Scalar synchronous replay vs the batch fast path, bitwise."""

    @pytest.mark.parametrize("entry", sorted(ZOO))
    def test_sync_scalar_vs_batch(self, entry):
        trace, idle = _zoo_trace()
        scalar = replay_with_idle(trace, _build(entry), idle)
        batch = replay_with_idle_batch(trace, _build(entry), idle)
        assert_replays_identical(scalar, batch)


class TestQueueDepthIdentity:
    """Every submission loop vs the queue-depth scalar oracle, bitwise.

    Four differential columns per zoo entry: the scalar oracle is the
    ground truth, and the heap event loop (``events``), the streaming
    flash loop (``plan``), and :func:`replay_queue_depth` (``auto``:
    the dispatcher picks the priced FIFO loop, the flash loop or the
    event loop, whichever the device and depth allow) must each
    reproduce its stamps exactly.  The first two are driven directly,
    bypassing the dispatcher; devices without a flash layout route
    ``plan`` to the event loop, so the parametrisation is uniform over
    the whole zoo.
    """

    @pytest.mark.parametrize("entry", sorted(ZOO))
    @pytest.mark.parametrize("queue_depth", [1, 3])
    @pytest.mark.parametrize("loop", ["events", "plan", "auto"])
    def test_qdepth_vs_scalar_oracle(self, entry, queue_depth, loop):
        trace, idle = _zoo_trace()
        fast = replay_through_loop(loop, trace, _build(entry), idle, queue_depth)
        oracle = replay_queue_depth_scalar(
            trace, _build(entry), idle_us=idle, queue_depth=queue_depth
        )
        assert_replays_identical(fast, oracle)

    @pytest.mark.parametrize("entry", sorted(ZOO))
    def test_auto_identity_under_forced_bumps(self, entry):
        """Zero idle everywhere: the window fills on every request, so
        the flash loop's submit overrides (window-full waits) and start
        overrides (a standalone SSD's buffered writes admitted late)
        must still land on the oracle's stamps through the dispatcher."""
        trace, __ = _zoo_trace()
        idle = np.zeros(len(trace) - 1)
        fast = replay_queue_depth(trace, _build(entry), idle_us=idle, queue_depth=2)
        oracle = replay_queue_depth_scalar(
            trace, _build(entry), idle_us=idle, queue_depth=2
        )
        assert_replays_identical(fast, oracle)


class TestCrossEngineIdentity:
    """Scalar paths vs the columnar ones on wide extents, compared directly.

    The wide trace's requests span 8 to 76 of the zoo's 4 KB flash
    pages — up to 13 waves over its 6 dies — where the mixed trace
    stops at 13 pages.  Sync replay (scalar ``submit`` loop vs the
    batch entry point) and depth-3 queue-depth replay (the heap event
    loop over ``_service``, driven directly, vs the dispatcher's pick)
    must agree stamp for stamp.
    """

    @pytest.mark.parametrize("entry", sorted(ZOO))
    def test_forced_scalar_matches_columnar(self, entry):
        trace, idle = _zoo_trace(sizes=(64, 601))
        assert_replays_identical(
            replay_with_idle(trace, _build(entry), idle),
            replay_with_idle_batch(trace, _build(entry), idle),
        )
        assert_replays_identical(
            replay_through_loop("events", trace, _build(entry), idle, 3),
            replay_queue_depth(trace, _build(entry), idle_us=idle, queue_depth=3),
        )


def _zoo_intents(n: int = 120, seed: int = 29) -> IntentStream:
    """The zoo trace's requests as an intent stream, sync and async mixed.

    Think times are short against the zoo's service times, so the
    asynchronous requests overlap their successors; the first request
    carries a think time of its own, so collection cannot start at zero.
    """
    trace, __ = _zoo_trace(n=n, seed=seed)
    rng = np.random.default_rng(seed)
    thinks = rng.uniform(0.0, 400.0, n)
    is_idle = thinks > 300.0
    return IntentStream(
        ops=trace.ops,
        lbas=trace.lbas,
        sizes=trace.sizes,
        thinks=thinks,
        is_idle=is_idle,
        syncs=rng.random(n) >= 0.4,
        spec=WorkloadSpec(name="zoo-intents", category="zoo"),
    )


def _collect_reference(intents: IntentStream, device) -> tuple[np.ndarray, np.ndarray]:
    """Per-request ``submit`` collection: the host is free at the finish
    of a synchronous request and at the ack of an asynchronous one, and
    submits its next request a think time later."""
    device.reset()
    submits, finishes = [], []
    host_free = 0.0
    for op, lba, size, think, sync in zip(
        intents.ops.tolist(),
        intents.lbas.tolist(),
        intents.sizes.tolist(),
        intents.thinks.tolist(),
        intents.syncs.tolist(),
    ):
        completion = device.submit(OpType(op), lba, size, host_free + think)
        submits.append(completion.submit)
        finishes.append(completion.finish)
        host_free = completion.finish if sync else completion.ack
    return np.array(submits), np.array(finishes)


class TestCollectionIdentity:
    """``collect_trace`` vs a per-request ``submit`` reference, bitwise.

    Collection follows the replay engines' submission rule with the
    intent stream's sync flags deciding, request by request, whether
    the host waits for the finish or only for the ack — so every zoo
    entry must collect the stamps the reference loop records.
    """

    @pytest.mark.parametrize("entry", sorted(ZOO))
    def test_collect_matches_submit_reference(self, entry):
        intents = _zoo_intents()
        device = _build(entry)
        trace = collect_trace(
            intents, device, record_device_times=True, record_sync_flags=True
        )
        submits, finishes = _collect_reference(intents, _build(entry))
        np.testing.assert_array_equal(trace.timestamps, submits)
        np.testing.assert_array_equal(trace.issues, submits)
        np.testing.assert_array_equal(trace.completes, finishes)
        np.testing.assert_array_equal(trace.syncs, intents.syncs)
        assert trace.metadata == {
            "category": "zoo",
            "collected_on": device.name,
            "n_user_idles": intents.idle_count(),
            "total_user_idle_us": intents.total_idle_us(),
        }


class TestChunkedBatchPricing:
    """Whole-stream vs chunked ``service_batch``: state advances alike.

    Splitting a stream across two batch calls must price identically to
    one call — the order-dependent state (mirror read counters, HDD RNG
    draws) has to advance by exactly the consumed prefix.
    """

    @pytest.mark.parametrize("entry", sorted(ZOO))
    @pytest.mark.parametrize("split", [1, 23, 30])
    def test_chunked_equals_whole(self, entry, split):
        trace, __ = _zoo_trace()
        ops, lbas, sizes = trace.ops, trace.lbas, trace.sizes
        whole = _build(entry).service_batch(ops, lbas, sizes)
        chunked_device = _build(entry)
        head = chunked_device.service_batch(ops[:split], lbas[:split], sizes[:split])
        tail = chunked_device.service_batch(ops[split:], lbas[split:], sizes[split:])
        if whole is None:
            # Streams the device refuses whole must not be priced
            # piecewise either once the refusing chunk is reached.
            assert head is None or tail is None
            return
        assert head is not None and tail is not None
        np.testing.assert_array_equal(np.concatenate([head, tail]), whole)
