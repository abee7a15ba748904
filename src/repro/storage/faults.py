"""Fault and degradation wrappers over healthy device models.

ROADMAP item 3 asks for production scenarios — degraded arrays,
throttled channels, transient slowdowns — without forking the healthy
device models.  This module keeps the device zoo composable: a fault is
a :class:`~repro.storage.device.StorageDevice` that *wraps* another
device and perturbs its timing, so every replay engine, campaign
action, and cache keyed on fingerprints works unchanged.

Three families:

- **service-time injectors** (:class:`LatencyInflation`,
  :class:`TransientStalls`) — multiply/offset or periodically stall the
  wrapped device's service times behind a single FIFO server;
- **mid-trace reconfiguration** (:class:`MidTraceSwitch`) — route the
  first ``at_request`` requests to one device and the rest to another,
  modelling channels/dies taken offline at a configurable point in the
  trace;
- **degraded redundancy** (:class:`DegradedRaid1`) — a mirror set with
  one failed member, reads rebalanced over the survivors, optionally
  with background rebuild reads injected between host requests.

Bit-identity discipline
-----------------------
The service injectors never compute ``(finish - start) * factor``:
``fl(start + svc) - start != svc`` in IEEE-754, so that would make the
scalar and batch paths disagree by an ulp.  Instead the scalar path
obtains the wrapped device's *service duration* through the same
single-row ``service_batch`` pricing the vector engines use, applies
the fault transform with the same elementwise operations, and keeps its
own FIFO busy-until stamp — so the synchronous, batch, and queue-depth
replay engines all perform identical float operations and the
differential identity harness (`tests/test_device_zoo_identity.py`)
holds bitwise.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..trace.record import OpType
from .channel import InterfaceChannel
from .device import StorageDevice
from .raid import _mirror_streams

__all__ = [
    "ServiceFaultWrapper",
    "LatencyInflation",
    "TransientStalls",
    "MidTraceSwitch",
    "DegradedRaid1",
]


class ServiceFaultWrapper(StorageDevice):
    """Base class for faults that transform per-request service times.

    The wrapper is a FIFO single server fronting the wrapped device:
    request ``i``'s service duration is the wrapped device's idle-state
    duration (priced through its ``service_batch`` contract, one row at
    a time in the scalar path) passed through :meth:`_fault_svc`.
    Rows the wrapped device cannot price gap-invariantly (e.g. buffered
    flash writes) fall back to driving its scalar ``_service`` — in
    exactly the streams where the whole-stream batch path is refused
    too, so every engine takes the same arithmetic either way.

    Subclasses implement the scalar :meth:`_fault_svc` and the
    vectorised :meth:`_fault_svc_batch` with *identical elementwise
    IEEE-754 operations*.
    """

    fifo_single_server = True

    def __init__(self, inner: StorageDevice, channel: InterfaceChannel | None = None) -> None:
        super().__init__(channel if channel is not None else inner.channel)
        self.inner = inner
        self._busy_until = 0.0
        self._index = 0  # requests seen so far (order state for the fault)

    def reset(self) -> None:
        """Cold state: wrapped device reset, server idle, count zeroed."""
        super().reset()
        self.inner.reset()
        self._busy_until = 0.0
        self._index = 0

    def fingerprint(self) -> str:
        return f"{super().fingerprint()}|inner={self.inner.fingerprint()}"

    # -- fault transform (subclass contract) ---------------------------

    def _fault_svc(self, svc: float, index: int) -> float:
        """Transformed service time for the ``index``-th request."""
        raise NotImplementedError

    def _fault_svc_batch(self, svc: np.ndarray, first_index: int) -> np.ndarray:
        """Vectorised :meth:`_fault_svc` for requests ``first_index..``.

        Must perform the same elementwise float operations as the
        scalar transform so both engines round identically.
        """
        raise NotImplementedError

    # -- device surface ------------------------------------------------

    def _inner_service_us(self, op: OpType, lba: int, size: int, start: float) -> float:
        """The wrapped device's service duration for one request.

        Priced through the single-row ``service_batch`` contract when
        the wrapped device supports it (consuming exactly the
        order-dependent state — RNG draws, head position, mirror
        round-robin — the full-stream batch call would), falling back
        to its scalar ``_service`` anchored at ``start`` otherwise.
        """
        ops1 = np.asarray([int(op)], dtype=np.int8)
        lbas1 = np.asarray([lba], dtype=np.int64)
        sizes1 = np.asarray([size], dtype=np.int64)
        svc = self.inner.service_batch(ops1, lbas1, sizes1)
        if svc is not None:
            return float(svc[0])
        inner_start, inner_finish = self.inner._service(op, lba, size, start)
        return inner_finish - start

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        start = t_ready if t_ready >= self._busy_until else self._busy_until
        svc = self._fault_svc(self._inner_service_us(op, lba, size, start), self._index)
        self._index += 1
        finish = start + svc
        self._busy_until = finish
        return start, finish

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        """Gap-invariant exactly when the wrapped device is."""
        return self.inner.supports_batch(ops, lbas, sizes)

    def service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray | None:
        # Single-pass override (mirrors the RAID layers): the wrapped
        # device prices the stream once, then the transform is applied
        # elementwise with the same float ops as the scalar path.
        svc = self.inner.service_batch(ops, lbas, sizes)
        if svc is None:
            return None
        out = self._fault_svc_batch(np.asarray(svc, dtype=np.float64), self._index)
        self._index += len(out)
        return out


class LatencyInflation(ServiceFaultWrapper):
    """Uniform service-time inflation: ``svc * factor + extra_us``.

    Models aging media, firmware throttling, or a congested backplane:
    every request is slowed by the same multiplicative factor plus a
    constant overhead.  ``factor >= 1`` and ``extra_us >= 0`` so the
    degraded device is never faster than the healthy one — the
    invariant the fault property suite asserts.
    """

    def __init__(
        self,
        inner: StorageDevice,
        factor: float = 1.0,
        extra_us: float = 0.0,
        channel: InterfaceChannel | None = None,
    ) -> None:
        if factor < 1.0:
            raise ValueError("latency inflation factor must be >= 1")
        if extra_us < 0.0:
            raise ValueError("extra latency must be non-negative")
        super().__init__(inner, channel)
        self.factor = float(factor)
        self.extra_us = float(extra_us)

    @property
    def name(self) -> str:
        """Human-readable model name."""
        return f"slow(x{self.factor:g}+{self.extra_us:g}us {self.inner.name})"

    def fingerprint(self) -> str:
        return f"{super().fingerprint()}|factor={self.factor!r}|extra={self.extra_us!r}"

    def _fault_svc(self, svc: float, index: int) -> float:
        return svc * self.factor + self.extra_us

    def _fault_svc_batch(self, svc: np.ndarray, first_index: int) -> np.ndarray:
        return svc * self.factor + self.extra_us


class TransientStalls(ServiceFaultWrapper):
    """Periodic stall injection: every ``every``-th request is delayed.

    Models background firmware activity (garbage collection, cache
    flushes, media scans) surfacing as periodic latency spikes: the
    requests whose 1-based ordinal is a multiple of ``every`` take
    ``stall_us`` extra.
    """

    def __init__(
        self,
        inner: StorageDevice,
        every: int = 100,
        stall_us: float = 1000.0,
        channel: InterfaceChannel | None = None,
    ) -> None:
        if every < 1:
            raise ValueError("stall period must be at least 1 request")
        if stall_us < 0.0:
            raise ValueError("stall duration must be non-negative")
        super().__init__(inner, channel)
        self.every = int(every)
        self.stall_us = float(stall_us)

    @property
    def name(self) -> str:
        """Human-readable model name."""
        return f"stall(every {self.every}, {self.stall_us:g}us, {self.inner.name})"

    def fingerprint(self) -> str:
        return f"{super().fingerprint()}|every={self.every}|stall={self.stall_us!r}"

    def _fault_svc(self, svc: float, index: int) -> float:
        if (index + 1) % self.every == 0:
            return svc + self.stall_us
        return svc

    def _fault_svc_batch(self, svc: np.ndarray, first_index: int) -> np.ndarray:
        ordinals = first_index + 1 + np.arange(len(svc), dtype=np.int64)
        return np.where(ordinals % self.every == 0, svc + self.stall_us, svc)


class MidTraceSwitch(StorageDevice):
    """Route requests to ``healthy`` until ``at_request``, then ``degraded``.

    Models a reconfiguration event at a known point in the request
    stream — flash channels or dies taken offline, a controller
    dropping to a degraded profile.  Requests with 0-based submission
    index below ``at_request`` are serviced by the healthy device, the
    rest by the degraded one.  The degraded device starts cold at the
    switch (its queues and media state carry nothing over) — a
    deliberate simplification: the switch models a reconfigured target,
    not a live migration of in-flight state.
    """

    fifo_single_server = False

    def __init__(
        self,
        healthy: StorageDevice,
        degraded: StorageDevice,
        at_request: int,
        channel: InterfaceChannel | None = None,
    ) -> None:
        if at_request < 0:
            raise ValueError("switch point must be a non-negative request index")
        super().__init__(channel if channel is not None else healthy.channel)
        self.healthy = healthy
        self.degraded = degraded
        self.at_request = int(at_request)
        self._index = 0

    @property
    def name(self) -> str:
        """Human-readable model name."""
        return f"switch@{self.at_request}({self.healthy.name}->{self.degraded.name})"

    def fingerprint(self) -> str:
        return (
            f"{super().fingerprint()}|at={self.at_request}"
            f"|healthy={self.healthy.fingerprint()}|degraded={self.degraded.fingerprint()}"
        )

    def reset(self) -> None:
        """Cold state: both phases reset, request counter zeroed."""
        super().reset()
        self.healthy.reset()
        self.degraded.reset()
        self._index = 0

    def _split(self, n: int) -> int:
        """Rows of the next ``n``-request stream served by ``healthy``."""
        return min(n, max(0, self.at_request - self._index))

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        device = self.healthy if self._index < self.at_request else self.degraded
        self._index += 1
        return device._service(op, lba, size, t_ready)

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        """Gap-invariant when both phases support their slice."""
        k = self._split(len(np.asarray(ops)))
        return (
            k == 0 or self.healthy.supports_batch(ops[:k], lbas[:k], sizes[:k])
        ) and (
            k == len(np.asarray(ops))
            or self.degraded.supports_batch(ops[k:], lbas[k:], sizes[k:])
        )

    def _service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        n = len(np.asarray(ops))
        k = self._split(n)
        parts = []
        if k:
            parts.append(self.healthy.service_batch(ops[:k], lbas[:k], sizes[:k]))
        if k < n:
            parts.append(self.degraded.service_batch(ops[k:], lbas[k:], sizes[k:]))
        self._index += n
        return np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])


class DegradedRaid1(StorageDevice):
    """Mirror set with one failed member and optional rebuild traffic.

    The full member set is supplied (so fingerprints line up with the
    healthy :class:`~repro.storage.raid.Raid1` it degrades from) but
    member ``failed_index`` receives no I/O: reads round-robin over the
    survivors, writes broadcast to the survivors only.

    When ``rebuild_every > 0``, every ``rebuild_every``-th host request
    is preceded by a background rebuild read of ``rebuild_chunk``
    sectors at an advancing cursor, dispatched round-robin over the
    survivors at the host request's ready time — the simple sequential
    resync pattern of a software mirror.  Rebuild reads occupy the
    chosen member, so host requests queue behind them; the
    :attr:`member_io_counts` / :attr:`rebuild_io_count` counters let
    the property suite assert the traffic conservation invariant.
    """

    fifo_single_server = False

    def __init__(
        self,
        members: Sequence[StorageDevice],
        failed_index: int = 0,
        rebuild_every: int = 0,
        rebuild_chunk: int = 128,
        channel: InterfaceChannel | None = None,
    ) -> None:
        if len(members) < 2:
            raise ValueError("a degraded mirror still needs the full member set (>= 2)")
        if not 0 <= failed_index < len(members):
            raise ValueError(f"failed member index {failed_index} out of range")
        if rebuild_every < 0:
            raise ValueError("rebuild period must be non-negative (0 disables rebuild)")
        if rebuild_every and rebuild_chunk <= 0:
            raise ValueError("rebuild chunk must be positive")
        super().__init__(channel if channel is not None else members[0].channel)
        self.members = list(members)
        self.failed_index = int(failed_index)
        self.rebuild_every = int(rebuild_every)
        self.rebuild_chunk = int(rebuild_chunk)
        self._survivor_indices = [
            i for i in range(len(self.members)) if i != self.failed_index
        ]
        self.survivors = [self.members[i] for i in self._survivor_indices]
        self._read_counter = 0
        self._host_count = 0
        self._rebuild_cursor = 0
        self._rebuild_rr = 0
        #: Per-member serviced request counts (host + rebuild I/O).
        self.member_io_counts = [0] * len(self.members)
        #: Background rebuild reads issued so far.
        self.rebuild_io_count = 0

    @property
    def name(self) -> str:
        """Human-readable model name."""
        suffix = ", rebuilding" if self.rebuild_every else ""
        return (
            f"raid1-degraded({len(self.members)}x {self.members[0].name},"
            f" failed={self.failed_index}{suffix})"
        )

    def fingerprint(self) -> str:
        members = ";".join(m.fingerprint() for m in self.members)
        return (
            f"{super().fingerprint()}|failed={self.failed_index}"
            f"|rebuild=({self.rebuild_every},{self.rebuild_chunk})|members=[{members}]"
        )

    def reset(self) -> None:
        """Cold state: members reset, counters and rebuild cursor zeroed."""
        super().reset()
        for member in self.members:
            member.reset()
        self._read_counter = 0
        self._host_count = 0
        self._rebuild_cursor = 0
        self._rebuild_rr = 0
        self.member_io_counts = [0] * len(self.members)
        self.rebuild_io_count = 0

    def _maybe_rebuild(self, t_ready: float) -> None:
        """Inject a background rebuild read before the next host request."""
        if not self.rebuild_every:
            return
        if self._host_count == 0 or self._host_count % self.rebuild_every:
            return
        slot = self._rebuild_rr % len(self.survivors)
        self._rebuild_rr += 1
        self.survivors[slot]._service(
            OpType.READ, self._rebuild_cursor, self.rebuild_chunk, t_ready
        )
        self._rebuild_cursor += self.rebuild_chunk
        self.member_io_counts[self._survivor_indices[slot]] += 1
        self.rebuild_io_count += 1

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        self._maybe_rebuild(t_ready)
        self._host_count += 1
        if op is OpType.READ:
            slot = self._read_counter % len(self.survivors)
            self._read_counter += 1
            self.member_io_counts[self._survivor_indices[slot]] += 1
            __, finish = self.survivors[slot]._service(op, lba, size, t_ready)
            return t_ready, finish
        finish = t_ready
        for index, member in zip(self._survivor_indices, self.survivors):
            self.member_io_counts[index] += 1
            __, member_finish = member._service(op, lba, size, t_ready)
            finish = max(finish, member_finish)
        return t_ready, finish

    # -- batch path ----------------------------------------------------
    #
    # The survivors are a healthy mirror set, so the batch path reuses
    # Raid1's stream builder (reads round-robin, writes broadcast) over
    # them.  With rebuild traffic enabled the injected reads queue
    # against host requests at real arrival instants, so the stream is
    # not gap-invariant and the batch path is refused outright.

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        """Gap-invariant when rebuild is off and all survivors agree."""
        if self.rebuild_every:
            return False
        streams = _mirror_streams(ops, lbas, sizes, len(self.survivors), self._read_counter)
        return all(
            member.supports_batch(f_ops, f_lbas, f_sizes)
            for member, (__, f_ops, f_lbas, f_sizes) in zip(self.survivors, streams)
        )

    def service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray | None:
        # Single-pass override (see Raid1.service_batch): streams are
        # built once and state only advances once the stream is accepted.
        if self.rebuild_every:
            return None
        streams = _mirror_streams(ops, lbas, sizes, len(self.survivors), self._read_counter)
        if not all(
            member.supports_batch(f_ops, f_lbas, f_sizes)
            for member, (__, f_ops, f_lbas, f_sizes) in zip(self.survivors, streams)
        ):
            return None
        self._read_counter += int(np.sum(np.asarray(ops) == int(OpType.READ)))
        out = np.zeros(len(np.asarray(ops)), dtype=np.float64)
        for index, member, (idx, f_ops, f_lbas, f_sizes) in zip(
            self._survivor_indices, self.survivors, streams
        ):
            self.member_io_counts[index] += len(idx)
            if len(idx):
                svc = member._service_batch(f_ops, f_lbas, f_sizes)
                np.maximum.at(out, np.asarray(idx, dtype=np.intp), svc)
        self._host_count += len(np.asarray(ops))
        return out
