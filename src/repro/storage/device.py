"""Storage device abstraction shared by the HDD and flash models.

A device accepts a request at a submit time and reports when the host
interface is free again (``ack``) and when the data is actually on/off
the medium (``finish``).  This two-stamp completion is what lets the
replayer distinguish synchronous submissions (host blocks until
``finish``) from asynchronous ones (host proceeds at ``ack``) — the
distinction at the heart of the paper's Figure 2b timing diagram.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..trace.record import OpType
from .channel import InterfaceChannel

__all__ = ["Completion", "StorageDevice", "ConstantLatencyDevice"]


@dataclass(frozen=True, slots=True)
class Completion:
    """Timing outcome of one submitted request (all times µs).

    Attributes
    ----------
    submit:
        When the host handed the request to the driver.
    start:
        When the device began servicing it (after any queueing).
    ack:
        When the host interface finished the command/data hand-off —
        an asynchronous submitter is free to continue at this point
        (:math:`submit + T_{cdel}` plus any host-side queue wait).
    finish:
        When the medium finished the operation — a synchronous
        submitter resumes here.
    """

    submit: float
    start: float
    ack: float
    finish: float

    def __post_init__(self) -> None:
        if not (self.submit <= self.start <= self.finish):
            raise ValueError("completion stamps out of order (submit <= start <= finish)")
        if self.ack < self.submit:
            raise ValueError("ack precedes submit")

    @property
    def latency(self) -> float:
        """End-to-end service latency ``finish - submit`` (:math:`T_{slat}` + queue wait)."""
        return self.finish - self.submit

    @property
    def device_time(self) -> float:
        """Medium service time ``finish - start`` (:math:`T_{sdev}`)."""
        return self.finish - self.start

    @property
    def queue_wait(self) -> float:
        """Time between channel hand-off and service start ``start - ack``.

        Zero when the device was idle; positive when the request queued
        behind earlier work.
        """
        return max(0.0, self.start - self.ack)


class StorageDevice(abc.ABC):
    """A storage target the replayer can submit block requests to.

    Implementations are *stateful* simulators: submission order matters
    (head position, busy channels, write-buffer occupancy).  Submit
    times must be non-decreasing, matching how a trace replayer walks a
    trace.
    """

    def __init__(self, channel: InterfaceChannel) -> None:
        self.channel = channel
        self._last_submit = float("-inf")

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Human-readable model name."""

    @abc.abstractmethod
    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        """Device-specific service: returns ``(start, finish)``.

        ``t_ready`` is when the command has fully crossed the channel
        and is available to the medium.
        """

    def submit(self, op: OpType, lba: int, size: int, t: float) -> Completion:
        """Submit one request at time ``t`` and return its timing.

        The channel transfer happens first (the host is occupied for
        :math:`T_{cdel}`), then the medium services the request,
        possibly after queueing behind earlier requests.
        """
        if size <= 0:
            raise ValueError("request size must be positive")
        if lba < 0:
            raise ValueError("lba must be non-negative")
        if t < self._last_submit:
            raise ValueError(f"submissions must be time-ordered: {t} < {self._last_submit}")
        self._last_submit = t
        t_cdel = self.channel.delay_us(op, size)
        ack = t + t_cdel
        start, finish = self._service(op, lba, size, ack)
        return Completion(submit=t, start=start, ack=ack, finish=finish)

    def reset(self) -> None:
        """Return the device to its cold state (subclasses extend)."""
        self._last_submit = float("-inf")

    def fingerprint(self) -> str:
        """Stable description of everything that determines behaviour.

        Two devices with equal fingerprints produce identical traces
        for identical request streams (from a cold reset), so the
        fingerprint is safe to fold into trace-cache content keys.
        Subclasses with extra constructor state (geometry, seeds,
        member layout) must extend it.
        """
        return f"{type(self).__qualname__}|{self.name}|{self.channel!r}"

    # ------------------------------------------------------------------
    # batch service API (the vectorised replay engine's device contract)
    # ------------------------------------------------------------------

    #: ``True`` for devices whose queueing is a single FIFO server whose
    #: state is fully described by one "busy until" stamp.  Combined
    #: with :meth:`service_batch`, the flag licenses pricing a stream
    #: whose requests *overlap*: the single server serialises them, so
    #: ``_service(t_ready)`` is exactly ``start = max(t_ready, busy);
    #: finish = start + svc`` with the order-determined ``svc`` the
    #: batch call returns.  That is what lets
    #: :func:`repro.replay.qdepth.submit_stream` run the priced FIFO
    #: loop for collection with asynchronous requests and for
    #: queue-depth windows deeper than one.
    fifo_single_server: bool = False

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        """Whether :meth:`service_batch` can service this exact stream.

        Must be *pure*: no simulator state (RNG, head position, buffer
        occupancy) may be consumed.  A device answers ``False`` whenever
        its per-request latency for the stream would depend on the
        actual submission instants (e.g. background write-buffer drains
        overlapping later requests) rather than on the request order
        alone.
        """
        return False

    def flash_layout(self) -> tuple[list, int | None] | None:
        """Member SSDs and stripe unit for the streaming flash replay loop.

        Flash SSDs and flash arrays return ``(members, stripe_sectors)``:
        their member :class:`~repro.storage.flash.FlashSSD` list and the
        stripe unit in sectors (``None`` for a standalone SSD).
        Collection and replay then run the members' fast paths inline
        (``repro.replay.qdepth._flash_loop``).  Every other device keeps
        this default ``None``: it is priced by :meth:`service_batch` or
        driven through :meth:`_service` request by request.
        """
        return None

    def service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray | None:
        """Vectorised service times for an in-order request stream.

        Implemented by the models the priced loops serve:
        :class:`~repro.storage.hdd.HDDModel` (without a write-back
        cache), :class:`~repro.storage.raid.Raid0` and
        :class:`~repro.storage.raid.Raid1` over members that price their
        own fragment streams, and :class:`ConstantLatencyDevice`.  Flash
        SSDs and flash arrays return ``None`` here and run the streaming
        flash loop instead (see :meth:`flash_layout`).

        Contract (the ``service_batch`` device-author contract):

        - Element ``i`` of the returned array is ``finish - start`` for
          request ``i`` when the stream is submitted in order with each
          request arriving at or after the previous request's ``finish``
          (the synchronous-replay precondition, under which the device
          is idle at every arrival).
        - The result must not depend on the actual arrival instants —
          only on the request order.  Devices whose latencies are not
          gap-invariant for this stream return ``None`` *without
          consuming any state*, and the caller falls back to the scalar
          :meth:`submit` path.
        - On success the call consumes the *order-dependent* simulator
          state the equivalent scalar submissions would (RNG draws,
          head position, mirror round-robin).  Timing state
          (busy-until stamps) is left unspecified, since the device
          never learned the arrival instants — so :meth:`reset` before
          calling, and reset again before mixing with :meth:`submit`.
        - Values must match the scalar path bit-for-bit: use the same
          elementwise IEEE-754 operations the scalar ``_service`` does.
        """
        if not self.supports_batch(ops, lbas, sizes):
            return None
        return self._service_batch(ops, lbas, sizes)

    def _service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Batch kernel; only called when :meth:`supports_batch` is true."""
        raise NotImplementedError


class ConstantLatencyDevice(StorageDevice):
    """A device that serves every request in a fixed time.

    Exists for tests and for isolating replayer logic from device
    modelling: one request at a time, FIFO, no parallelism.
    """

    def __init__(
        self,
        channel: InterfaceChannel,
        read_us: float = 100.0,
        write_us: float = 100.0,
    ) -> None:
        super().__init__(channel)
        if read_us < 0 or write_us < 0:
            raise ValueError("latencies must be non-negative")
        self.read_us = read_us
        self.write_us = write_us
        self._busy_until = 0.0

    @property
    def name(self) -> str:
        """Human-readable model name."""
        return f"const({self.read_us}/{self.write_us}us)"

    fifo_single_server = True

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        start = max(t_ready, self._busy_until)
        finish = start + (self.read_us if op is OpType.READ else self.write_us)
        self._busy_until = finish
        return start, finish

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        return True

    def _service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        return np.where(np.asarray(ops) == int(OpType.READ), self.read_us, self.write_us)

    def reset(self) -> None:
        super().reset()
        self._busy_until = 0.0
