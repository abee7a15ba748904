"""Multi-queue front-end: per-queue FIFO submission over a device.

NVMe hosts drive a device through multiple submission queues; commands
within one queue are fetched in order, while queues progress
independently.  :class:`MultiQueueDevice` models the host-visible half
of that: requests are assigned to ``n_queues`` submission queues round
robin, and a request may not reach the wrapped device before the
previous request *of its queue* has completed — the per-queue FIFO gate.
The wrapped device (typically a :class:`~repro.storage.flash.FlashSSD`
die array) still provides all cross-queue parallelism.

The gate yields the ordering invariant the fault property suite checks:
completions within one queue are monotone in submission order, even
when the wrapped device is reconfigured mid-trace by a
:class:`~repro.storage.faults.MidTraceSwitch` — which is why registry
``nvme_mq`` devices place the switch *inside* the queue front-end.
"""

from __future__ import annotations

import numpy as np

from ..trace.record import OpType
from .channel import InterfaceChannel
from .device import StorageDevice

__all__ = ["MultiQueueDevice"]


class MultiQueueDevice(StorageDevice):
    """``n_queues`` round-robin FIFO submission queues over ``inner``.

    Request ``i`` is assigned to queue ``i % n_queues`` and becomes
    ready for the wrapped device at
    ``max(t_ready, last completion of its queue)``.
    """

    fifo_single_server = False

    def __init__(
        self,
        inner: StorageDevice,
        n_queues: int = 8,
        channel: InterfaceChannel | None = None,
    ) -> None:
        if n_queues < 1:
            raise ValueError("a multi-queue device needs at least one queue")
        super().__init__(channel if channel is not None else inner.channel)
        self.inner = inner
        self.n_queues = int(n_queues)
        self._queue_busy = [0.0] * self.n_queues
        self._index = 0

    @property
    def name(self) -> str:
        """Human-readable model name."""
        return f"mq{self.n_queues}({self.inner.name})"

    def fingerprint(self) -> str:
        return f"{super().fingerprint()}|queues={self.n_queues}|inner={self.inner.fingerprint()}"

    def reset(self) -> None:
        """Cold state: wrapped device reset, all queues idle."""
        super().reset()
        self.inner.reset()
        self._queue_busy = [0.0] * self.n_queues
        self._index = 0

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        queue = self._index % self.n_queues
        self._index += 1
        gate = self._queue_busy[queue]
        t_eff = t_ready if t_ready >= gate else gate
        start, finish = self.inner._service(op, lba, size, t_eff)
        self._queue_busy[queue] = finish
        return start, finish

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        """Gap-invariant when the wrapped device is.

        Under the batch contract every request arrives after the
        previous request's finish, so every queue is idle at every
        arrival and the gate never engages — the stream prices exactly
        as the wrapped device's.
        """
        return self.inner.supports_batch(ops, lbas, sizes)

    def service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray | None:
        # Single-pass delegation; only the queue-assignment order state
        # advances (timing state is unspecified after a batch call).
        svc = self.inner.service_batch(ops, lbas, sizes)
        if svc is not None:
            self._index += len(np.asarray(ops))
        return svc

    def _expected_service(self, op: OpType, size: int, sequential: bool) -> float:
        """Wrapped device's analytic mean (queues add no service time)."""
        return self.inner.service_time_us(op, size, sequential)
