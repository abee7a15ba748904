"""Bounded chunk queue with watermark hysteresis: lossless backpressure.

The daemon's ingest thread and pipeline thread meet at this queue.  It
is deliberately *not* ``queue.Queue``: the gate uses **hysteresis**.
A ``put`` that finds ``high_watermark`` items queued closes the gate
and waits, and the gate reopens only once the consumer has drained the
queue to ``low_watermark = max(1, high // 2)``.  Filling the queue does
not close the gate by itself: with ``high_watermark=4``, four puts and
one ``get`` leave three items queued and the gate open.  A producer
racing a slow consumer therefore settles into calm batches instead of
thrashing one-in-one-out at the brim.  While the gate is closed the
producer waits: nothing is dropped, and the file being tailed simply
waits on disk.

Terminal markers (end-of-stream, stop) bypass the gate via
``force=True`` — control flow must never be backpressured behind data.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

__all__ = ["BoundedChunkQueue"]


class BoundedChunkQueue:
    """Thread-safe bounded queue with high/low watermark gating."""

    def __init__(self, high_watermark: int = 8) -> None:
        if high_watermark < 1:
            raise ValueError("high_watermark must be at least 1")
        self.high_watermark = high_watermark
        self.low_watermark = max(1, high_watermark // 2)
        self._items: deque[Any] = deque()
        self._cond = threading.Condition()
        self._gated = False
        self.n_put = 0
        self.max_depth = 0

    def _update_gate_locked(self) -> None:
        if len(self._items) >= self.high_watermark:
            self._gated = True
        elif len(self._items) <= self.low_watermark:
            self._gated = False

    def put(
        self,
        item: Any,
        force: bool = False,
        should_abort: Callable[[], bool] | None = None,
        poll_s: float = 0.05,
    ) -> bool:
        """Enqueue ``item``; ``False`` means the wait was aborted.

        The call waits while the gate is closed, checking
        ``should_abort`` between waits so a drain request can pull the
        producer out mid-block.  ``force`` ignores the gate entirely
        (terminal markers only).
        """
        with self._cond:
            while True:
                self._update_gate_locked()
                if force or not self._gated:
                    self._items.append(item)
                    self.n_put += 1
                    self.max_depth = max(self.max_depth, len(self._items))
                    self._cond.notify_all()
                    return True
                self._cond.wait(poll_s)
                if should_abort is not None and should_abort():
                    return False

    def get(self, timeout: float | None = None) -> Any:
        """Dequeue the oldest item, or ``None`` on timeout."""
        with self._cond:
            if not self._items:
                self._cond.wait(timeout)
            if not self._items:
                return None
            item = self._items.popleft()
            self._update_gate_locked()
            self._cond.notify_all()
            return item

    def depth(self) -> int:
        """Number of items currently queued."""
        with self._cond:
            return len(self._items)

    def stats(self) -> dict[str, Any]:
        """Counters for the status page.

        ``gated`` is the gate the next ``put`` would find.  It is worked
        out without touching the hysteresis state, so reading the stats
        never changes which puts block.
        """
        with self._cond:
            depth = len(self._items)
            return {
                "depth": depth,
                "high_watermark": self.high_watermark,
                "low_watermark": self.low_watermark,
                "gated": depth >= self.high_watermark
                or (self._gated and depth > self.low_watermark),
                "n_put": self.n_put,
                "max_depth": self.max_depth,
            }
