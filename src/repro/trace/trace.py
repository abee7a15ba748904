"""Columnar block-trace container.

A :class:`BlockTrace` stores a whole trace as parallel NumPy arrays, which
is what makes reconstructing the paper's 577 traces tractable: the
inference model's per-group CDF analysis and the replayer's timestamp
arithmetic are all vectorised column operations.

The container is deliberately append-free: traces are built once (by a
parser, a generator, or a collector) from complete columns.  Incremental
construction goes through :class:`TraceBuilder`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Any

import numpy as np

from .record import SECTOR_BYTES, IORecord, OpType

__all__ = ["BlockTrace", "TraceBuilder"]


class BlockTrace:
    """An ordered sequence of block I/O requests in columnar form.

    Parameters
    ----------
    timestamps:
        Submit times in microseconds, non-decreasing.
    lbas:
        Logical block addresses (sectors).
    sizes:
        Request sizes (sectors), all positive.
    ops:
        Operation codes matching :class:`~repro.trace.record.OpType`.
    issues, completes:
        Optional per-request issue/completion stamps.  Either both are
        given or neither; a trace carrying them is ":math:`T_{sdev}`
        known" in the paper's terminology.
    syncs:
        Optional ground-truth synchronous flags (synthetic traces only).
    name:
        Workload name, e.g. ``"MSNFS"`` or ``"ikki"``.
    metadata:
        Free-form provenance dictionary (category, collection device,
        generator parameters, reconstruction method, ...).
    """

    __slots__ = (
        "timestamps",
        "lbas",
        "sizes",
        "ops",
        "issues",
        "completes",
        "syncs",
        "name",
        "metadata",
        "content_fingerprint",
    )

    def __init__(
        self,
        timestamps: np.ndarray | Sequence[float],
        lbas: np.ndarray | Sequence[int],
        sizes: np.ndarray | Sequence[int],
        ops: np.ndarray | Sequence[int],
        issues: np.ndarray | Sequence[float] | None = None,
        completes: np.ndarray | Sequence[float] | None = None,
        syncs: np.ndarray | Sequence[bool] | None = None,
        name: str = "",
        metadata: dict[str, Any] | None = None,
    ) -> None:
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        self.lbas = np.asarray(lbas, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.ops = np.asarray(ops, dtype=np.int8)
        n = len(self.timestamps)
        for label, column in (("lbas", self.lbas), ("sizes", self.sizes), ("ops", self.ops)):
            if len(column) != n:
                raise ValueError(f"column {label!r} has length {len(column)}, expected {n}")
        if (issues is None) != (completes is None):
            raise ValueError("issues and completes must be given together")
        self.issues = None if issues is None else np.asarray(issues, dtype=np.float64)
        self.completes = None if completes is None else np.asarray(completes, dtype=np.float64)
        for label, column in (("issues", self.issues), ("completes", self.completes)):
            if column is not None and len(column) != n:
                raise ValueError(f"column {label!r} has length {len(column)}, expected {n}")
        self.syncs = None if syncs is None else np.asarray(syncs, dtype=bool)
        if self.syncs is not None and len(self.syncs) != n:
            raise ValueError(f"column 'syncs' has length {len(self.syncs)}, expected {n}")
        if n and np.any(self.sizes <= 0):
            raise ValueError("all request sizes must be positive")
        if n and np.any(np.diff(self.timestamps) < 0):
            raise ValueError("timestamps must be non-decreasing; sort before construction")
        self.name = name
        self.metadata = dict(metadata or {})
        # Optional provenance stamp set *after* construction by the
        # trace store (:meth:`repro.trace.io.cache.TraceStore.
        # get_or_build`): a content key that uniquely determines every
        # column.  Deliberately not a constructor parameter and not
        # copied by ``select``/``shifted``/``with_timestamps`` — any
        # derived trace has different columns, so it must start
        # unstamped.  Consumers (the inference memo) use it to skip
        # re-hashing multi-million-row columns.
        self.content_fingerprint: str | None = None

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    def __iter__(self) -> Iterator[IORecord]:
        for i in range(len(self)):
            yield self.record(i)

    def __getitem__(self, index: int | slice | np.ndarray) -> "IORecord | BlockTrace":
        if isinstance(index, (int, np.integer)):
            return self.record(int(index))
        return self.select(index)

    def __repr__(self) -> str:
        label = self.name or "<unnamed>"
        return f"BlockTrace({label}, n={len(self)}, span={self.duration / 1e6:.3f}s)"

    def record(self, i: int) -> IORecord:
        """Materialise request ``i`` as an :class:`IORecord`."""
        return IORecord(
            timestamp=float(self.timestamps[i]),
            lba=int(self.lbas[i]),
            size=int(self.sizes[i]),
            op=OpType(int(self.ops[i])),
            issue=None if self.issues is None else float(self.issues[i]),
            complete=None if self.completes is None else float(self.completes[i]),
            sync=None if self.syncs is None else bool(self.syncs[i]),
        )

    def select(self, index: slice | np.ndarray) -> "BlockTrace":
        """Sub-trace by slice, boolean mask, or integer index array.

        The selection must preserve timestamp order (any monotone
        selection of an ordered trace does).
        """
        return BlockTrace(
            timestamps=self.timestamps[index],
            lbas=self.lbas[index],
            sizes=self.sizes[index],
            ops=self.ops[index],
            issues=None if self.issues is None else self.issues[index],
            completes=None if self.completes is None else self.completes[index],
            syncs=None if self.syncs is None else self.syncs[index],
            name=self.name,
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Trace span in microseconds (0 for traces with < 2 requests)."""
        if len(self) < 2:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def has_device_times(self) -> bool:
        """``True`` when issue/completion stamps are present.

        The paper calls such traces ":math:`T_{sdev}` known"; they allow
        skipping the device-time inference phase entirely.
        """
        return self.issues is not None and self.completes is not None

    @property
    def has_sync_flags(self) -> bool:
        """``True`` when ground-truth sync/async flags are present."""
        return self.syncs is not None

    def inter_arrival_times(self) -> np.ndarray:
        """:math:`T_{intt}` between consecutive submissions.

        Returns an array of length ``len(trace) - 1``; element ``i`` is
        the gap between request ``i`` and request ``i + 1``.
        """
        return np.diff(self.timestamps)

    def device_times(self) -> np.ndarray:
        """Measured :math:`T_{sdev}` per request (requires device stamps)."""
        if not self.has_device_times:
            raise ValueError("trace has no issue/completion stamps")
        assert self.completes is not None and self.issues is not None
        return self.completes - self.issues

    def read_mask(self) -> np.ndarray:
        """Boolean mask of read requests."""
        return self.ops == int(OpType.READ)

    def write_mask(self) -> np.ndarray:
        """Boolean mask of write requests."""
        return self.ops == int(OpType.WRITE)

    def sequential_mask(self) -> np.ndarray:
        """Boolean mask marking requests that continue the previous one.

        Request ``i`` is sequential when ``lba[i] == lba[i-1] + size[i-1]``.
        The first request of a trace is never sequential — there is no
        predecessor to continue.  This matches the grouping criterion the
        inference model uses (Section III).
        """
        mask = np.zeros(len(self), dtype=bool)
        if len(self) > 1:
            mask[1:] = self.lbas[1:] == (self.lbas[:-1] + self.sizes[:-1])
        return mask

    def total_bytes(self) -> int:
        """Sum of request payloads in bytes."""
        return int(self.sizes.sum()) * SECTOR_BYTES

    def mean_request_bytes(self) -> float:
        """Average request size in bytes (0 for an empty trace)."""
        if len(self) == 0:
            return 0.0
        return float(self.sizes.mean()) * SECTOR_BYTES

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------

    def shifted(self, delta: float) -> "BlockTrace":
        """Copy with every timestamp moved by ``delta`` microseconds."""
        return BlockTrace(
            timestamps=self.timestamps + delta,
            lbas=self.lbas,
            sizes=self.sizes,
            ops=self.ops,
            issues=None if self.issues is None else self.issues + delta,
            completes=None if self.completes is None else self.completes + delta,
            syncs=self.syncs,
            name=self.name,
            metadata=dict(self.metadata),
        )

    def rebased(self) -> "BlockTrace":
        """Copy whose first submission happens at time 0."""
        if len(self) == 0:
            return self.select(slice(None))
        return self.shifted(-float(self.timestamps[0]))

    def with_timestamps(self, timestamps: np.ndarray) -> "BlockTrace":
        """Copy with replaced submit times (same requests, new schedule).

        Used by every reconstruction method: the request pattern is
        preserved while the timing is re-mastered.  Issue/completion
        stamps are dropped because they describe the *old* device.
        """
        return BlockTrace(
            timestamps=np.asarray(timestamps, dtype=np.float64),
            lbas=self.lbas,
            sizes=self.sizes,
            ops=self.ops,
            syncs=self.syncs,
            name=self.name,
            metadata=dict(self.metadata),
        )

    def concat(self, other: "BlockTrace") -> "BlockTrace":
        """Concatenate ``other`` after this trace.

        ``other``'s first timestamp must not precede this trace's last.
        Device-time and sync columns survive only when both sides have
        them.
        """
        return BlockTrace.concat_all([self, other])

    @staticmethod
    def concat_all(pieces: "Sequence[BlockTrace]") -> "BlockTrace":
        """Concatenate time-ordered pieces in one pass.

        Equivalent to folding :meth:`concat` pairwise, but each column
        is assembled with a single ``np.concatenate`` — linear in the
        total length instead of quadratic, which matters when a
        streaming reader delivers a large trace as many chunks.
        Optional columns survive only when *every* piece carries them;
        name/metadata come from the first piece.
        """
        if not pieces:
            raise ValueError("nothing to concatenate")
        if len(pieces) == 1:
            return pieces[0].select(slice(None))
        for earlier, later in zip(pieces, pieces[1:]):
            if len(earlier) and len(later) and later.timestamps[0] < earlier.timestamps[-1]:
                raise ValueError("traces overlap in time; shift the later trace first")
        all_dev = all(p.has_device_times for p in pieces)
        all_sync = all(p.has_sync_flags for p in pieces)
        first = pieces[0]
        return BlockTrace(
            timestamps=np.concatenate([p.timestamps for p in pieces]),
            lbas=np.concatenate([p.lbas for p in pieces]),
            sizes=np.concatenate([p.sizes for p in pieces]),
            ops=np.concatenate([p.ops for p in pieces]),
            issues=np.concatenate([p.issues for p in pieces]) if all_dev else None,
            completes=np.concatenate([p.completes for p in pieces]) if all_dev else None,
            syncs=np.concatenate([p.syncs for p in pieces]) if all_sync else None,
            name=first.name,
            metadata=dict(first.metadata),
        )


class TraceBuilder:
    """Incremental trace construction with O(1) amortised appends.

    Collectors (the simulated ``blktrace``) and parsers append rows one
    at a time; :meth:`build` produces the immutable columnar trace.
    """

    def __init__(self, name: str = "", metadata: dict[str, Any] | None = None) -> None:
        self._timestamps: list[float] = []
        self._lbas: list[int] = []
        self._sizes: list[int] = []
        self._ops: list[int] = []
        self._issues: list[float] = []
        self._completes: list[float] = []
        self._syncs: list[bool] = []
        self._name = name
        self._metadata = dict(metadata or {})

    def __len__(self) -> int:
        return len(self._timestamps)

    def append(
        self,
        timestamp: float,
        lba: int,
        size: int,
        op: OpType | int,
        issue: float | None = None,
        complete: float | None = None,
        sync: bool | None = None,
    ) -> None:
        """Append one request.

        Device stamps and sync flags must be used consistently: either
        every appended row carries them or none does.
        """
        if self._timestamps and (issue is None) != (not self._issues):
            raise ValueError("inconsistent use of issue/completion stamps")
        if self._timestamps and (sync is None) != (not self._syncs):
            raise ValueError("inconsistent use of sync flags")
        self._timestamps.append(float(timestamp))
        self._lbas.append(int(lba))
        self._sizes.append(int(size))
        self._ops.append(int(op))
        if issue is not None:
            if complete is None:
                raise ValueError("issue stamp given without completion stamp")
            self._issues.append(float(issue))
            self._completes.append(float(complete))
        if sync is not None:
            self._syncs.append(bool(sync))

    def append_record(self, record: IORecord) -> None:
        """Append an :class:`IORecord` row."""
        self.append(
            record.timestamp,
            record.lba,
            record.size,
            record.op,
            issue=record.issue,
            complete=record.complete,
            sync=record.sync,
        )

    def build(self, sort: bool = False) -> BlockTrace:
        """Produce the immutable trace.

        With ``sort=True`` rows are stably ordered by timestamp first,
        which parsers need because some raw traces interleave hosts.
        """
        ts = np.asarray(self._timestamps, dtype=np.float64)
        order: np.ndarray | slice
        if sort and len(ts):
            order = np.argsort(ts, kind="stable")
        else:
            order = slice(None)
        has_dev = bool(self._issues)
        has_sync = bool(self._syncs)
        return BlockTrace(
            timestamps=ts[order],
            lbas=np.asarray(self._lbas, dtype=np.int64)[order],
            sizes=np.asarray(self._sizes, dtype=np.int64)[order],
            ops=np.asarray(self._ops, dtype=np.int8)[order],
            issues=np.asarray(self._issues, dtype=np.float64)[order] if has_dev else None,
            completes=np.asarray(self._completes, dtype=np.float64)[order] if has_dev else None,
            syncs=np.asarray(self._syncs, dtype=bool)[order] if has_sync else None,
            name=self._name,
            metadata=self._metadata,
        )
