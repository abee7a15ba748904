"""RAID layer over member devices.

"In MSRC, all workloads contain specific device-level information such
as the type of RAID" (Section V) — the Cambridge volumes sat on RAID
groups, so a faithful OLD node for those traces is a disk array, not a
single spindle.  Two classic levels are modelled:

- :class:`Raid0` — striping; an extent is chopped at stripe boundaries
  and fragments are serviced concurrently by their members;
- :class:`Raid1` — mirroring; reads alternate round-robin over the
  members, writes must land on every member.

Both are :class:`~repro.storage.device.StorageDevice` implementations,
so traces can be collected on them and reconstructions can target them
like any other device.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..trace.record import OpType
from .channel import InterfaceChannel
from .device import StorageDevice

__all__ = ["Raid0", "Raid1"]


def _scatter_max(
    out: np.ndarray, member_svcs: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Combine per-member fragment services into per-request maxima."""
    for request_indices, svc in member_svcs:
        if len(request_indices):
            np.maximum.at(out, np.asarray(request_indices, dtype=np.intp), svc)
    return out


def _mirror_streams(
    ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray, n_members: int, counter: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per-member ``(request_idx, ops, lbas, sizes)`` mirror substreams.

    Read ``r`` (in stream order) lands on member
    ``(counter + r) % n_members`` — the strict-alternation balancer as
    a cumulative count — and writes broadcast to every member, all
    selected with boolean masks that preserve request order.
    """
    ops_arr = np.asarray(ops, dtype=np.int8)
    lbas = np.asarray(lbas, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    idx = np.arange(len(lbas), dtype=np.int64)
    is_read = ops_arr == int(OpType.READ)
    chosen = (counter + np.cumsum(is_read) - 1) % n_members
    streams = []
    for m in range(n_members):
        sel = ~is_read | (chosen == m)
        streams.append((idx[sel], ops_arr[sel], lbas[sel], sizes[sel]))
    return streams


class _RaidBase(StorageDevice):
    """Shared plumbing: member management and reset."""

    def __init__(self, members: Sequence[StorageDevice], channel: InterfaceChannel) -> None:
        if not members:
            raise ValueError("a RAID group needs at least one member")
        super().__init__(channel)
        self.members = list(members)

    def reset(self) -> None:
        super().reset()
        for member in self.members:
            member.reset()

    def fingerprint(self) -> str:
        stripe = getattr(self, "stripe_sectors", None)
        members = ";".join(member.fingerprint() for member in self.members)
        return f"{super().fingerprint()}|stripe={stripe}|members=[{members}]"


class Raid0(_RaidBase):
    """Striped array (no redundancy).

    Parameters
    ----------
    members:
        Member devices (commonly :class:`~repro.storage.hdd.HDDModel`).
    stripe_kb:
        Stripe unit; stripe ``i`` lives on member ``i mod n``.
    channel:
        Host-side link of the array controller; defaults to the first
        member's channel model.
    """

    def __init__(
        self,
        members: Sequence[StorageDevice],
        stripe_kb: int = 64,
        channel: InterfaceChannel | None = None,
    ) -> None:
        if stripe_kb <= 0:
            raise ValueError("stripe unit must be positive")
        if not members:
            raise ValueError("a RAID group needs at least one member")
        super().__init__(members, channel if channel is not None else members[0].channel)
        self.stripe_sectors = stripe_kb * 2

    @property
    def name(self) -> str:
        """Human-readable model name."""
        return f"raid0({len(self.members)}x {self.members[0].name})"

    def _fragments(self, lba: int, size: int) -> list[tuple[int, int, int]]:
        """``(member_index, local_lba, local_size)`` per stripe chunk."""
        out = []
        cursor, remaining = lba, size
        n = len(self.members)
        while remaining > 0:
            stripe = cursor // self.stripe_sectors
            within = cursor - stripe * self.stripe_sectors
            chunk = min(remaining, self.stripe_sectors - within)
            # Local address: collapse the stripe round-robin so member
            # address spaces stay dense (and sequential streams remain
            # sequential per member).
            local = (stripe // n) * self.stripe_sectors + within
            out.append((stripe % n, local, chunk))
            cursor += chunk
            remaining -= chunk
        return out

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        finish = t_ready
        for member_index, local_lba, local_size in self._fragments(lba, size):
            __, frag_finish = self.members[member_index]._service(op, local_lba, local_size, t_ready)
            finish = max(finish, frag_finish)
        return t_ready, finish

    def _member_streams(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] | None:
        """Per-member ``(request_idx, ops, lbas, sizes)`` fragment streams.

        Stripe fan-out as index arithmetic (one pass per member): the
        same fragments :meth:`_fragments` yields, in request order, with
        the stripe round-robin collapsed into dense member addresses.
        ``None`` when some extent spans more stripes than there are
        members — its same-member fragments would queue behind each
        other, breaking the max-of-independent-fragments combination.
        """
        n_members = len(self.members)
        ss = self.stripe_sectors
        ops_arr = np.asarray(ops, dtype=np.int8)
        lbas = np.asarray(lbas, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        n = len(lbas)
        stripe0 = lbas // ss
        spans = (lbas + sizes - 1) // ss - stripe0 + 1
        if n and int(spans.max()) > n_members:
            return None
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(spans, out=offsets[1:])
        total = int(offsets[-1])
        req = np.repeat(np.arange(n, dtype=np.int64), spans)
        k = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], spans)
        frag_stripe = stripe0[req] + k
        frag_start = np.maximum(lbas[req], frag_stripe * ss)
        frag_end = np.minimum((lbas + sizes)[req], (frag_stripe + 1) * ss)
        within = frag_start - frag_stripe * ss
        local = (frag_stripe // n_members) * ss + within
        member = frag_stripe % n_members
        ops_f = ops_arr[req]
        frag_size = frag_end - frag_start
        streams = []
        for m in range(n_members):
            sel = member == m
            streams.append((req[sel], ops_f[sel], local[sel], frag_size[sel]))
        return streams

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        streams = self._member_streams(ops, lbas, sizes)
        return streams is not None and all(
            member.supports_batch(f_ops, f_lbas, f_sizes)
            for member, (__, f_ops, f_lbas, f_sizes) in zip(self.members, streams)
        )

    def service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray | None:
        # Overrides the gate-then-price split so the fragment streams
        # are computed once, not once per phase.
        streams = self._member_streams(ops, lbas, sizes)
        if streams is None or not all(
            member.supports_batch(f_ops, f_lbas, f_sizes)
            for member, (__, f_ops, f_lbas, f_sizes) in zip(self.members, streams)
        ):
            return None
        member_svcs = [
            (idx, member._service_batch(f_ops, f_lbas, f_sizes))
            for member, (idx, f_ops, f_lbas, f_sizes) in zip(self.members, streams)
        ]
        return _scatter_max(np.zeros(len(ops), dtype=np.float64), member_svcs)


class Raid1(_RaidBase):
    """Mirrored pair (or wider mirror set).

    Reads are dispatched to a single member by strict alternation (the
    common round-robin balancer); writes are broadcast and complete when
    the slowest member finishes.
    """

    def __init__(
        self,
        members: Sequence[StorageDevice],
        channel: InterfaceChannel | None = None,
    ) -> None:
        if len(members) < 2:
            raise ValueError("a mirror needs at least two members")
        super().__init__(members, channel if channel is not None else members[0].channel)
        self._read_counter = 0

    @property
    def name(self) -> str:
        """Human-readable model name."""
        return f"raid1({len(self.members)}x {self.members[0].name})"

    def reset(self) -> None:
        super().reset()
        self._read_counter = 0

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        if op is OpType.READ:
            member = self._read_counter % len(self.members)
            self._read_counter += 1
            __, finish = self.members[member]._service(op, lba, size, t_ready)
            return t_ready, finish
        finish = t_ready
        for member in self.members:
            __, member_finish = member._service(op, lba, size, t_ready)
            finish = max(finish, member_finish)
        return t_ready, finish

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        streams = _mirror_streams(ops, lbas, sizes, len(self.members), self._read_counter)
        return all(
            member.supports_batch(f_ops, f_lbas, f_sizes)
            for member, (__, f_ops, f_lbas, f_sizes) in zip(self.members, streams)
        )

    def service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray | None:
        # Single-pass override (see Raid0.service_batch); the read
        # counter only advances once the whole stream is accepted.
        streams = _mirror_streams(ops, lbas, sizes, len(self.members), self._read_counter)
        if not all(
            member.supports_batch(f_ops, f_lbas, f_sizes)
            for member, (__, f_ops, f_lbas, f_sizes) in zip(self.members, streams)
        ):
            return None
        self._read_counter += int(np.sum(np.asarray(ops) == int(OpType.READ)))
        member_svcs = [
            (idx, member._service_batch(f_ops, f_lbas, f_sizes))
            for member, (idx, f_ops, f_lbas, f_sizes) in zip(self.members, streams)
        ]
        return _scatter_max(np.zeros(len(ops), dtype=np.float64), member_svcs)
