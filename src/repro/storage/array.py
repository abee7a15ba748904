"""All-flash array: the paper's "NEW" evaluation node.

Section V builds the target system "by grouping four NVM Express SSDs"
reachable over "four PCIe 3.0 slots".  The array stripes request
extents across member SSDs at a fixed stripe width (RAID-0 style),
submits the fragments concurrently — each SSD sits on its own PCIe
link — and completes when the slowest fragment completes.

The array itself is a :class:`StorageDevice`, so the replayer drives it
exactly like a single disk; its ``channel`` models the host-side PCIe
fan-out (commands to different SSDs overlap, so the array-level
channel delay is the per-SSD delay, not the sum).
"""

from __future__ import annotations

import numpy as np

from ..trace.record import OpType
from .channel import PCIE3_X4, InterfaceChannel
from .device import StorageDevice
from .flash import FlashGeometry, FlashSSD

__all__ = ["FlashArray"]


class FlashArray(StorageDevice):
    """RAID-0 style group of :class:`FlashSSD` devices.

    Parameters
    ----------
    n_ssds:
        Member count (paper: 4).
    stripe_kb:
        Stripe unit; extents are chopped at stripe boundaries and each
        stripe routed to ``(stripe_index mod n_ssds)``.
    geometry:
        Per-SSD flash geometry (shared by all members).
    channel:
        Host link model per slot; defaults to PCIe 3.0 x4.
    """

    def __init__(
        self,
        n_ssds: int = 4,
        stripe_kb: int = 128,
        geometry: FlashGeometry | None = None,
        channel: InterfaceChannel = PCIE3_X4,
    ) -> None:
        if n_ssds <= 0:
            raise ValueError("need at least one SSD")
        if stripe_kb <= 0:
            raise ValueError("stripe unit must be positive")
        super().__init__(channel)
        self.n_ssds = n_ssds
        self.stripe_sectors = stripe_kb * 2  # 512-byte sectors per KB is 2
        self.ssds = [FlashSSD(geometry=geometry, channel=channel) for _ in range(n_ssds)]

    @property
    def name(self) -> str:
        """Human-readable model name."""
        return f"flash-array({self.n_ssds}x {self.ssds[0].name})"

    def fingerprint(self) -> str:
        return (
            f"{super().fingerprint()}|n={self.n_ssds}|stripe={self.stripe_sectors}"
            f"|member={self.ssds[0].fingerprint()}"
        )

    def reset(self) -> None:
        """Cold state for the array and every member SSD."""
        super().reset()
        for ssd in self.ssds:
            ssd.reset()

    # ------------------------------------------------------------------

    def _fragments(self, lba: int, size: int) -> list[tuple[int, int, int]]:
        """Split ``[lba, lba+size)`` at stripe boundaries.

        Returns ``(ssd_index, local_lba, local_size)`` triples.  The
        local LBA keeps the global address, which is harmless for a
        simulator (each SSD's page mapping is positional) and keeps
        sequential streams detectable per member.
        """
        out: list[tuple[int, int, int]] = []
        remaining = size
        cursor = lba
        while remaining > 0:
            stripe = cursor // self.stripe_sectors
            within = cursor - stripe * self.stripe_sectors
            chunk = min(remaining, self.stripe_sectors - within)
            out.append((stripe % self.n_ssds, cursor, chunk))
            cursor += chunk
            remaining -= chunk
        return out

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        # Inline fragment walk (same splitting as _fragments) — this is
        # the replay hot path, so no intermediate tuple list.
        ss = self.stripe_sectors
        n = self.n_ssds
        ssds = self.ssds
        finish = t_ready
        cursor = lba
        remaining = size
        while remaining > 0:
            stripe = cursor // ss
            chunk = ss - (cursor - stripe * ss)
            if chunk > remaining:
                chunk = remaining
            __, frag_finish = ssds[stripe % n]._service(op, cursor, chunk, t_ready)
            if frag_finish > finish:
                finish = frag_finish
            cursor += chunk
            remaining -= chunk
        return t_ready, finish

    def flash_layout(self) -> tuple[list[FlashSSD], int]:
        """Member SSDs and stripe unit (see ``StorageDevice.flash_layout``).

        Every member shares one geometry, so one relative-service memo
        prices all their fragments.
        """
        return self.ssds, self.stripe_sectors

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        """Batch-capable when members are, and no request revisits an SSD.

        Fragments of one extent land on distinct members as long as the
        extent spans at most ``n_ssds`` stripes; beyond that, same-SSD
        fragments queue behind each other and the array latency is no
        longer the max of independent fragment latencies.
        """
        if not self.ssds[0].supports_batch(ops, lbas, sizes):
            return False
        lbas = np.asarray(lbas, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        ss = self.stripe_sectors
        spans = (lbas + sizes - 1) // ss - lbas // ss + 1
        return bool(np.all(spans <= self.n_ssds))

    def _service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Price each request as its slowest stripe fragment, in order."""
        # Fragments keep the global LBA (see _fragments) and every
        # member shares one geometry, so one member's relative-service
        # memo prices every fragment; the array latency is the slowest
        # fragment, exactly as the scalar path computes it.
        g = self.ssds[0].geometry
        rel_entry = self.ssds[0]._rel_entry
        ss = self.stripe_sectors
        page_sectors = g.page_sectors
        out = np.empty(len(lbas), dtype=np.float64)
        ops_l = np.asarray(ops).tolist()
        lbas_l = np.asarray(lbas, dtype=np.int64).tolist()
        sizes_l = np.asarray(sizes, dtype=np.int64).tolist()
        read, write = OpType.READ, OpType.WRITE
        for i in range(len(out)):
            op = read if ops_l[i] == 0 else write
            cursor, remaining = lbas_l[i], sizes_l[i]
            svc = 0.0
            while remaining > 0:
                within = cursor % ss
                chunk = min(remaining, ss - within)
                first_page = cursor // page_sectors
                n_pages = (cursor + chunk - 1) // page_sectors - first_page + 1
                frag = rel_entry(op, first_page, n_pages, chunk).svc
                if frag > svc:
                    svc = frag
                cursor += chunk
                remaining -= chunk
            out[i] = svc
        return out
