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

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        # Chop the extent at stripe boundaries; stripe ``k`` lives on
        # SSD ``k mod n_ssds``.  A fragment keeps its global LBA, which
        # is harmless for a simulator (each SSD's page mapping is
        # positional) and keeps sequential streams sequential per member.
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
