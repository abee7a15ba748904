"""Storage interface (channel) delay model — :math:`T_{cdel}`.

The paper decomposes I/O subsystem latency into the channel delay
:math:`T_{cdel}` (command + data movement over the host interface) and
the device time :math:`T_{sdev}`.  Figure 7b shows :math:`T_{cdel}` is
a few to a few tens of microseconds, differs somewhat between reads and
writes, and barely differs between sequential and random access — so
the model here is: a per-operation fixed overhead plus payload transfer
at the link bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..trace.record import SECTOR_BYTES, OpType

__all__ = ["InterfaceChannel", "SATA_300", "SATA_600", "PCIE3_X4"]


@dataclass(frozen=True, slots=True)
class InterfaceChannel:
    """Host interface model.

    Attributes
    ----------
    name:
        Human-readable link name (``"SATA-600"``, ``"PCIe3 x4"``...).
    bandwidth_mb_s:
        Effective payload bandwidth in MB/s (1 MB = 1e6 bytes).
    read_overhead_us:
        Fixed per-command overhead for reads (protocol + DMA setup).
    write_overhead_us:
        Fixed per-command overhead for writes.
    """

    name: str
    bandwidth_mb_s: float
    read_overhead_us: float
    write_overhead_us: float

    def __post_init__(self) -> None:
        if self.bandwidth_mb_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.read_overhead_us < 0 or self.write_overhead_us < 0:
            raise ValueError("overheads must be non-negative")

    def transfer_us(self, size_sectors: int) -> float:
        """Pure payload transfer time for ``size_sectors`` sectors."""
        if size_sectors < 0:
            raise ValueError("size must be non-negative")
        return size_sectors * SECTOR_BYTES / self.bandwidth_mb_s

    def delay_us(self, op: OpType, size_sectors: int) -> float:
        """:math:`T_{cdel}` for one request: overhead + payload transfer."""
        overhead = self.read_overhead_us if op is OpType.READ else self.write_overhead_us
        return overhead + self.transfer_us(size_sectors)

    def delay_batch_us(self, ops: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Vectorised :math:`T_{cdel}` for a whole request stream.

        Element ``i`` equals ``delay_us(ops[i], sizes[i])`` bit-for-bit:
        the same IEEE-754 operations are applied elementwise, so batch
        and scalar replay paths agree exactly.  Sizes become float64
        before the byte count is formed: scaling by a power of two is
        exact there, where an int64 product wraps past ``2**63`` bytes.
        """
        ops = np.asarray(ops)
        sizes = np.asarray(sizes, dtype=np.int64)
        if np.any(sizes < 0):
            raise ValueError("size must be non-negative")
        overhead = np.where(
            ops == int(OpType.READ), self.read_overhead_us, self.write_overhead_us
        )
        return overhead + sizes.astype(np.float64) * SECTOR_BYTES / self.bandwidth_mb_s


#: SATA II (3 Gbit/s): the decade-old server interface of the OLD nodes.
SATA_300 = InterfaceChannel(
    name="SATA-300", bandwidth_mb_s=250.0, read_overhead_us=12.0, write_overhead_us=14.0
)

#: SATA III (6 Gbit/s): enterprise disks like the WD Blue calibration drive.
SATA_600 = InterfaceChannel(
    name="SATA-600", bandwidth_mb_s=520.0, read_overhead_us=9.0, write_overhead_us=11.0
)

#: PCI Express 3.0 x4: one NVMe SSD slot of the paper's all-flash array.
PCIE3_X4 = InterfaceChannel(
    name="PCIe3 x4", bandwidth_mb_s=3200.0, read_overhead_us=3.0, write_overhead_us=4.0
)
