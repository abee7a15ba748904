"""Storage hardware substrate: channels, HDD, flash SSD, all-flash array.

The paper's hardware half replays traces on real devices; here the
devices are simulators with the same observable surface (submit a block
request, get ack and completion stamps back).  Besides the three device
models there are RAID-0/RAID-1 over arbitrary members.
"""

from .array import FlashArray
from .channel import PCIE3_X4, SATA_300, SATA_600, InterfaceChannel
from .device import Completion, ConstantLatencyDevice, StorageDevice
from .flash import FlashGeometry, FlashSSD
from .hdd import HDDGeometry, HDDModel
from .raid import Raid0, Raid1

__all__ = [
    "FlashArray",
    "PCIE3_X4",
    "SATA_300",
    "SATA_600",
    "InterfaceChannel",
    "Completion",
    "ConstantLatencyDevice",
    "StorageDevice",
    "FlashGeometry",
    "FlashSSD",
    "HDDGeometry",
    "HDDModel",
    "Raid0",
    "Raid1",
]
