"""Evaluation-node factories: the paper's OLD and NEW systems.

Section V's testbed is reproduced as two simulator configurations:

- the **OLD node** — the decade-old HDD server the public traces were
  collected on (7200 rpm disk behind SATA II);
- the **NEW node** — the all-flash array target ("four NVM Express
  SSDs ... 18 channels, 36 dies, and 72 planes" each, behind PCIe 3.0).

Every experiment builds devices through these factories so the whole
evaluation shares one hardware definition: the presets of
:data:`repro.campaign.devices.DEVICE_PRESETS`, which campaign specs
name too.
"""

from __future__ import annotations

from ..campaign.devices import build_device
from ..storage import FlashArray, HDDModel

__all__ = ["old_node", "new_node", "calibration_disk"]


def old_node(seed: int = 42) -> HDDModel:
    """The HDD-based collection node (OLD).

    ``seed`` controls the rotational-phase RNG; experiments that build
    several OLD traces use distinct seeds for independence.
    """
    return build_device("old-node", {"seed": seed})


def new_node() -> FlashArray:
    """The all-flash target node (NEW): 4 SSDs, paper geometry."""
    return build_device("new-node")


def calibration_disk(seed: int = 7) -> HDDModel:
    """The enterprise disk used for the T_movd calibration (Figure 7).

    The paper replays FIU workloads on a WD Blue class drive; a
    slightly newer geometry (faster media rate) than the OLD node.
    """
    return build_device("calibration-disk", {"seed": seed})
