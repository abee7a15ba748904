"""Configuration of the TraceTracker reconstruction pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = ["TraceTrackerConfig"]


@dataclass(frozen=True, slots=True)
class TraceTrackerConfig:
    """End-to-end pipeline options.

    Attributes
    ----------
    postprocess:
        Run the asynchronous-mode revival after replay.  Disabling this
        yields the paper's ``Dynamic`` comparison method.
    min_async_gap_us:
        Floor for gaps tightened by post-processing (a submission still
        needs a sliver of host time).  A constant, not an option.
    """

    postprocess: bool = True
    min_async_gap_us: ClassVar[float] = 1.0
