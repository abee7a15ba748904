"""Trace-to-trace timing comparisons (Figures 1, 3, 12-15).

All reconstruction methods preserve the request pattern, so two traces
of the same workload can be compared gap-by-gap: the ``i``-th
inter-arrival time of the reconstruction against the ``i``-th of the
reference (the trace actually collected on the target system).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.distribution import EmpiricalCDF
from ..trace.trace import BlockTrace

__all__ = [
    "InttBreakdown",
    "intt_breakdown",
    "intt_gap_stats",
    "intt_cdf",
    "ks_distance",
]


@dataclass(frozen=True, slots=True)
class InttBreakdown:
    """Longer/equal/shorter split of reconstructed vs reference gaps.

    ``equal`` means within the relative tolerance used at construction
    (the paper's Figure 3b has an explicit 'equal' band).
    """

    longer: float
    equal: float
    shorter: float

    def __post_init__(self) -> None:
        total = self.longer + self.equal + self.shorter
        if abs(total - 1.0) > 1e-9 and total != 0.0:
            raise ValueError(f"fractions must sum to 1, got {total}")

    def as_percentages(self) -> dict[str, float]:
        """Rounded percentage view, like the figure's bar labels."""
        return {
            "longer": round(self.longer * 100, 1),
            "equal": round(self.equal * 100, 1),
            "shorter": round(self.shorter * 100, 1),
        }


def _aligned_gaps(a: BlockTrace, b: BlockTrace) -> tuple[np.ndarray, np.ndarray]:
    """Gap arrays of two same-pattern traces, length-checked."""
    if len(a) != len(b):
        raise ValueError(f"traces differ in length: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least two requests to compare gaps")
    return a.inter_arrival_times(), b.inter_arrival_times()


def intt_breakdown(
    reconstructed: BlockTrace,
    reference: BlockTrace,
    rel_tolerance: float = 0.05,
    abs_tolerance_us: float = 2.0,
) -> InttBreakdown:
    """Classify every reconstructed gap against the reference gap.

    A gap pair is *equal* when it differs by less than
    ``rel_tolerance`` of the reference gap or by less than
    ``abs_tolerance_us`` absolute (whichever is larger) — microsecond
    jitter on a microsecond gap should not count as a miss.
    """
    rec, ref = _aligned_gaps(reconstructed, reference)
    tolerance = np.maximum(np.abs(ref) * rel_tolerance, abs_tolerance_us)
    diff = rec - ref
    longer = diff > tolerance
    shorter = diff < -tolerance
    equal = ~(longer | shorter)
    n = len(diff)
    return InttBreakdown(
        longer=float(longer.sum()) / n,
        equal=float(equal.sum()) / n,
        shorter=float(shorter.sum()) / n,
    )


def intt_gap_stats(a: BlockTrace, b: BlockTrace) -> dict[str, float]:
    """Mean/median/max absolute gap difference between two traces (µs).

    This is the quantity Figures 13 and 14 plot per workload.
    """
    ga, gb = _aligned_gaps(a, b)
    diff = np.abs(ga - gb)
    return {
        "mean_us": float(diff.mean()),
        "median_us": float(np.median(diff)),
        "max_us": float(diff.max()),
        "mean_signed_us": float((ga - gb).mean()),
    }


def intt_cdf(trace: BlockTrace, clip_zero_to_us: float = 1e-2) -> EmpiricalCDF:
    """Empirical CDF of a trace's inter-arrival times.

    Zero/negative gaps (possible after aggressive post-processing) are
    clamped to a tiny positive value so log-axis analyses stay valid.
    """
    gaps = trace.inter_arrival_times()
    return EmpiricalCDF(np.maximum(gaps, clip_zero_to_us))


def ks_distance(a: BlockTrace, b: BlockTrace) -> float:
    """Kolmogorov–Smirnov distance between two traces' gap CDFs.

    Scale-free summary of "how closely does this reconstruction's
    timing distribution hug the target's" — the visual claim of
    Figures 1 and 12 reduced to one number.
    """
    cdf_a = intt_cdf(a)
    cdf_b = intt_cdf(b)
    support = np.unique(np.concatenate([cdf_a.samples, cdf_b.samples]))
    return float(np.max(np.abs(cdf_a.evaluate_on(support) - cdf_b.evaluate_on(support))))
