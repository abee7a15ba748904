"""Evaluation metrics: verification, trace comparison, idle breakdowns."""

from .breakdown import IDLE_BUCKETS, IdleBreakdown, average_idle_us, idle_breakdown
from .comparison import (
    InttBreakdown,
    intt_breakdown,
    intt_cdf,
    intt_gap_stats,
    ks_distance,
)
from .verification import VerificationScore, score_inference

__all__ = [
    "IDLE_BUCKETS",
    "IdleBreakdown",
    "average_idle_us",
    "idle_breakdown",
    "InttBreakdown",
    "intt_breakdown",
    "intt_cdf",
    "intt_gap_stats",
    "ks_distance",
    "VerificationScore",
    "score_inference",
]
