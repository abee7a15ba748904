"""Idle-fidelity metrics against the generator's ground truth.

The intent stream records, per request, the host think time before it
(``thinks``) and whether that think was a user idle (``is_idle``).
Gap ``i`` of a trace lies between requests ``i`` and ``i + 1``, so it
carries ``is_idle[i + 1]`` and ``thinks[i + 1]``.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro.experiments.figures import VERIFICATION_MIN_IDLE_US
from repro.metrics.verification import score_inference
from repro.workloads.generator import IntentStream
from repro.workloads.idle_injection import InjectionRecord

FIDELITY_METRICS = ("idle_period_acc", "idle_detect_tp", "idle_len_tp")


def save_truth(path: Path, intents: IntentStream) -> None:
    """Store the ground-truth idle record beside a generated input."""
    np.savez(path, is_idle=intents.is_idle, thinks=intents.thinks)


def load_truth(path: Path) -> InjectionRecord:
    with np.load(path) as doc:
        return truth_record(doc["is_idle"], doc["thinks"])


def truth_record(is_idle: np.ndarray, thinks: np.ndarray) -> InjectionRecord:
    """The user idles of an intent stream as a per-gap ground-truth record."""
    idle_next = np.asarray(is_idle, dtype=bool)[1:]
    return InjectionRecord(
        gap_indices=np.flatnonzero(idle_next),
        periods_us=np.asarray(thinks, dtype=np.float64)[1:][idle_next],
        n_gaps=len(idle_next),
    )


def idle_period_acc(inferred_total_us: float, truth_total_us: float) -> float:
    """``1 - |inferred total idle - true user idle| / true user idle``."""
    return 1.0 - abs(inferred_total_us - truth_total_us) / truth_total_us


def fidelity(
    truth: InjectionRecord, estimated_idle_us: np.ndarray, inferred_total_us: float
) -> dict[str, float]:
    """Accuracy of total idle plus detection/length true-positive rates.

    ``estimated_idle_us`` is the per-gap idle estimate; it is scored at
    the paper-verification threshold, below which a gap counts as
    "no idle predicted".
    """
    score = score_inference(truth, estimated_idle_us, min_idle_us=VERIFICATION_MIN_IDLE_US)
    return {
        "idle_period_acc": idle_period_acc(inferred_total_us, truth.total_injected_us()),
        "idle_detect_tp": score.detection_tp,
        "idle_len_tp": score.len_tp,
    }


def mean_fidelity(parts: Iterable[dict[str, float]]) -> dict[str, float]:
    """Per-metric mean over several traces' fidelity dicts."""
    parts = list(parts)
    return {name: float(np.mean([p[name] for p in parts])) for name in FIDELITY_METRICS}
