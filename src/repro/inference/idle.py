"""Per-instruction idle extraction (Section IV, hardware emulation input).

Once a latency model exists (inferred, or measured for
":math:`T_{sdev}` known" traces), every inter-arrival gap decomposes::

    T_idle[i] = T_intt[i] - T_sdev[i]      when positive
    async[i]  = T_intt[i] < T_sdev[i]      (the request did not wait)

The positive part is what the replayer sleeps between requests on the
new device; the negative part flags asynchronous submissions whose
timing the post-processing stage later restores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..trace.io.fingerprint import trace_digest
from ..trace.trace import BlockTrace
from .decompose import InferenceConfig, InferenceReport, estimate_model
from .model import LatencyModel

__all__ = ["IdleExtraction", "extract_idle", "extract_idle_with_model"]


#: Content-keyed memo for inferred latency models.  Model estimation is
#: a pure function of (trace contents, config); comparison harnesses
#: routinely run several reconstruction methods over one OLD trace, and
#: this spares each the repeated inference.  Small and FIFO-bounded.
_MODEL_MEMO: dict[tuple[bytes, InferenceConfig | None], InferenceReport] = {}
_MODEL_MEMO_MAX = 32


def _trace_digest(trace: BlockTrace) -> bytes:
    """Cheap content fingerprint of the columns inference reads.

    The definition lives in :func:`repro.trace.io.fingerprint.
    trace_digest`; this alias is kept so the memo keys (and the perf
    tests pinning them) read the same as they always did.
    """
    return trace_digest(trace)


def _estimate_model_memo(trace: BlockTrace, config: InferenceConfig | None) -> InferenceReport:
    key = (_trace_digest(trace), config)
    report = _MODEL_MEMO.get(key)
    if report is None:
        report = estimate_model(trace, config)
        if len(_MODEL_MEMO) >= _MODEL_MEMO_MAX:
            _MODEL_MEMO.pop(next(iter(_MODEL_MEMO)))
        _MODEL_MEMO[key] = report
    return report


@dataclass(frozen=True, slots=True)
class IdleExtraction:
    """Idle decomposition of one trace.

    All arrays have length ``len(trace) - 1``: entry ``i`` describes
    the gap between requests ``i`` and ``i + 1``, attributed to request
    ``i`` (Figure 2b).

    Attributes
    ----------
    tintt_us:
        The raw inter-arrival times.
    tsdev_us:
        Device time attributed to the leading request (model-evaluated
        or measured).
    tidle_us:
        ``max(0, tintt - tsdev)`` — the inferred system-delay/user-idle
        component.
    async_mask:
        Gaps where ``tintt < tsdev``: the leading request must have
        been submitted asynchronously.
    report:
        The :class:`InferenceReport` when the model was inferred;
        ``None`` when measured device times were used directly.
    used_measured_tsdev:
        ``True`` for the ":math:`T_{sdev}` known" path.
    """

    tintt_us: np.ndarray
    tsdev_us: np.ndarray
    tidle_us: np.ndarray
    async_mask: np.ndarray
    report: InferenceReport | None
    used_measured_tsdev: bool

    def __len__(self) -> int:
        return len(self.tintt_us)

    @property
    def idle_mask(self) -> np.ndarray:
        """Gaps judged to contain idle time (strictly positive idle)."""
        return self.tidle_us > 0.0

    def idle_frequency(self) -> float:
        """Fraction of gaps containing idle time."""
        if len(self.tintt_us) == 0:
            return 0.0
        return float(self.idle_mask.mean())

    def total_idle_us(self) -> float:
        """Summed inferred idle time."""
        return float(self.tidle_us.sum())

    def mean_idle_us(self) -> float:
        """Average idle period over gaps that have one (0 when none do)."""
        idles = self.tidle_us[self.idle_mask]
        return float(idles.mean()) if idles.size else 0.0


def extract_idle_with_model(trace: BlockTrace, model: LatencyModel) -> IdleExtraction:
    """Decompose gaps using an explicit latency model.

    The model's per-request :math:`T_{sdev}` of the *leading* request is
    subtracted from each gap, exactly as the Section IV reconstruction
    loop does.
    """
    if len(trace) < 2:
        raise ValueError("need at least two requests to extract idle time")
    tintt = trace.inter_arrival_times()
    tsdev = model.tsdev_array(trace)[:-1]
    tidle = np.clip(tintt - tsdev, 0.0, None)
    return IdleExtraction(
        tintt_us=tintt,
        tsdev_us=tsdev,
        tidle_us=tidle,
        async_mask=tintt < tsdev,
        report=None,
        used_measured_tsdev=False,
    )


def extract_idle(
    trace: BlockTrace,
    config: InferenceConfig | None = None,
    prefer_measured: bool = True,
) -> IdleExtraction:
    """Decompose a trace's gaps into device time and idle time.

    For ":math:`T_{sdev}` known" traces (``prefer_measured`` and device
    stamps present) the measured per-request device times are used and
    the inference phase is skipped, as the paper prescribes.  Otherwise
    the latency model is inferred from the trace first.
    """
    if len(trace) < 2:
        raise ValueError("need at least two requests to extract idle time")
    if prefer_measured and trace.has_device_times:
        tintt = trace.inter_arrival_times()
        tsdev = trace.device_times()[:-1]
        tidle = np.clip(tintt - tsdev, 0.0, None)
        return IdleExtraction(
            tintt_us=tintt,
            tsdev_us=tsdev,
            tidle_us=tidle,
            async_mask=tintt < tsdev,
            report=None,
            used_measured_tsdev=True,
        )
    report = _estimate_model_memo(trace, config)
    extraction = extract_idle_with_model(trace, report.model)
    return IdleExtraction(
        tintt_us=extraction.tintt_us,
        tsdev_us=extraction.tsdev_us,
        tidle_us=extraction.tidle_us,
        async_mask=extraction.async_mask,
        report=report,
        used_measured_tsdev=False,
    )
