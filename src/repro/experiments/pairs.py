"""OLD/NEW trace-pair construction (the paper's verification method).

"The same patterns are collected from both OLD and NEW for a fair
comparison" — one intent stream, two devices.  The OLD trace is what a
reconstruction method receives; the NEW trace is the ground truth it is
scored against.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.device import StorageDevice
from ..trace.trace import BlockTrace
from ..workloads.catalog import STAMPED_FAMILIES, get_spec
from ..workloads.generator import IntentStream, WorkloadSpec, collect_trace, generate_intents
from ..workloads.materialize import collect_trace_cached
from .nodes import new_node, old_node

__all__ = ["TracePair", "build_pair", "build_pair_for"]


@dataclass(frozen=True, slots=True)
class TracePair:
    """An OLD/NEW trace pair sharing one intent stream.

    Attributes
    ----------
    old:
        The trace collected on the OLD (HDD) node — reconstruction input.
    new:
        The trace collected on the NEW (flash) node — ground truth.
    intents:
        The shared intent stream (carries true idles and sync flags).
        ``None`` when both traces came out of the binary trace store
        without regenerating the stream; :meth:`regenerate_intents`
        rebuilds it on demand (generation is deterministic in the
        spec).
    """

    old: BlockTrace
    new: BlockTrace
    intents: IntentStream | None
    spec: WorkloadSpec | None = None

    @property
    def name(self) -> str:
        """Workload name of the pair."""
        return self.old.name

    def regenerate_intents(self) -> IntentStream:
        """The shared intent stream, regenerating it if it was skipped."""
        if self.intents is not None:
            return self.intents
        if self.spec is None:
            raise ValueError("pair carries neither intents nor a spec")
        return generate_intents(self.spec)


def build_pair(
    intents: IntentStream,
    old_device: StorageDevice | None = None,
    new_device: StorageDevice | None = None,
    old_has_device_times: bool = True,
) -> TracePair:
    """Collect one intent stream on both nodes.

    ``old_has_device_times`` selects the trace family style: ``True``
    produces an MSPS/MSRC-style OLD trace (issue/completion stamps,
    ":math:`T_{sdev}` known"); ``False`` an FIU-style one.  The NEW
    trace always keeps device times — it is measurement ground truth,
    not reconstruction input.
    """
    old_dev = old_device if old_device is not None else old_node()
    new_dev = new_device if new_device is not None else new_node()
    old = collect_trace(intents, old_dev, record_device_times=old_has_device_times)
    new = collect_trace(intents, new_dev, record_device_times=True)
    return TracePair(old=old, new=new, intents=intents)


def build_pair_for(
    workload: str,
    n_requests: int | None = None,
    old_has_device_times: bool | None = None,
    old_device: StorageDevice | None = None,
    new_device: StorageDevice | None = None,
) -> TracePair:
    """OLD/NEW pair for a named catalog workload.

    ``old_has_device_times`` defaults to the workload family's actual
    collection style: MSPS and MSRC traces carry device stamps, FIU
    traces do not (Section V's "T_sdev known / unknown" split).

    ``old_device``/``new_device`` default to the paper's evaluation
    nodes; the campaign engine passes grid devices here so any
    (source, target) hardware combination shares this one pair-building
    code path (and its trace-store keys).
    """
    spec = get_spec(workload)
    if n_requests is not None:
        spec = spec.scaled(n_requests)
    if old_has_device_times is None:
        old_has_device_times = spec.category in STAMPED_FAMILIES
    # Through the trace store: with both collections cached, the intent
    # stream is never generated; on a miss it is generated once and
    # shared by both devices (the paper's one-stream-two-nodes method).
    generated: list[IntentStream] = []

    def shared_intents() -> IntentStream:
        if not generated:
            generated.append(generate_intents(spec))
        return generated[0]

    old = collect_trace_cached(
        spec,
        old_device if old_device is not None else old_node(),
        record_device_times=old_has_device_times,
        intents_factory=shared_intents,
    )
    new = collect_trace_cached(
        spec,
        new_device if new_device is not None else new_node(),
        record_device_times=True,
        intents_factory=shared_intents,
    )
    return TracePair(
        old=old, new=new, intents=generated[0] if generated else None, spec=spec
    )
