"""Materialise catalog traces through the binary trace store.

:func:`collect_trace_cached` is the cached front door to
``collect_trace(generate_intents(spec), device, ...)``: the trace is
keyed by everything that determines its bytes — the full workload-spec
parameters, the device fingerprint, and the collection flags — and
stored once in the content-keyed :class:`~repro.trace.io.cache.
TraceStore`.  Later calls (including calls from other worker
processes) load the columns straight from the ``.npz`` store instead
of re-running the Python-loop intent generation and collection.

The cache is exact, not approximate: generation is deterministic in
the spec (all seeds are spec fields) and collection is deterministic
in ``(intent stream, device fingerprint)``, so a hit reproduces the
miss bit-for-bit.  With the default store disabled (no
``$REPRO_TRACE_STORE_DIR`` / ``$REPRO_TRACE_STORE``), the function
degrades to plain generate-and-collect.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Callable
from pathlib import Path

from ..storage.device import StorageDevice
from ..trace.io.cache import TraceStore, get_default_store
from ..trace.trace import BlockTrace
from .generator import IntentStream, WorkloadSpec, collect_trace, generate_intents

__all__ = ["spec_key", "generation_fingerprint", "collect_trace_cached"]


def _generation_sources() -> list[Path]:
    """The source files whose code determines a collected trace's bytes.

    The generator, the submission loops collection runs through
    (:mod:`repro.replay.qdepth`), the trace containers and every storage
    model.
    """
    package_root = Path(__file__).resolve().parents[1]
    named = ("workloads/generator.py", "replay/qdepth.py", "trace/record.py", "trace/trace.py")
    return [package_root / relative for relative in named] + sorted(
        (package_root / "storage").glob("*.py")
    )


@functools.cache
def generation_fingerprint() -> str:
    """Content hash of the code that determines a collected trace's bytes.

    The spec and device fingerprints capture *parameters*; this
    captures *semantics* — the generator, the submission loops and the
    device models.  It is folded into every cache key so a behaviour
    change in ``generate_intents``/``collect_trace``, a loop or any
    storage model can never be papered over by a stale store entry,
    while edits to unrelated layers (figures, analysis, metrics) leave
    the store warm.
    """
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha1()
    for path in _generation_sources():
        digest.update(path.relative_to(package_root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def spec_key(spec: WorkloadSpec) -> str:
    """Stable content description of a workload spec.

    ``WorkloadSpec`` and its nested ``SizeMix``/``IdleProcess`` are
    frozen dataclasses of primitives, so their ``repr`` enumerates
    every parameter (including every seed) deterministically.
    """
    return repr(spec)


def collect_trace_cached(
    spec: WorkloadSpec,
    device: StorageDevice,
    record_device_times: bool = True,
    record_sync_flags: bool = False,
    name: str | None = None,
    store: TraceStore | None = None,
    intents_factory: Callable[[], IntentStream] | None = None,
) -> BlockTrace:
    """Collect ``spec`` on ``device``, through the binary trace store.

    Parameters match :func:`~repro.workloads.generator.collect_trace`
    except that the intent stream is derived from ``spec`` (or from
    ``intents_factory``, which lets OLD/NEW pair construction share
    one generated stream across two devices while still skipping
    generation entirely when both collections hit the store).

    ``store`` defaults to the process-wide store from
    :func:`~repro.trace.io.cache.get_default_store`.
    """
    active = store if store is not None else get_default_store()
    key = active.key_for(
        "collect",
        generation_fingerprint(),
        spec_key(spec),
        device.fingerprint(),
        f"dev_times={record_device_times}",
        f"sync_flags={record_sync_flags}",
        f"name={name if name is not None else spec.name}",
    )

    def build() -> BlockTrace:
        intents = intents_factory() if intents_factory is not None else generate_intents(spec)
        return collect_trace(
            intents,
            device,
            record_device_times=record_device_times,
            record_sync_flags=record_sync_flags,
            name=name,
        )

    return active.get_or_build(key, build)
