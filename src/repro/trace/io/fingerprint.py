"""The content fingerprint of a trace's columns.

:func:`trace_digest` is a ``blake2b`` digest over a
:class:`~repro.trace.trace.BlockTrace`'s column arrays, the identity
the inference-model memo has always used.  Traces materialised through
the binary trace store carry a ``content_fingerprint`` stamp that
already uniquely determines every column; the digest reuses the stamp
and skips hashing entirely.

Historically the column digest lived as a private helper inside
:mod:`repro.inference.idle` (``tests/test_perf_and_digest.py`` pins the
old and new digests bit-for-bit).
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..trace import BlockTrace

__all__ = ["trace_digest"]

#: Digest size (bytes) of :func:`trace_digest` — pinned: the inference
#: memo keys embed it.
TRACE_DIGEST_SIZE = 20


def trace_digest(trace: BlockTrace) -> bytes:
    """Cheap content fingerprint of the columns inference reads.

    Traces materialised through the binary trace store already carry a
    content fingerprint that uniquely determines every column — reuse
    it and skip hashing entirely.  Otherwise hash the columns with
    ``blake2b`` (measurably faster than sha1 at these sizes) fed
    contiguous memoryviews, so no column is ever copied out to an
    intermediate ``bytes``.
    """
    if trace.content_fingerprint is not None:
        return trace.content_fingerprint.encode("utf-8")
    h = hashlib.blake2b(digest_size=TRACE_DIGEST_SIZE)
    for column in (trace.timestamps, trace.lbas, trace.sizes, trace.ops):
        h.update(memoryview(np.ascontiguousarray(column)))
    if trace.has_device_times:
        assert trace.issues is not None and trace.completes is not None
        h.update(memoryview(np.ascontiguousarray(trace.issues)))
        h.update(memoryview(np.ascontiguousarray(trace.completes)))
    return h.digest()
