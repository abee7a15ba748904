"""Columnar trace I/O: block parser, binary store, cache, streaming reader.

This package is the high-throughput counterpart to the row-wise
:mod:`repro.trace.parsers`.  Four pieces:

- :mod:`~repro.trace.io.bulk` — the block parser every text read of
  the MSRC/FIU/MSPS/internal dialects goes through.  Same results as
  the line-by-line parsers (which remain as the correctness oracle),
  several times faster: the file is read in bounded text blocks, and
  NumPy's C tokenizer splits each block into column arrays instead of
  per-line ``str.split`` + appends.  A read never holds the whole file
  as text.
- :mod:`~repro.trace.io.store` — a versioned ``.npz`` binary trace
  format with optional memory-mapped reads, so a parsed or generated
  trace is materialised to columns once and loaded back without any
  text processing.
- :mod:`~repro.trace.io.cache` — :class:`TraceStore`, a content-keyed
  on-disk cache of binary traces (the 31-workload catalog and parsed
  public traces are built once per content key).
- :mod:`~repro.trace.io.reader` — :class:`TraceReader`, a chunked
  reader that yields :class:`~repro.trace.trace.BlockTrace` segments
  of ``chunk_requests`` rows, parsed by the same block parser, so
  traces larger than memory stream through parse → infer → replay
  without full materialisation.
- :mod:`~repro.trace.io.fingerprint` — the blake2b column digest the
  inference memo keys on.
"""

from .bulk import (
    BULK_PARSERS,
    load_trace_bulk,
    parse_fiu_bulk,
    parse_internal_bulk,
    parse_msps_bulk,
    parse_msrc_bulk,
)
from .cache import TraceStore, default_trace_store_dir, get_default_store, set_default_store
from .fingerprint import trace_digest
from .reader import TraceReader, TraceStreamError
from .store import (
    STORE_FORMAT_VERSION,
    TraceStoreError,
    load_trace_npz,
    save_trace_npz,
)

__all__ = [
    "BULK_PARSERS",
    "load_trace_bulk",
    "parse_fiu_bulk",
    "parse_internal_bulk",
    "parse_msps_bulk",
    "parse_msrc_bulk",
    "STORE_FORMAT_VERSION",
    "TraceStoreError",
    "save_trace_npz",
    "load_trace_npz",
    "trace_digest",
    "TraceStore",
    "default_trace_store_dir",
    "get_default_store",
    "set_default_store",
    "TraceReader",
    "TraceStreamError",
]
