"""Always-on streaming reconstruction service (``repro-serve``).

The batch pipeline answers "remaster this trace file"; this package
answers "remaster this trace *as it happens*" — an always-on daemon
that tails one growing trace file and keeps the reconstructed trace,
its metrics, and a crash-consistent checkpoint continuously up to date
on disk.

Pieces:

- :mod:`~repro.service.sources` — the file tail, read one block per
  poll, with a byte cursor and torn-line hold-back;
- :mod:`~repro.service.checkpoint` — atomic resume points (source
  cursor + session state + sink length);
- :mod:`~repro.service.daemon` — the service itself: one loop that
  polls, cuts chunks, reconstructs, quarantines, group-commits,
  publishes its status and drains on a stop request;
- :mod:`~repro.service.cli` — the ``repro-serve`` entry point.

The batch pipeline remains the correctness oracle: for the same
content, ``out.csv`` and the final metrics are byte- and bit-identical
to ``pipeline.run_stream(TraceReader(path, chunk_requests=N))`` — even
across SIGKILL and restart.
"""

from .checkpoint import StreamCheckpoint, load_checkpoint, save_checkpoint
from .daemon import ServiceConfig, StreamingReconstructionService
from .sources import FileTailSource, parse_source_spec

__all__ = [
    "FileTailSource",
    "ServiceConfig",
    "StreamCheckpoint",
    "StreamingReconstructionService",
    "load_checkpoint",
    "parse_source_spec",
    "save_checkpoint",
]
