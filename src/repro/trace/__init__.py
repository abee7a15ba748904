"""Block trace substrate: records, containers, parsers, writers, statistics.

This package is the data layer everything else builds on.  A trace is a
columnar, timestamp-ordered sequence of block requests; see
:class:`~repro.trace.trace.BlockTrace`.
"""

from .intervals import (
    AccessPatternSummary,
    inter_arrival_times,
    interval_after_mask,
    read_fraction,
    sequentiality_fraction,
    summarize_pattern,
)
from .io import (
    TraceReader,
    TraceStore,
    TraceStoreError,
    TraceStreamError,
    load_trace_bulk,
    load_trace_npz,
    parse_fiu_bulk,
    parse_internal_bulk,
    parse_msps_bulk,
    parse_msrc_bulk,
    save_trace_npz,
)
from .parsers import (
    ParseError,
    TraceParseError,
    load_trace,
    parse_fiu,
    parse_internal,
    parse_msps,
    parse_msrc,
)
from .record import SECTOR_BYTES, IORecord, OpType
from .stats import TraceStatistics, WorkloadRow, trace_statistics, workload_table
from .trace import BlockTrace, TraceBuilder
from .writers import dump_trace, write_blktrace_text, write_csv, write_msrc

__all__ = [
    "SECTOR_BYTES",
    "IORecord",
    "OpType",
    "BlockTrace",
    "TraceBuilder",
    "AccessPatternSummary",
    "inter_arrival_times",
    "interval_after_mask",
    "read_fraction",
    "sequentiality_fraction",
    "summarize_pattern",
    "ParseError",
    "TraceParseError",
    "load_trace",
    "parse_fiu",
    "parse_internal",
    "parse_msps",
    "parse_msrc",
    "TraceReader",
    "TraceStore",
    "TraceStoreError",
    "TraceStreamError",
    "load_trace_bulk",
    "load_trace_npz",
    "parse_fiu_bulk",
    "parse_internal_bulk",
    "parse_msps_bulk",
    "parse_msrc_bulk",
    "save_trace_npz",
    "TraceStatistics",
    "WorkloadRow",
    "trace_statistics",
    "workload_table",
    "dump_trace",
    "write_blktrace_text",
    "write_csv",
    "write_msrc",
]
