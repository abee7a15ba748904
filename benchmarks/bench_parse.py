"""Trace ingestion throughput: bulk parsers and binary store vs the oracle.

Generates a deterministic synthetic trace (default 150k requests),
writes it in every supported text dialect plus the binary ``.npz``
store, and times:

- the line-by-line oracle parsers (``engine="line"``),
- the block parser, through ``load_trace`` (``engine="bulk"``) and
  through ``TraceReader(path, fmt).read()``,
- binary store save, load, and memory-mapped load.

For both whole-file block-parser reads it also reports the
``tracemalloc`` peak and the bytes still allocated when the read
returns, per request.

Results (requests/second, bulk-over-line speedups, bytes/request) go
to stdout and, with ``--out``, to a JSON file the CI workflow uploads
as ``BENCH_parse.json``.  Not a pytest file on purpose: parser
throughput is a scalar worth tracking as an artifact, not a pass/fail
assertion.

Usage::

    PYTHONPATH=src python benchmarks/bench_parse.py [--requests N] [--out BENCH_parse.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.trace import (
    BlockTrace,
    TraceReader,
    load_trace,
    load_trace_npz,
    save_trace_npz,
    write_csv,
)

#: Timing repetitions; the best of N is reported (steady-state figure).
_REPS = 3

#: Unified benchmark document schema version (see ``bench_pipeline``).
SCHEMA_VERSION = 2


def synthetic_trace(n: int) -> BlockTrace:
    """Field magnitudes match the real collections: a ~2 TB volume
    (sector LBAs < 2^32), multi-sector requests, ms-scale device times."""
    rng = np.random.default_rng(20170701)
    ts = np.cumsum(rng.integers(1, 10**4, n)).astype(np.float64)
    ts -= ts[0]
    return BlockTrace(
        timestamps=ts,
        lbas=rng.integers(0, 1 << 32, n),
        sizes=rng.integers(1, 256, n),
        ops=rng.integers(0, 2, n).astype(np.int8),
        issues=ts + 2.0,
        completes=ts + 2.0 + rng.integers(50, 10**4, n),
        syncs=rng.random(n) < 0.7,
        name="bench",
    )


def write_dialects(trace: BlockTrace, root: Path) -> dict[str, Path]:
    n = len(trace)
    ops = ["Read" if int(o) == 0 else "Write" for o in trace.ops]
    dev = (trace.completes - trace.issues).astype(np.int64)
    files = {}
    files["msrc"] = root / "bench.msrc"
    files["msrc"].write_text(
        "\n".join(
            f"{int(trace.timestamps[i] * 10)},host,0,{ops[i]},"
            f"{int(trace.lbas[i]) * 512},{int(trace.sizes[i]) * 512},{int(dev[i]) * 10}"
            for i in range(n)
        )
    )
    files["fiu"] = root / "bench.fiu"
    files["fiu"].write_text(
        "\n".join(
            f"{trace.timestamps[i] / 1e6:.6f} 12 proc {int(trace.lbas[i])} "
            f"{int(trace.sizes[i])} {ops[i][0]} 8 1"
            for i in range(n)
        )
    )
    files["msps"] = root / "bench.msps"
    files["msps"].write_text(
        "\n".join(
            f"{trace.timestamps[i]:.3f} {trace.timestamps[i] + dev[i]:.3f} "
            f"{ops[i][0]} {int(trace.lbas[i])} {int(trace.sizes[i])}"
            for i in range(n)
        )
    )
    files["internal"] = root / "bench.csv"
    with files["internal"].open("w") as handle:
        write_csv(trace, handle)
    return files


def best_of(fn) -> float:
    best = float("inf")
    for _ in range(_REPS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def traced_bytes(fn, n: int) -> tuple[float, float]:
    """(peak, retained) traced allocation of one call, in bytes/request."""
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return round(peak / n, 1), round(retained / n, 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=150_000)
    parser.add_argument("--out", type=str, default=None, help="write JSON here")
    parser.add_argument(
        "--history", type=str, default=None,
        help="append this run (speedups + commit + date) to a BENCH_history.jsonl",
    )
    args = parser.parse_args(argv)
    n = args.requests
    trace = synthetic_trace(n)
    results: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "parse",
        "n_requests": n,
        "dialects": {},
        "store": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = write_dialects(trace, root)
        for fmt, path in files.items():
            whole_file_reads = {
                "bulk": lambda: load_trace(path, fmt=fmt, engine="bulk"),
                "reader": lambda: TraceReader(path, fmt).read(),
            }
            line_s = best_of(lambda: load_trace(path, fmt=fmt, engine="line"))
            bulk_s = best_of(whole_file_reads["bulk"])
            reader_s = best_of(whole_file_reads["reader"])
            bulk_peak, bulk_retained = traced_bytes(whole_file_reads["bulk"], n)
            reader_peak, reader_retained = traced_bytes(whole_file_reads["reader"], n)
            entry = {
                "line_requests_per_s": round(n / line_s),
                "bulk_requests_per_s": round(n / bulk_s),
                "speedup": round(line_s / bulk_s, 2),
                "reader_requests_per_s": round(n / reader_s),
                "bulk_peak_bytes_per_request": bulk_peak,
                "bulk_retained_bytes_per_request": bulk_retained,
                "reader_peak_bytes_per_request": reader_peak,
                "reader_retained_bytes_per_request": reader_retained,
            }
            results["dialects"][fmt] = entry  # type: ignore[index]
            print(
                f"{fmt:9s} line {n / line_s:>12,.0f} req/s   "
                f"bulk {n / bulk_s:>12,.0f} req/s   {line_s / bulk_s:.1f}x   "
                f"reader {n / reader_s:>12,.0f} req/s   "
                f"peak/retained B/req: bulk {bulk_peak}/{bulk_retained}, "
                f"reader {reader_peak}/{reader_retained}"
            )
        npz = root / "bench.npz"
        save_s = best_of(lambda: save_trace_npz(trace, npz))
        load_s = best_of(lambda: load_trace_npz(npz))
        mmap_s = best_of(lambda: load_trace_npz(npz, mmap=True))
        results["store"] = {
            "save_requests_per_s": round(n / save_s),
            "load_requests_per_s": round(n / load_s),
            "mmap_load_requests_per_s": round(n / mmap_s),
        }
        print(
            f"{'npz store':9s} save {n / save_s:>12,.0f} req/s   "
            f"load {n / load_s:>12,.0f} req/s   mmap {n / mmap_s:>12,.0f} req/s"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.history:
        from history import append_history

        line = append_history(results, args.history)
        print(f"history line appended to {args.history} (commit {line['commit']})")
    best_speedup = max(d["speedup"] for d in results["dialects"].values())  # type: ignore[union-attr]
    print(f"best bulk speedup: {best_speedup}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
