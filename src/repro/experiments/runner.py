"""Run the complete evaluation and render one text report.

``python -m repro.experiments.runner [--fast] [--jobs N] [--out report.txt]``
regenerates every table and figure and writes the combined report — the
whole of Section V in one command.  The benchmark harness does the same
per-artefact with timing and shape assertions; this runner exists for
humans who want the full picture at once.

The heavy lifting is done by :class:`ParallelRunner`:

- **independent experiments** — each figure/table is a pure function of
  its parameters, so they execute across a
  :class:`concurrent.futures.ProcessPoolExecutor` (``--jobs N``; the
  default of 1 keeps single-core boxes fork-free);
- **result cache** — every experiment is deterministic in
  ``(experiment id, n_requests, source code)`` (all seeds are fixed
  constants of the catalog), so results are pickled under a key that
  includes a content hash of the ``repro`` package and reused by later
  runs of the same code; disable with ``--no-cache`` or point the
  location elsewhere with ``--cache-dir`` / ``$REPRO_CACHE_DIR``;
- **binary trace store** — the catalog traces the experiments consume
  are materialised once into the content-keyed ``.npz`` store
  (:class:`repro.trace.io.cache.TraceStore`) and memory-mapped back by
  every later run and every worker process, instead of re-generating
  them per worker; disable with ``--no-trace-store`` or relocate with
  ``--trace-store-dir`` / ``$REPRO_TRACE_STORE_DIR``.  Unlike the
  result cache, store entries are keyed by the *content* that defines
  a trace — spec parameters, device fingerprint, and a hash of the
  generator/storage-model sources — so they survive edits to every
  other layer (figures, analysis, metrics) but invalidate the moment
  trace-producing code changes;
- **deterministic report** — the report text contains no wall-clock
  timings, so sequential, parallel, cached and uncached runs emit
  byte-identical reports (timings go to stderr).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import pickle
import sys
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import TextIO

from ..trace.io.cache import TraceStore, default_trace_store_dir, get_default_store, set_default_store
from . import figures
from .reporting import format_cdf_series, format_table

__all__ = ["ParallelRunner", "run_all", "main"]

#: Bump when the cache layout itself changes.
_CACHE_SCHEMA = 1


@functools.cache
def _code_fingerprint() -> str:
    """Content hash of the ``repro`` package source.

    Folded into every cache key so results cached against one version
    of the models/figures are never served after the code changes —
    for a reproduction, a silently stale report is worse than a slow
    one.
    """
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha1()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]

#: (experiment id, title, callable returning a result with .rows()).
_EXPERIMENTS: tuple[tuple[str, str, Callable[[int], object]], ...] = (
    ("table1", "Table I: workload characteristics",
     lambda n: figures.table1_characteristics(traces_per_workload=2, n_requests=max(n // 2, 500))),
    ("fig1", "Figure 1: inter-arrival CDFs (OLD/NEW/Revision/Acceleration)",
     lambda n: figures.fig1_intt_cdf(n_requests=n)),
    ("fig3", "Figure 3: longer/equal/shorter breakdown",
     lambda n: figures.fig3_breakdown(n_requests=n)),
    ("fig5", "Figure 5: CDF shape classes",
     lambda n: figures.fig5_cdf_types(n_requests=n)),
    ("fig7", "Figure 7: T_movd calibration and T_cdel profile",
     lambda n: figures.fig7_tmovd_tcdel(n_requests=max(n // 2, 500))),
    ("fig9", "Figure 9: pchip vs spline interpolation",
     lambda n: figures.fig9_interpolation()),
    ("fig10", "Figure 10: Len(TP) / Detection vs injected idle",
     lambda n: figures.fig10_len_tp(n_requests=n)),
    ("fig11", "Figure 11: Len(FP) distributions",
     lambda n: figures.fig11_len_fp(n_requests=n)),
    ("fig12", "Figure 12: method CDFs on MSNFS",
     lambda n: figures.fig12_method_cdfs(n_requests=n)),
    ("fig13", "Figure 13: T_intt gap to TraceTracker",
     lambda n: figures.fig13_intt_gap(n_requests=max(n // 2, 500))),
    ("fig14", "Figure 14: target vs TraceTracker differences",
     lambda n: figures.fig14_target_diff(n_requests=max(n // 2, 500))),
    ("fig15", "Figure 15: CFS / ikki distribution detail",
     lambda n: figures.fig15_distribution(n_requests=n)),
    ("fig16", "Figure 16: average idle per workload",
     lambda n: figures.fig16_avg_idle(n_requests=max(n // 2, 500))),
    ("fig17", "Figure 17: idle breakdown",
     lambda n: figures.fig17_idle_breakdown(n_requests=max(n // 2, 500))),
)

_BY_ID = {exp_id: (title, run) for exp_id, title, run in _EXPERIMENTS}


def _compute_experiment(exp_id: str, n_requests: int) -> object:
    """Run one experiment (module-level so worker processes can pickle it)."""
    __, run = _BY_ID[exp_id]
    return run(n_requests)


def _worker_init_trace_store(root: str) -> None:
    """Point a worker process at the shared binary trace store."""
    set_default_store(TraceStore(root=root, enabled=True))


def _compute_with_store_stats(exp_id: str, n_requests: int) -> tuple[object, int, int]:
    """Worker wrapper: result plus this call's store hit/miss deltas.

    Workers are reused across experiments, so per-call deltas (not the
    cumulative counters) are what the parent can safely sum.
    """
    store = get_default_store()
    hits, misses = store.hits, store.misses
    result = _compute_experiment(exp_id, n_requests)
    return result, store.hits - hits, store.misses - misses


def default_cache_dir() -> Path:
    """Cache location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-tracetracker``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-tracetracker"


class ParallelRunner:
    """Executes the figure/table experiments, optionally in parallel.

    Parameters
    ----------
    n_requests:
        Requests per generated trace (experiments derive their own
        scale knobs from it).
    jobs:
        Worker processes.  1 (default) runs inline in this process;
        higher values fan experiments out over a process pool.
    use_cache:
        Reuse pickled results keyed by ``(schema, code fingerprint,
        experiment id, n_requests)``.  Experiments are deterministic in
        those parameters, so a hit reproduces the run exactly; editing
        any source under ``repro`` invalidates every entry.
    cache_dir:
        Cache location; defaults to :func:`default_cache_dir`.
    only:
        Restrict to a subset of experiment ids.
    use_trace_store:
        Materialise the catalog traces experiments consume into the
        binary trace store and load them from there (in this process
        and every worker).  Content-keyed, so safe across code edits.
    trace_store_dir:
        Store location; defaults to
        :func:`repro.trace.io.cache.default_trace_store_dir`.
    """

    def __init__(
        self,
        n_requests: int = 4_000,
        jobs: int = 1,
        use_cache: bool = False,
        cache_dir: Path | str | None = None,
        only: set[str] | None = None,
        use_trace_store: bool = False,
        trace_store_dir: Path | str | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if only is not None:
            unknown = only - set(_BY_ID)
            if unknown:
                raise ValueError(f"unknown experiment ids: {sorted(unknown)}")
        self.n_requests = n_requests
        self.jobs = jobs
        self.use_cache = use_cache
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.only = only
        self.use_trace_store = use_trace_store
        self.trace_store_dir = (
            Path(trace_store_dir) if trace_store_dir is not None else default_trace_store_dir()
        )

    # -- cache ---------------------------------------------------------

    def _cache_path(self, exp_id: str) -> Path:
        return self.cache_dir / (
            f"v{_CACHE_SCHEMA}-{_code_fingerprint()}-{exp_id}-n{self.n_requests}.pkl"
        )

    def _cache_load(self, exp_id: str) -> object | None:
        if not self.use_cache:
            return None
        path = self._cache_path(exp_id)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception:
            # A missing, truncated, corrupted, or schema-incompatible
            # entry is never fatal — recompute and overwrite it.
            return None

    def _cache_store(self, exp_id: str, result: object) -> None:
        if not self.use_cache:
            return
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._cache_path(exp_id)
            tmp = path.with_suffix(".tmp")
            with open(tmp, "wb") as handle:
                pickle.dump(result, handle)
            os.replace(tmp, path)
        except (OSError, pickle.PickleError):
            pass  # caching is best-effort; the result is still returned

    # -- execution -----------------------------------------------------

    def _selected(self) -> list[tuple[str, str]]:
        return [
            (exp_id, title)
            for exp_id, title, __ in _EXPERIMENTS
            if self.only is None or exp_id in self.only
        ]

    def results(self, log: TextIO | None = None) -> dict[str, object]:
        """Compute (or load) every selected experiment's result object.

        Returns results keyed by experiment id, in canonical order
        regardless of worker completion order.
        """
        log = log if log is not None else sys.stderr
        selected = self._selected()
        results: dict[str, object] = {}
        missing: list[str] = []
        for exp_id, __ in selected:
            cached = self._cache_load(exp_id)
            if cached is not None:
                results[exp_id] = cached
                log.write(f"[runner] {exp_id}: cache hit\n")
            else:
                missing.append(exp_id)
        if missing:
            start = time.perf_counter()
            previous_store = get_default_store()
            if self.use_trace_store:
                set_default_store(TraceStore(root=self.trace_store_dir, enabled=True))
            try:
                if self.jobs > 1 and len(missing) > 1:
                    if self.use_trace_store:
                        initializer, initargs = (
                            _worker_init_trace_store, (str(self.trace_store_dir),)
                        )
                        compute = _compute_with_store_stats
                    else:
                        initializer, initargs = None, ()
                        compute = None
                    with ProcessPoolExecutor(
                        max_workers=self.jobs, initializer=initializer, initargs=initargs
                    ) as pool:
                        futures = {
                            exp_id: pool.submit(
                                compute or _compute_experiment, exp_id, self.n_requests
                            )
                            for exp_id in missing
                        }
                        for exp_id, future in futures.items():
                            if compute is not None:
                                # Fold the workers' store traffic into the
                                # parent's counters so the stats line below
                                # reflects what actually happened.
                                result, hits, misses = future.result()
                                parent_store = get_default_store()
                                parent_store.hits += hits
                                parent_store.misses += misses
                                results[exp_id] = result
                            else:
                                results[exp_id] = future.result()
                else:
                    for exp_id in missing:
                        results[exp_id] = _compute_experiment(exp_id, self.n_requests)
            finally:
                if self.use_trace_store:
                    store = get_default_store()
                    log.write(
                        f"[trace-store] hits={store.hits} misses={store.misses} "
                        f"dir={store.root}\n"
                    )
                    set_default_store(previous_store)
            log.write(
                f"[runner] computed {len(missing)} experiment(s) in "
                f"{time.perf_counter() - start:.1f}s (jobs={self.jobs})\n"
            )
            for exp_id in missing:
                self._cache_store(exp_id, results[exp_id])
        return {exp_id: results[exp_id] for exp_id, __ in selected}

    def run(self, out: TextIO = sys.stdout, log: TextIO | None = None) -> None:
        """Compute everything and stream the combined report to ``out``.

        The report text is timing-free and therefore identical across
        sequential/parallel/cached runs with equal parameters.
        """
        results = self.results(log=log)
        for exp_id, title in self._selected():
            result = results[exp_id]
            out.write("\n" + "=" * 72 + "\n")
            out.write(f"{title}   [{exp_id}]\n")
            out.write("=" * 72 + "\n")
            rows = result.rows()  # type: ignore[attr-defined]
            out.write(format_table(rows) + "\n")
            series = getattr(result, "series", None)
            if isinstance(series, dict) and series and isinstance(next(iter(series.values())), list):
                out.write("\nCDF positions:\n")
                out.write(format_cdf_series(series) + "\n")


def run_all(n_requests: int = 4_000, out: TextIO = sys.stdout, only: set[str] | None = None) -> None:
    """Backwards-compatible sequential, cache-free entry point."""
    ParallelRunner(n_requests=n_requests, jobs=1, use_cache=False, only=only).run(out=out)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--requests", type=int, default=4_000, help="requests per generated trace (default 4000)"
    )
    parser.add_argument("--fast", action="store_true", help="quarter-size quick pass")
    parser.add_argument("--out", type=str, default=None, help="write the report to a file")
    parser.add_argument(
        "--only", type=str, default=None,
        help="comma-separated experiment ids (e.g. fig12,table1)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for independent experiments (default 1: inline)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute everything; do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-tracetracker)",
    )
    parser.add_argument(
        "--no-trace-store", action="store_true",
        help="regenerate catalog traces in memory; do not read or write the binary trace store",
    )
    parser.add_argument(
        "--trace-store-dir", type=str, default=None,
        help=(
            "binary trace-store directory (default: $REPRO_TRACE_STORE_DIR or "
            "~/.cache/repro-tracetracker/traces)"
        ),
    )
    args = parser.parse_args(argv)
    n = max(500, args.requests // 4) if args.fast else args.requests
    only = set(args.only.split(",")) if args.only else None
    try:
        runner = ParallelRunner(
            n_requests=n,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            only=only,
            use_trace_store=not args.no_trace_store,
            trace_store_dir=args.trace_store_dir,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            runner.run(out=handle)
        print(f"report written to {args.out}")
    else:
        runner.run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
