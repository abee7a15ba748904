"""Fault-tolerant campaign execution: supervision, retries, quarantine, chaos.

The campaign engine's original failure model was "a grid point raises →
the campaign raises" and "a worker dies → the pool raises".  At the
ROADMAP's production scale (10^4+ points, long wall-clocks, shared
lake databases) that is not a model, it is an outage.  This module is
the resilience substrate threaded through
:class:`~repro.campaign.engine.CampaignEngine`:

- **error taxonomy + retry policy** — :func:`classify_error` splits
  point failures into *transient* (I/O hiccups, timeouts, locked
  databases — worth retrying) and *permanent* (type/value/assertion
  errors — retrying reruns the same bug).  :class:`RetryPolicy` turns
  transient failures into bounded exponential backoff with
  *deterministic* jitter (hashed from the run key and attempt number,
  so reruns sleep the same schedule and tests need no randomness
  control).  Both now live in :mod:`repro.resilience` — shared with
  the streaming service — and are re-exported here so historical
  import paths keep working.
- **per-point wall-clock timeouts** — :func:`time_limit` arms a real
  interval timer around each point; a hung computation raises
  :class:`PointTimeout` (transient) instead of stalling its worker
  forever.
- **poison-point quarantine** — :func:`run_point_resilient` retries a
  point through its policy and, when attempts are exhausted (or the
  failure is permanent), returns a *quarantine row* — ``status:
  "quarantined"`` plus the error and attempt count — instead of
  raising.  The row is checkpointed like any result, so a poison point
  costs its retries exactly once per campaign directory and never
  sinks the run.
- **worker supervision** — :class:`SupervisedExecutor` runs every
  multi-process campaign: every worker process owns a heartbeat file
  it touches at each point boundary; the supervisor loop in the parent
  detects dead workers (SIGKILL, OOM kill) and, when a deadline is
  set, hung workers (stale heartbeat), reclaims their leased chunks
  back onto the queue (salvaging any points the dead worker already
  checkpointed), and respawns workers up to a budget.  A point that
  *raises* is not a death: the worker reports the exception and the
  parent re-raises it.
- **chaos harness** — :class:`ChaosSpec` describes deterministic fault
  injections (``kill@3,hang@5,exc@2,poison@7,corrupt@4`` — kind at
  plan index) that :class:`ChaosInjector` fires from inside the
  workers, exactly once each (claimed through ``O_EXCL`` marker
  files), so ``tests/chaos`` can assert a disturbed campaign's results
  are bit-identical to an undisturbed oracle's.

Everything here is dependency-free and deliberately synchronous: the
supervisor is a poll loop, heartbeats are file mtimes, leases are a
dict in the parent.  Plain mechanisms survive the failure modes they
monitor.
"""

from __future__ import annotations

import os
import pickle
import queue
import signal
import time
import traceback
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..resilience import (
    PermanentPointError,
    PointTimeout,
    RetryPolicy,
    TransientPointError,
    classify_error,
    heartbeat_age_s,
    retry_call,
    time_limit,
    write_heartbeat,
)

__all__ = [
    "CHAOS_KINDS",
    "QUARANTINED",
    "ChaosError",
    "ChaosSpec",
    "ChaosInjector",
    "PermanentPointError",
    "PointTimeout",
    "Resilience",
    "RetryPolicy",
    "SupervisedExecutor",
    "SupervisionError",
    "TransientPointError",
    "classify_error",
    "heartbeat_age_s",
    "quarantine_row",
    "retry_call",
    "run_point_resilient",
    "time_limit",
    "write_heartbeat",
]

#: The ``status`` value a quarantined point's row carries.
QUARANTINED = "quarantined"

#: Row keys only quarantined points carry (normal rows never set them).
QUARANTINE_COLUMNS = ("status", "error", "attempts")


# ----------------------------------------------------------------------
# Campaign-specific error types
# ----------------------------------------------------------------------


class ChaosError(TransientPointError):
    """An injected transient failure (the chaos harness's ``exc`` kind)."""


class SupervisionError(RuntimeError):
    """The supervisor ran out of workers/respawns with work still pending."""


# ----------------------------------------------------------------------
# Chaos injection
# ----------------------------------------------------------------------

#: Injection kinds the harness understands, and where they fire:
#:
#: - ``exc``     — raise a transient :class:`ChaosError` once, before
#:   the point computes (the retry path must absorb it);
#: - ``poison``  — raise a transient error on *every* attempt (the
#:   quarantine path must absorb it);
#: - ``kill``    — ``SIGKILL`` the worker process once, before the
#:   point computes (the supervisor must reclaim and respawn);
#: - ``hang``    — sleep far past every deadline once (the point
#:   timeout or the supervisor's heartbeat deadline must fire);
#: - ``corrupt`` — truncate the point's checkpoint file right after it
#:   is written (the resume scan must tolerate and recompute).
CHAOS_KINDS = ("exc", "poison", "kill", "hang", "corrupt")

#: How long an injected hang sleeps; far beyond any sane deadline.
_HANG_SLEEP_S = 3600.0


@dataclass(frozen=True)
class ChaosSpec:
    """A deterministic fault-injection schedule over plan indices."""

    injections: tuple[tuple[str, int], ...] = ()

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse ``"kill@3,hang@5,exc@2"`` (kind ``@`` plan index)."""
        out: list[tuple[str, int]] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            kind, sep, index = part.partition("@")
            kind = kind.strip().lower()
            if not sep or kind not in CHAOS_KINDS:
                raise ValueError(
                    f"bad chaos injection {part!r}; use kind@index with kind in {CHAOS_KINDS}"
                )
            out.append((kind, int(index)))
        return cls(injections=tuple(out))

    def to_text(self) -> str:
        """The canonical ``kind@index,...`` form (round-trips parse)."""
        return ",".join(f"{kind}@{index}" for kind, index in self.injections)

    def at(self, index: int) -> list[str]:
        """Every injection kind scheduled at one plan index."""
        return [kind for kind, i in self.injections if i == index]


class ChaosInjector:
    """Worker-side firing of a :class:`ChaosSpec`.

    One-shot kinds (``exc``/``kill``/``hang``/``corrupt``) are claimed
    through ``O_EXCL`` marker files under a directory shared by every
    worker, so each fires exactly once per campaign directory no matter
    how many processes race past it — which is what makes the recovery
    deterministic enough to compare bit-for-bit against an oracle run.
    ``poison`` fires on every attempt by design.
    """

    def __init__(self, spec: ChaosSpec, markers_dir: str | Path) -> None:
        self.spec = spec
        self.markers_dir = Path(markers_dir)

    def _claim(self, kind: str, index: int) -> bool:
        """True exactly once per (kind, index) across all processes."""
        self.markers_dir.mkdir(parents=True, exist_ok=True)
        path = self.markers_dir / f"{kind}-{index}.fired"
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return False
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return True

    def before_point(self, index: int) -> None:
        """Fire any pre-compute injections scheduled at ``index``."""
        for kind in self.spec.at(index):
            if kind == "poison":
                raise ChaosError(f"injected poison at point {index}")
            if kind == "exc" and self._claim(kind, index):
                raise ChaosError(f"injected transient failure at point {index}")
            if kind == "kill" and self._claim(kind, index):
                os.kill(os.getpid(), signal.SIGKILL)
            if kind == "hang" and self._claim(kind, index):
                time.sleep(_HANG_SLEEP_S)

    def after_checkpoint(self, index: int, checkpoint: Path | None) -> None:
        """Fire any post-checkpoint injections scheduled at ``index``.

        ``corrupt`` truncates the checkpoint file to half its size —
        tearing the final line of a segment, or leaving a ``<key>.json``
        undecodable — which is exactly the damage a crash mid-write (or
        a bad disk) leaves behind.
        """
        if checkpoint is None:
            return
        for kind in self.spec.at(index):
            if kind == "corrupt" and self._claim(kind, index):
                try:
                    size = checkpoint.stat().st_size
                    with open(checkpoint, "r+b") as handle:
                        handle.truncate(max(size // 2, 1))
                except OSError:
                    pass


# ----------------------------------------------------------------------
# Resilient point execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Resilience:
    """The engine's per-point fault-handling configuration.

    ``None`` anywhere in the engine means the historical behaviour
    (raise through); a :class:`Resilience` means retry + quarantine.
    ``chaos_dir`` is resolved by the engine (markers live next to the
    checkpoints) so workers reconstruct an identical injector.
    """

    retry: RetryPolicy = RetryPolicy()
    point_timeout_s: float | None = None
    chaos: ChaosSpec | None = None
    chaos_dir: str | None = None

    def injector(self) -> ChaosInjector | None:
        """This configuration's chaos injector (``None`` when chaos-free)."""
        if self.chaos is None or not self.chaos.injections or self.chaos_dir is None:
            return None
        return ChaosInjector(self.chaos, self.chaos_dir)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (ships to worker processes in the context)."""
        return {
            "retry": self.retry.to_dict(),
            "point_timeout_s": self.point_timeout_s,
            "chaos": self.chaos.to_text() if self.chaos is not None else None,
            "chaos_dir": self.chaos_dir,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Resilience":
        """Rebuild a configuration from :meth:`to_dict` output."""
        chaos = data.get("chaos")
        return cls(
            retry=RetryPolicy.from_dict(data["retry"]),
            point_timeout_s=data.get("point_timeout_s"),
            chaos=ChaosSpec.parse(chaos) if chaos else None,
            chaos_dir=data.get("chaos_dir"),
        )


def quarantine_row(
    axis_values: dict[str, Any], exc: BaseException, attempts: int
) -> dict[str, Any]:
    """The result row recorded for a point that exhausted its retries.

    Carries the point's axis values (so the table stays rectangular and
    filterable), a ``status`` marker, the final error rendered as
    ``Type: message`` (truncated — checkpoints are not log files), and
    the attempt count.
    """
    row = dict(axis_values)
    message = f"{type(exc).__name__}: {exc}"
    row["status"] = QUARANTINED
    row["error"] = message[:500]
    row["attempts"] = attempts
    return row


def run_point_resilient(
    run_point_fn: Callable[[Any, Any], dict[str, Any]],
    spec: Any,
    point: Any,
    index: int,
    key: str,
    resilience: Resilience,
    injector: ChaosInjector | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[dict[str, Any], bool]:
    """Run one grid point under the full fault-handling policy.

    Returns ``(row, quarantined)``.  Transient failures retry with the
    policy's backoff; permanent failures, and transient ones that
    exhaust ``max_attempts``, quarantine — the returned row is the
    :func:`quarantine_row` and ``quarantined`` is ``True``.
    ``KeyboardInterrupt``/``SystemExit`` always propagate (the operator
    outranks the policy).  The point timeout also covers the chaos
    hooks, so it interrupts an injected ``hang``.  ``sleep`` is
    injectable for deterministic tests.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            with time_limit(resilience.point_timeout_s):
                if injector is not None:
                    injector.before_point(index)
                return run_point_fn(spec, point), False
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - the taxonomy decides
            if (
                classify_error(exc) == "permanent"
                or attempts >= resilience.retry.max_attempts
            ):
                return quarantine_row(point.axis_values(), exc, attempts), True
            sleep(resilience.retry.delay_s(key, attempts - 1))


# ----------------------------------------------------------------------
# Supervised execution
# ----------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side state of one supervised worker process."""

    __slots__ = ("worker_id", "process", "task_queue", "heartbeat", "lease")

    def __init__(self, worker_id: int, process: Any, task_queue: Any, heartbeat: Path) -> None:
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.heartbeat = heartbeat
        self.lease: int | None = None  # chunk id currently leased, if any


def _portable(exc: BaseException) -> BaseException:
    """``exc`` ready to re-raise in the parent process.

    The worker's traceback does not survive pickling, so its text rides
    along as an exception note; an exception that cannot make the trip
    at all is replaced by a ``RuntimeError`` naming it.
    """
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any pickling failure
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    if hasattr(exc, "add_note"):
        exc.add_note(f"worker traceback:\n{text}")
    return exc


def _supervised_worker_main(
    worker_id: int,
    heartbeat: Path,
    task_queue: Any,
    result_queue: Any,
    worker_fn: Callable[[Any, list[Any]], list[Any]],
    context: Any,
) -> None:
    """Worker process body: beat, pull a chunk lease, run it point-wise.

    Each chunk item runs through ``worker_fn`` individually with a beat
    after every item, so the heartbeat's staleness bounds *point* (not
    chunk) duration and a mid-chunk death loses at most the in-flight
    point.  An exception from ``worker_fn`` ends the chunk and goes to
    the parent in place of its results.  A ``None`` lease is the
    shutdown sentinel.
    """
    write_heartbeat(heartbeat)
    while True:
        message = task_queue.get()
        if message is None:
            return
        chunk_id, items = message
        write_heartbeat(heartbeat)
        out: list[Any] = []
        try:
            for item in items:
                out.extend(worker_fn(context, [item]))
                write_heartbeat(heartbeat)
        except BaseException as exc:  # noqa: BLE001 - the parent re-raises it
            result_queue.put((worker_id, chunk_id, _portable(exc)))
            continue
        result_queue.put((worker_id, chunk_id, out))


class SupervisedExecutor:
    """A self-healing process pool: leases, heartbeats, reclaim, respawn.

    Parameters
    ----------
    jobs:
        Worker processes to keep alive (subject to the respawn budget).
    worker_fn:
        ``worker_fn(context, [item]) -> list[result]`` — the campaign
        engine passes its chunk worker; called one item at a time so
        heartbeats track point boundaries.  An exception it raises is
        re-raised by :meth:`run` after the workers shut down; it is not
        retried on another worker.
    context:
        Opaque per-run state handed to every ``worker_fn`` call
        (workers inherit it by fork, like the rest of the parent's
        state, such as its default trace store; nothing is pickled).
    hearts_dir:
        Directory for the per-worker heartbeat files.
    hang_timeout_s:
        A leased worker whose heartbeat is older than this is declared
        hung, SIGKILLed, and its chunk reclaimed.  Must exceed the
        worst legitimate single-point wall time.  ``None`` (default)
        sets no deadline; dead workers are reclaimed either way.
    respawn_budget:
        Total replacement workers the run may spawn; exhausted + no
        live workers + pending work raises :class:`SupervisionError`.
    reclaim:
        ``reclaim(items) -> (salvaged, remaining)`` called when a
        worker's lease is reclaimed: ``salvaged`` results (e.g. points
        the dead worker already checkpointed) merge straight into the
        output; ``remaining`` items are re-queued.  Defaults to
        recomputing the whole chunk.
    poll_s:
        Supervisor loop cadence: how often results are drained and
        health is checked.
    """

    def __init__(
        self,
        jobs: int,
        worker_fn: Callable[[Any, list[Any]], list[Any]],
        context: Any,
        hearts_dir: str | Path,
        hang_timeout_s: float | None = None,
        respawn_budget: int | None = None,
        reclaim: Callable[[list[Any]], tuple[list[Any], list[Any]]] | None = None,
        poll_s: float = 0.1,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.worker_fn = worker_fn
        self.context = context
        self.hearts_dir = Path(hearts_dir)
        self.hang_timeout_s = hang_timeout_s
        self.respawn_budget = respawn_budget if respawn_budget is not None else 2 * jobs
        self.reclaim = reclaim
        self.poll_s = poll_s
        #: Counters exposed for reporting/tests: deaths seen, hangs
        #: seen, workers respawned, chunks reclaimed, points salvaged.
        self.stats: dict[str, int] = {
            "dead": 0, "hung": 0, "respawned": 0, "reclaimed": 0, "salvaged": 0,
        }

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self, ctx: Any, result_queue: Any, worker_id: int) -> _WorkerHandle:
        task_queue = ctx.Queue()
        heartbeat = self.hearts_dir / f"worker-{worker_id}.hb"
        heartbeat.unlink(missing_ok=True)
        process = ctx.Process(
            target=_supervised_worker_main,
            args=(
                worker_id, heartbeat, task_queue, result_queue,
                self.worker_fn, self.context,
            ),
            daemon=True,
        )
        process.start()
        return _WorkerHandle(worker_id, process, task_queue, heartbeat)

    @staticmethod
    def _kill(worker: _WorkerHandle) -> None:
        try:
            worker.process.kill()
        except (OSError, ValueError):
            pass
        worker.process.join(timeout=5.0)
        worker.task_queue.close()

    # -- the supervisor loop -------------------------------------------

    def run(self, chunks: list[list[Any]]) -> Iterable[list[Any]]:
        """Execute every chunk under supervision; yields result payloads.

        Output order is completion order (the campaign engine merges by
        run key, so ordering is immaterial).  Re-raises the first
        exception a ``worker_fn`` call raises, once dispatch has stopped
        and the workers are shut down.  Raises :class:`SupervisionError`
        only when every worker is gone, the respawn budget is spent,
        and work is still pending — by which point everything completed
        is already checkpointed by the worker function itself.
        """
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.hearts_dir.mkdir(parents=True, exist_ok=True)
        result_queue = ctx.Queue()
        chunk_items: dict[int, list[Any]] = dict(enumerate(chunks))
        pending: deque[int] = deque(chunk_items)
        closed: set[int] = set()
        next_chunk_id = len(chunks)
        workers: dict[int, _WorkerHandle] = {}
        next_worker_id = 0
        respawns_left = self.respawn_budget
        for _ in range(min(self.jobs, max(1, len(chunks)))):
            workers[next_worker_id] = self._spawn(ctx, result_queue, next_worker_id)
            next_worker_id += 1
        try:
            while len(closed) < len(chunk_items):
                # Dispatch pending chunks to idle, live workers.
                for worker in workers.values():
                    if not pending:
                        break
                    if worker.lease is None and worker.process.is_alive():
                        chunk_id = pending.popleft()
                        worker.lease = chunk_id
                        worker.task_queue.put((chunk_id, chunk_items[chunk_id]))
                # Drain one completion (or time out into a health check).
                try:
                    worker_id, chunk_id, payload = result_queue.get(timeout=self.poll_s)
                except queue.Empty:
                    pass
                else:
                    if isinstance(payload, BaseException):
                        raise payload
                    worker = workers.get(worker_id)
                    if worker is not None and worker.lease == chunk_id:
                        worker.lease = None
                    if chunk_id not in closed:
                        closed.add(chunk_id)
                        yield payload
                    continue  # dispatch freed workers before health checks
                # Health-check every worker; reclaim leases of the lost.
                now = time.time()
                for worker_id in list(workers):
                    worker = workers[worker_id]
                    alive = worker.process.is_alive()
                    if worker.lease is None:
                        if not alive:
                            self.stats["dead"] += 1
                            del workers[worker_id]
                        continue
                    hung = (
                        alive
                        and self.hang_timeout_s is not None
                        and heartbeat_age_s(worker.heartbeat, now) > self.hang_timeout_s
                    )
                    if alive and not hung:
                        continue
                    self.stats["hung" if hung else "dead"] += 1
                    self._kill(worker)
                    del workers[worker_id]
                    lease = worker.lease
                    if lease in closed:
                        continue  # its result landed before the death was seen
                    items = chunk_items[lease]
                    salvaged, remaining = (
                        self.reclaim(items) if self.reclaim is not None else ([], list(items))
                    )
                    self.stats["reclaimed"] += 1
                    self.stats["salvaged"] += len(salvaged)
                    closed.add(lease)
                    if salvaged:
                        yield salvaged
                    if remaining:
                        chunk_items[next_chunk_id] = remaining
                        pending.append(next_chunk_id)
                        next_chunk_id += 1
                    if respawns_left > 0:
                        workers[next_worker_id] = self._spawn(
                            ctx, result_queue, next_worker_id
                        )
                        next_worker_id += 1
                        respawns_left -= 1
                        self.stats["respawned"] += 1
                if len(closed) < len(chunk_items) and not workers:
                    if respawns_left > 0:
                        workers[next_worker_id] = self._spawn(
                            ctx, result_queue, next_worker_id
                        )
                        next_worker_id += 1
                        respawns_left -= 1
                        self.stats["respawned"] += 1
                    else:
                        raise SupervisionError(
                            f"all workers lost with {len(chunk_items) - len(closed)} "
                            f"chunk(s) unfinished and the respawn budget "
                            f"({self.respawn_budget}) spent; completed points are "
                            f"checkpointed — rerun to resume"
                        )
        finally:
            for worker in workers.values():
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):
                    pass
            for worker in workers.values():
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    self._kill(worker)
            result_queue.close()
            result_queue.cancel_join_thread()
