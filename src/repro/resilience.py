"""Shared resilience substrate: error taxonomy, retries, timeouts, heartbeats.

Born in :mod:`repro.campaign.supervise` (PR 9) for fault-tolerant
campaign execution, hoisted here because the streaming reconstruction
service (:mod:`repro.service`) needs exactly the same mechanisms: a
long-running process must decide which failures are worth retrying,
sleep a bounded, *deterministic* backoff between attempts, bound the
wall-clock of any single unit of work, and prove its liveness cheaply.

- :func:`classify_error` — the transient-vs-permanent taxonomy.
  *Transient* failures (I/O hiccups, timeouts, vanished files) are
  environmental and worth retrying; *permanent*
  ones (type/value/assertion errors) are properties of the computation
  and every retry would fail identically.
- :class:`RetryPolicy` — capped exponential backoff whose jitter is
  hashed from the work key and attempt number, so different work items
  desynchronise while any one item's schedule is reproducible across
  reruns and test assertions.
- :func:`retry_call` — the generic retry loop over the two: run a
  callable, retry transients through the policy, re-raise permanents
  (and transients that exhaust the budget) to the caller's quarantine
  path.
- :class:`time_limit` — a real-interval ``SIGALRM`` guard so work stuck
  in a pure-Python loop *or* a blocking syscall is interrupted.
- :func:`write_heartbeat` / :func:`heartbeat_age_s` — liveness as a
  file mtime: one ``utime`` per beat, readable by any supervisor.
- :func:`run_cli_command` — the one rule of the ``repro-campaign`` and
  ``repro-serve`` entry points for a reader that closes their stdout
  early: exit 0, silently.

:mod:`repro.campaign.supervise` re-exports everything here, so the
historical ``from repro.campaign.supervise import RetryPolicy`` import
paths keep working.
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TypeVar

__all__ = [
    "PermanentPointError",
    "PointTimeout",
    "RetryPolicy",
    "TransientPointError",
    "classify_error",
    "heartbeat_age_s",
    "retry_call",
    "run_cli_command",
    "time_limit",
    "write_heartbeat",
]

_T = TypeVar("_T")


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------


class TransientPointError(RuntimeError):
    """A failure worth retrying (environment, not computation)."""


class PermanentPointError(RuntimeError):
    """A failure retrying cannot fix (the computation is wrong)."""


class PointTimeout(TransientPointError):
    """Work exceeded its wall-clock budget (hang or pathological cost)."""


#: Exception types retried without further inspection.  ``TimeoutError``
#: and friends are ``OSError`` subclasses, listed for documentation.
_TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    TransientPointError,
    TimeoutError,
    ConnectionError,
    InterruptedError,
    BlockingIOError,
    OSError,
)

#: Exception types quarantined immediately: they are properties of the
#: work item's computation, so every retry would fail identically.
_PERMANENT_TYPES: tuple[type[BaseException], ...] = (
    PermanentPointError,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    AssertionError,
    ZeroDivisionError,
    NotImplementedError,
    MemoryError,
)


def classify_error(exc: BaseException) -> str:
    """``"transient"`` or ``"permanent"`` for one failure.

    The explicit marker classes win, then the permanent types (bugs in
    or triggered by the computation), then the transient types
    (environmental).  Unknown exception types default to *transient*:
    the retry budget bounds the cost of optimism, while misclassifying
    a recoverable hiccup as permanent would quarantine good work.
    """
    if isinstance(exc, PermanentPointError):
        return "permanent"
    if isinstance(exc, TransientPointError):
        return "transient"
    if isinstance(exc, _PERMANENT_TYPES):
        return "permanent"
    if isinstance(exc, _TRANSIENT_TYPES):
        return "transient"
    return "transient"


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``max_attempts`` is the *total* number of tries a work item gets
    (so 1 means no retries).  The delay before retry ``k`` (0-based)
    is::

        min(base_delay_s * multiplier**k, max_delay_s) * (1 + jitter * u)

    where ``u ∈ [0, 1)`` is hashed from the work key and attempt number
    — different items desynchronise (no thundering herd on a shared
    resource) while the same item's schedule is reproducible across
    reruns and test assertions.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_s(self, key: str, attempt: int) -> float:
        """The backoff before retry ``attempt`` (0-based) of ``key``."""
        raw = min(self.base_delay_s * self.multiplier**attempt, self.max_delay_s)
        digest = hashlib.sha1(f"{key}:{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:4], "big") / 2**32
        return raw * (1.0 + self.jitter * fraction)

    def delays(self, key: str) -> list[float]:
        """Every backoff the policy would sleep for ``key``, in order."""
        return [self.delay_s(key, k) for k in range(self.max_attempts - 1)]


def retry_call(
    fn: Callable[[], _T],
    key: str,
    policy: RetryPolicy,
    sleep: Callable[[float], None] = time.sleep,
) -> _T:
    """Run ``fn`` under ``policy``: retry transients, re-raise the rest.

    Permanent failures re-raise immediately; transient ones sleep the
    policy's deterministic backoff (keyed by ``key`` and the attempt
    number) and retry until ``max_attempts`` is spent, then the final
    exception propagates.  ``KeyboardInterrupt``/``SystemExit`` always
    propagate — the operator outranks the policy.  ``sleep`` is
    injectable for deterministic tests.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return fn()
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - the taxonomy decides
            if classify_error(exc) == "permanent" or attempts >= policy.max_attempts:
                raise
            sleep(policy.delay_s(key, attempts - 1))


# ----------------------------------------------------------------------
# Wall-clock timeouts
# ----------------------------------------------------------------------


#: The longest interval :class:`time_limit` arms (about 68 years);
#: ``setitimer`` overflows the platform's ``time_t`` on larger ones.
_MAX_TIMER_S = float(2**31 - 1)


class time_limit:
    """Context manager: raise :class:`PointTimeout` after ``seconds``.

    Armed with ``signal.setitimer`` (real time), so work stuck in a
    pure-Python loop *or* a blocking syscall is interrupted.  A budget
    longer than about 68 years arms that cap instead.  A ``None`` or
    non-positive budget, a non-main thread, or a platform without
    ``SIGALRM`` all degrade to a no-op — an external heartbeat deadline
    is the backstop there.
    """

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self._armed = False
        self._previous: Any = None

    def _usable(self) -> bool:
        return (
            self.seconds is not None
            and self.seconds > 0
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )

    def __enter__(self) -> "time_limit":
        if self._usable():
            def _on_alarm(signum: int, frame: Any) -> None:
                raise PointTimeout(f"point exceeded {self.seconds}s wall-clock budget")

            self._previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, min(float(self.seconds), _MAX_TIMER_S))
            self._armed = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._armed = False


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------


def write_heartbeat(path: Path) -> None:
    """Record liveness: create the file once, then bump its mtime.

    The beat is the mtime, not the contents, so a beat after creation
    is one ``utime`` syscall — cheap enough to fire at every work-item
    boundary.
    """
    try:
        os.utime(path)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(str(os.getpid()), encoding="utf-8")
    except OSError:
        pass


def heartbeat_age_s(path: Path, now: float | None = None) -> float:
    """Seconds since the last beat (infinite when the file is missing)."""
    try:
        mtime = path.stat().st_mtime
    except OSError:
        return float("inf")
    return max(0.0, (now if now is not None else time.time()) - mtime)


# ----------------------------------------------------------------------
# Command-line exits
# ----------------------------------------------------------------------


def run_cli_command(command: Callable[..., int], *args: Any) -> int:
    """Run a CLI subcommand; a reader that closes stdout ends it with 0.

    ``repro-campaign plan spec.yaml | head -3`` closes the pipe while
    the command may still be writing.  That is neither bad input nor a
    failure, so the ``BrokenPipeError`` ends the command with status 0
    and no message.  Output still buffered is flushed inside the guard,
    and after a broken pipe stdout's descriptor points at
    ``os.devnull``, so the interpreter's exit-time flush cannot complain
    either.
    """
    try:
        code = command(*args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 0  # a stream without a descriptor has nothing to flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 0
