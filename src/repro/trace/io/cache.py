"""Content-keyed on-disk cache of binary traces.

:class:`TraceStore` maps a *content key* — a stable description of
everything that determines a trace's bytes (workload spec parameters,
device fingerprint, collection flags, source-file digest, ...) — to a
:mod:`store <repro.trace.io.store>` ``.npz`` file.  Generated catalog
traces and parsed public traces are materialised once per key; every
later run (including every worker process of the parallel experiment
runner) loads columns straight from disk instead of re-deriving them.

Keys are hashed with SHA-1 and prefixed with the binary
:data:`~repro.trace.io.store.STORE_FORMAT_VERSION`, so bumping the
format version orphans (and therefore invalidates) every existing
entry.  Corrupt or stale entries are treated as misses and rebuilt.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from pathlib import Path

from ..trace import BlockTrace
from .store import STORE_FORMAT_VERSION, TraceStoreError, load_trace_npz, save_trace_npz

__all__ = ["TraceStore", "default_trace_store_dir", "get_default_store", "set_default_store"]

#: Environment overrides: the store directory and a master off switch
#: ("0"/"false"/"no" disable the default store, e.g. for bit-repro
#: runs).
_ENV_DIR = "REPRO_TRACE_STORE_DIR"
_ENV_ENABLED = "REPRO_TRACE_STORE"


def default_trace_store_dir() -> Path:
    """``$REPRO_TRACE_STORE_DIR`` or ``~/.cache/repro-tracetracker/traces``."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-tracetracker" / "traces"


class TraceStore:
    """A directory of content-keyed binary traces.

    Parameters
    ----------
    root:
        Cache directory (created lazily); defaults to
        :func:`default_trace_store_dir`.
    enabled:
        A disabled store never touches disk: :meth:`load` always
        misses and :meth:`get_or_build` always builds.  This keeps one
        code path for cached and cache-free runs.
    """

    def __init__(self, root: str | Path | None = None, enabled: bool = True) -> None:
        self.root = Path(root) if root is not None else default_trace_store_dir()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"TraceStore({self.root}, {state}, hits={self.hits}, misses={self.misses})"

    # -- keys ----------------------------------------------------------

    @staticmethod
    def key_for(*parts: str) -> str:
        """Stable content key from descriptive parts (order-sensitive)."""
        digest = hashlib.sha1("\x1f".join(parts).encode("utf-8")).hexdigest()
        return digest

    def path_for(self, key: str) -> Path:
        """On-disk location of a key's entry (version-prefixed)."""
        return self.root / f"v{STORE_FORMAT_VERSION}-{key}.npz"

    # -- access --------------------------------------------------------

    def load(self, key: str) -> BlockTrace | None:
        """The stored trace for ``key``, or ``None`` on a miss.

        Columns are memory-mapped, which is cheap when every worker
        process reads the same catalog traces.  Corrupt and
        wrong-version entries count as misses; the caller
        rebuilds and overwrites them.  A corrupt (truncated, torn)
        entry is additionally quarantined to ``<entry>.bad`` with a
        logged warning, so the broken bytes cannot shadow the rebuilt
        entry and the evidence survives for diagnosis.
        """
        if not self.enabled:
            return None
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            trace = load_trace_npz(path, mmap=True)
        except TraceStoreError as exc:
            self._quarantine(path, exc)
            self.misses += 1
            return None
        self.hits += 1
        return trace

    @staticmethod
    def _quarantine(path: Path, exc: Exception) -> None:
        """Move a corrupt entry aside (best-effort) and warn about it."""
        import logging

        bad = path.with_name(path.name + ".bad")
        try:
            os.replace(path, bad)
        except OSError:
            bad = None  # type: ignore[assignment]
        logging.getLogger(__name__).warning(
            "corrupt trace store entry %s (%s); %s — rebuilding from source",
            path.name,
            exc,
            f"quarantined to {bad.name}" if bad is not None else "could not quarantine",
        )

    def save(self, key: str, trace: BlockTrace) -> None:
        """Best-effort store of ``trace`` under ``key``.

        A full disk or read-only cache directory must never fail the
        run that computed the trace.
        """
        if not self.enabled:
            return
        try:
            save_trace_npz(trace, self.path_for(key))
        except OSError:
            pass

    def get_or_build(self, key: str, build: Callable[[], BlockTrace]) -> BlockTrace:
        """Return the cached trace for ``key``, building and storing on miss.

        Either way the returned trace is stamped with the content key
        (``content_fingerprint``), so downstream memo layers (the
        inference-model cache) can key on the stamp instead of
        re-hashing the columns.  The stamp is valid even for a disabled
        store: the key describes everything that determined the build.
        """
        trace = self.load(key)
        if trace is None:
            trace = build()
            self.save(key, trace)
        trace.content_fingerprint = f"store:{key}"
        return trace


#: Lazily constructed process-wide store (worker processes inherit the
#: configuration through the environment variables above).
_DEFAULT_STORE: TraceStore | None = None


def get_default_store() -> TraceStore:
    """The process-wide default store.

    Enabled only when ``$REPRO_TRACE_STORE_DIR`` points somewhere or
    ``$REPRO_TRACE_STORE`` is truthy — so library users and the test
    suite see no hidden disk traffic unless they opt in.
    """
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        flag = os.environ.get(_ENV_ENABLED, "").strip().lower()
        enabled = bool(os.environ.get(_ENV_DIR)) or flag in ("1", "true", "yes", "on")
        if flag in ("0", "false", "no", "off"):
            enabled = False
        _DEFAULT_STORE = TraceStore(enabled=enabled)
    return _DEFAULT_STORE


def set_default_store(store: TraceStore | None) -> None:
    """Replace (or with ``None``, reset) the process-wide default store."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = store
