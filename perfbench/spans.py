"""In-memory span recording and per-layer self-time arithmetic.

A traced repetition wraps public functions of the program (from the
benchmark's own files; nothing under ``src/`` changes) so that every
call records a span: name, start, end, parent span and run id.  Spans
stay in memory and are written out once, when the repetition ends.

A span's *self time* is its duration minus the time its direct child
spans cover.  Children run inside their parent on the same thread, so
summing self time over every span gives the summed duration of the
top-level spans, and::

    sum(layer self times) + residual_s == traced wall

where ``residual_s`` is the wall time no top-level span covers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any


@dataclass(frozen=True)
class Span:
    """One timed call at a layer boundary (seconds, ``perf_counter``)."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters for one traced repetition."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span; spans opened inside it are its children."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

    def count(self, name: str, delta: int = 1) -> None:
        self.counts[name] += int(delta)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a function or method) with a spanning wrapper.

        ``owner`` is a module, class or dict; ``on_result`` sees each
        call's return value, to count work done (rows, async gaps, ...).
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def dump(self, path: Path, wall_s: float) -> None:
        """Write the recorded spans, counters and the traced wall as JSON."""
        doc = {
            "run_id": self.run_id,
            "wall_s": wall_s,
            "spans": [asdict(s) for s in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def load_spans(path: Path) -> tuple[list[Span], dict[str, int], float]:
    """Read a :meth:`Tracer.dump` file back: (spans, counts, wall_s)."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [Span(**s) for s in doc["spans"]], doc["counts"], float(doc["wall_s"])


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: duration minus its direct children's durations."""
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.span_id: s.duration - covered[s.span_id] for s in spans}


def layer_table(spans: Iterable[Span], wall_s: float) -> tuple[dict[str, float], float]:
    """Self time summed per span name, and the residual of the wall.

    The rows plus the residual add up to ``wall_s``: every span's time
    is counted once, in its own row or as part of a parent's self time.
    """
    spans = list(spans)
    own = self_times(spans)
    rows: dict[str, float] = defaultdict(float)
    for s in spans:
        rows[s.name] += own[s.span_id]
    top_level = sum(s.duration for s in spans if s.parent is None)
    return dict(rows), wall_s - top_level
