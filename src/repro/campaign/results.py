"""Columnar results table aggregated from campaign run points.

Each completed grid point yields one flat row (axis values plus the
action's metrics); :class:`ResultsTable` holds the aggregate
column-wise, mirroring the columnar trace containers: one list per
column, equal lengths, order = plan order.  The table is not stored
on its own: the checkpoint segments hold its rows, and ``repro-campaign
report`` rebuilds it from them.  It renders to CSV and markdown for
reports, and compares exactly — the property the resume tests rely on
(interrupted-then-resumed must equal uninterrupted).
"""

from __future__ import annotations

import csv
import io
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

__all__ = ["ResultsTable"]


class ResultsTable:
    """An ordered, columnar table of campaign results.

    Built from rows (:meth:`from_rows`); columns appear in
    first-encountered key order, and rows missing a column hold
    ``None`` there.
    """

    def __init__(self, columns: dict[str, list[Any]]) -> None:
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns: {lengths}")
        self.columns: dict[str, list[Any]] = {k: list(v) for k, v in columns.items()}

    # -- construction --------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, Any]]) -> "ResultsTable":
        """Assemble a table from dict rows (column order = key order)."""
        names: list[str] = []
        for row in rows:
            for key in row:
                if key not in names:
                    names.append(key)
        columns: dict[str, list[Any]] = {name: [] for name in names}
        for row in rows:
            for name in names:
                columns[name].append(row.get(name))
        return cls(columns)

    # -- access --------------------------------------------------------

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultsTable):
            return NotImplemented
        return self.columns == other.columns

    def __repr__(self) -> str:
        return f"ResultsTable({len(self)} rows x {len(self.columns)} columns)"

    def column(self, name: str) -> list[Any]:
        """One column as a list (plan order)."""
        return list(self.columns[name])

    def rows(self) -> list[dict[str, Any]]:
        """The table as dict rows (plan order)."""
        names = list(self.columns)
        return [
            {name: self.columns[name][i] for name in names} for i in range(len(self))
        ]

    def quarantined(self) -> "ResultsTable":
        """Only the quarantined rows (empty table when there are none)."""
        if "status" not in self.columns:
            return ResultsTable({name: [] for name in self.columns})
        return self.select(status="quarantined")

    def without_quarantined(self) -> "ResultsTable":
        """The table minus quarantined rows *and* their marker columns.

        Quarantine adds ``status``/``error``/``attempts`` keys that only
        quarantined rows carry; once those rows are dropped the marker
        columns are all-``None`` noise, so they are dropped too.  The
        result of a disturbed-but-recovered campaign therefore compares
        equal (``==``, column-for-column) to an undisturbed run's table
        — the chaos harness's oracle property.
        """
        if "status" not in self.columns:
            return ResultsTable(self.columns)
        keep = [
            i for i in range(len(self)) if self.columns["status"][i] != "quarantined"
        ]
        pruned = {
            name: [values[i] for i in keep] for name, values in self.columns.items()
        }
        for marker in ("status", "error", "attempts"):
            values = pruned.get(marker)
            if values is not None and all(v is None for v in values):
                del pruned[marker]
        return ResultsTable(pruned)

    def select(self, **conditions: Any) -> "ResultsTable":
        """Rows whose columns equal every given value (exact match)."""
        keep = [
            i
            for i in range(len(self))
            if all(self.columns[k][i] == v for k, v in conditions.items())
        ]
        return ResultsTable(
            {name: [values[i] for i in keep] for name, values in self.columns.items()}
        )

    # -- rendering -----------------------------------------------------

    @staticmethod
    def _cell(value: Any) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            if value != value or value in (float("inf"), float("-inf")):
                return str(value)
            if value == int(value) and abs(value) < 1e15:
                return f"{value:.1f}"
            return f"{value:.6g}"
        return str(value)

    def to_csv(self, path: str | Path | None = None) -> str:
        """CSV text (and write it to ``path`` when given)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(list(self.columns))
        for row in self.rows():
            writer.writerow([self._cell(v) for v in row.values()])
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_markdown(self) -> str:
        """A GitHub-flavoured markdown table of the results."""
        names = list(self.columns)
        if not names:
            return "(empty table)"
        lines = [
            "| " + " | ".join(names) + " |",
            "| " + " | ".join("---" for _ in names) + " |",
        ]
        for row in self.rows():
            lines.append("| " + " | ".join(self._cell(v) for v in row.values()) + " |")
        return "\n".join(lines)
