"""Plain-text reporting helpers shared by benches and examples.

Every experiment returns structured rows; these helpers render them as
aligned text tables (the closest a terminal gets to the paper's plots)
and as CDF series sampled on log grids.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from ..analysis.distribution import EmpiricalCDF, log_spaced_grid
from ..campaign.results import ResultsTable

__all__ = [
    "format_table",
    "format_cdf_series",
    "cdf_series",
    "format_us",
    "campaign_report",
    "t_critical_95",
    "seed_summary",
    "ab_verdict",
    "ab_campaign_report",
]


def format_us(value_us: float) -> str:
    """Human-readable rendering of a microsecond quantity."""
    if value_us != value_us:  # NaN
        return "n/a"
    if abs(value_us) >= 1e6:
        return f"{value_us / 1e6:.3g} s"
    if abs(value_us) >= 1e3:
        return f"{value_us / 1e3:.3g} ms"
    return f"{value_us:.3g} us"


def format_table(rows: Iterable[Mapping[str, object]], title: str = "") -> str:
    """Render dict-rows as an aligned text table.

    Column order follows the first row's key order; missing cells
    render empty.  Numbers are shown with sensible precision.
    """
    rows = list(rows)
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1e5 or abs(value) < 1e-3:
                return f"{value:.3e}"
            return f"{value:.4g}"
        return str(value)

    table = [[cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in table)) for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def cdf_series(
    samples: np.ndarray, points_per_decade: int = 8
) -> list[tuple[float, float]]:
    """Sample an empirical CDF on a log grid → ``[(x_us, p), ...]``.

    The compact series is what benches print so the paper's log-axis
    CDF figures can be eyeballed (and regression-tested) as text.
    """
    positive = np.asarray(samples, dtype=np.float64)
    positive = positive[positive > 0]
    if positive.size == 0:
        return []
    cdf = EmpiricalCDF(positive)
    grid = log_spaced_grid(cdf.min, cdf.max, points_per_decade)
    # np.logspace rounds the endpoint down by an ulp or two; pin it so
    # the series always closes at probability 1.
    grid[-1] = cdf.max
    return [(float(x), float(cdf(x))) for x in grid]


def format_cdf_series(
    series_by_label: Mapping[str, list[tuple[float, float]]],
    quantiles: tuple[float, ...] = (0.1, 0.5, 0.9),
) -> str:
    """Summarise several CDF series as a quantile table.

    Full series are unwieldy in text; the decile summary captures the
    curve positions the paper's figures compare visually.
    """
    rows = []
    for label, series in series_by_label.items():
        if not series:
            rows.append({"curve": label})
            continue
        xs = np.array([x for x, _ in series])
        ps = np.array([p for _, p in series])
        row: dict[str, object] = {"curve": label}
        for q in quantiles:
            idx = int(np.searchsorted(ps, q))
            idx = min(idx, len(xs) - 1)
            row[f"p{int(q * 100)}"] = format_us(float(xs[idx]))
        rows.append(row)
    return format_table(rows)


def campaign_report(
    spec,
    table: ResultsTable,
    n_resumed: int = 0,
    n_computed: int | None = None,
) -> str:
    """Consolidated markdown report for one campaign run.

    Header (what ran, how much was resumed), the full results table,
    and — when the grid spans several devices or methods — compact
    per-axis mean summaries of the numeric columns, which is usually
    the comparison a sweep was run to make.
    """
    lines = [f"# Campaign report: {spec.name}", ""]
    if spec.description:
        lines += [spec.description.strip(), ""]
    total = len(table)
    computed = n_computed if n_computed is not None else total - n_resumed
    lines += [
        f"- action: `{spec.action}`",
        f"- grid points: {total} ({n_resumed} resumed from checkpoint, {computed} computed)",
        f"- axes: {len(spec.workloads)} workload selector(s) x {len(spec.devices)} device(s)"
        f" x {len(spec.methods)} method(s) x {len(spec.n_requests)} size(s)",
        "",
        "## Results",
        "",
        table.to_markdown(),
        "",
    ]
    numeric = [
        name
        for name, values in table.columns.items()
        if values and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
        and name != "n_requests"
    ]
    for axis in ("device", "method"):
        if axis not in table.columns or not numeric:
            continue
        levels = list(dict.fromkeys(table.column(axis)))
        if len(levels) < 2:
            continue
        rows = []
        for level in levels:
            subset = table.select(**{axis: level})
            rows.append(
                {
                    axis: level,
                    **{
                        name: float(np.mean(subset.column(name)))
                        for name in numeric
                    },
                }
            )
        lines += [f"## Mean by {axis}", "", ResultsTable.from_rows(rows).to_markdown(), ""]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# multi-seed A/B statistics (treatment-vs-baseline campaign verdicts)
# ----------------------------------------------------------------------

#: Two-sided 95% critical values of Student's t (df 1..30; the normal
#: 1.96 beyond).  Hardcoded so the significance verdicts need no scipy.
_T_CRIT_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t_critical_95(df: float) -> float:
    """Two-sided 95% Student-t critical value for ``df`` degrees of freedom.

    Fractional ``df`` (Welch–Satterthwaite) is floored, which rounds
    the critical value *up* — the conservative direction for a
    significance call.
    """
    if df < 1.0:
        return float("inf")
    index = int(df)  # floor for positive df
    if index > len(_T_CRIT_95):
        return 1.960
    return _T_CRIT_95[index - 1]


def seed_summary(values: Iterable[float]) -> dict[str, float]:
    """Replicate summary: ``n``, ``mean``, sample ``std``, 95% CI half-width.

    With fewer than two replicates the spread is undefined; ``std`` and
    ``ci95`` come back NaN so callers can render "n/a" rather than a
    fake zero-width interval.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    n = int(arr.size)
    mean = float(arr.mean()) if n else float("nan")
    if n < 2:
        return {"n": n, "mean": mean, "std": float("nan"), "ci95": float("nan")}
    std = float(arr.std(ddof=1))
    return {"n": n, "mean": mean, "std": std, "ci95": t_critical_95(n - 1) * std / np.sqrt(n)}


def ab_verdict(baseline: Iterable[float], treatment: Iterable[float]) -> dict[str, object]:
    """Welch's t-test of ``treatment - baseline`` at 95% confidence.

    Returns the delta, its confidence interval half-width, the t
    statistic with Welch–Satterthwaite degrees of freedom, and a
    human-readable ``verdict``: ``"significant"`` / ``"not
    significant"``, or ``"insufficient replicates (need >= 2 per
    arm)"`` when either arm has fewer than two values.
    """
    a = np.asarray(list(baseline), dtype=np.float64)
    b = np.asarray(list(treatment), dtype=np.float64)
    delta = float(b.mean() - a.mean()) if a.size and b.size else float("nan")
    out: dict[str, object] = {
        "delta": delta,
        "delta_ci95": float("nan"),
        "t": float("nan"),
        "df": float("nan"),
        "significant": False,
    }
    if a.size < 2 or b.size < 2:
        out["verdict"] = "insufficient replicates (need >= 2 per arm)"
        return out
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    se_sq = var_a / a.size + var_b / b.size
    if se_sq == 0.0:
        # Zero spread in both arms: any nonzero delta is exact.
        out["t"] = float("inf") if delta else 0.0
        out["df"] = float(a.size + b.size - 2)
        out["delta_ci95"] = 0.0
        out["significant"] = delta != 0.0
        out["verdict"] = "significant" if delta else "not significant"
        return out
    t_stat = delta / float(np.sqrt(se_sq))
    df = se_sq**2 / (
        (var_a / a.size) ** 2 / (a.size - 1) + (var_b / b.size) ** 2 / (b.size - 1)
    )
    critical = t_critical_95(df)
    out["t"] = float(t_stat)
    out["df"] = float(df)
    out["delta_ci95"] = critical * float(np.sqrt(se_sq))
    out["significant"] = abs(t_stat) > critical
    out["verdict"] = "significant" if out["significant"] else "not significant"
    return out


def _numeric_columns(table: ResultsTable) -> list[str]:
    return [
        name
        for name, values in table.columns.items()
        if values
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
        and name != "n_requests"
    ]


def ab_campaign_report(spec, table: ResultsTable) -> str:
    """Multi-seed A/B section: treatment-vs-baseline deltas with verdicts.

    Driven by ``spec.options["ab"]``: ``baseline`` / ``treatment`` are
    device-*name* prefixes that split the grid into two arms (each
    matching device — typically one per seed — contributes one
    replicate per grid cell), and ``metrics`` optionally restricts the
    compared columns.  Cells (workload x method x n_requests) are
    compared independently; each gets per-arm means with 95% confidence
    intervals and a Welch's-t significance verdict on the delta.
    """
    ab = dict(spec.options.get("ab") or {})
    baseline_prefix = str(ab.get("baseline", "healthy"))
    treatment_prefix = str(ab.get("treatment", "degraded"))
    metrics = ab.get("metrics") or _numeric_columns(table)
    rows = table.rows()
    lines = [
        f"## A/B: {treatment_prefix}* vs {baseline_prefix}* (95% confidence)",
        "",
        f"- baseline arm: devices named `{baseline_prefix}*`",
        f"- treatment arm: devices named `{treatment_prefix}*`",
        "",
    ]
    cell_axes = ("workload", "method", "n_requests")
    cells = list(dict.fromkeys(tuple(r.get(a) for a in cell_axes) for r in rows))
    compared = 0
    for cell in cells:
        cell_rows = [r for r in rows if tuple(r.get(a) for a in cell_axes) == cell]
        arm_a = [r for r in cell_rows if str(r.get("device", "")).startswith(baseline_prefix)]
        arm_b = [r for r in cell_rows if str(r.get("device", "")).startswith(treatment_prefix)]
        if not arm_a or not arm_b:
            continue
        compared += 1
        label = ", ".join(f"{a}={v}" for a, v in zip(cell_axes, cell))
        out_rows = []
        for metric in metrics:
            if metric not in table.columns:
                continue
            a_values = [float(r[metric]) for r in arm_a]
            b_values = [float(r[metric]) for r in arm_b]
            summary_a = seed_summary(a_values)
            summary_b = seed_summary(b_values)
            verdict = ab_verdict(a_values, b_values)
            out_rows.append(
                {
                    "metric": metric,
                    f"{baseline_prefix} mean": summary_a["mean"],
                    f"{baseline_prefix} ci95": summary_a["ci95"],
                    f"{treatment_prefix} mean": summary_b["mean"],
                    f"{treatment_prefix} ci95": summary_b["ci95"],
                    "delta": verdict["delta"],
                    "delta ci95": verdict["delta_ci95"],
                    "t": verdict["t"],
                    "df": verdict["df"],
                    "verdict": verdict["verdict"],
                }
            )
        lines += [f"### {label}", "", ResultsTable.from_rows(out_rows).to_markdown(), ""]
    if not compared:
        lines += [
            f"(no grid cell contains both `{baseline_prefix}*` and "
            f"`{treatment_prefix}*` devices — nothing to compare)",
            "",
        ]
    return "\n".join(lines)
