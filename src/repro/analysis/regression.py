"""Linear fits and outlier margins used by Algorithm 1.

Algorithm 1 of the paper fits a straight line through the points
``(T_i, PDF(T_i))`` and flags points far above the line as outliers.
The pseudocode computes the fit as::

    slope     = std(PDF(T)) / std(T)
    intercept = mean(PDF(T)) - slope * mean(T)

which is *not* ordinary least squares — it is the standard-deviation
line (OLS slope equals ``r * std(y)/std(x)``; the paper drops the
correlation factor ``r``).  :func:`paper_line_fit` implements the
pseudocode exactly, so the reproduction matches the published
algorithm, and returns a :class:`LineFit` with slope/intercept and
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LineFit", "paper_line_fit", "outlier_margin", "find_outliers"]


@dataclass(frozen=True, slots=True)
class LineFit:
    """A fitted straight line ``f(x) = slope * x + intercept``."""

    slope: float
    intercept: float

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the line."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept

    def residuals(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Signed vertical distances ``y - f(x)``."""
        return np.asarray(y, dtype=np.float64) - self(np.asarray(x))


def paper_line_fit(x: np.ndarray, y: np.ndarray) -> LineFit:
    """The line fit exactly as Algorithm 1 lines 4-6 specify.

    ``slope = std(y)/std(x)`` (population std), ``intercept`` chosen so
    the line passes through the sample means.  Degenerate inputs
    (constant ``x``) produce a horizontal line through ``mean(y)``.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if x_arr.size != y_arr.size:
        raise ValueError("x and y must have equal length")
    if x_arr.size == 0:
        raise ValueError("cannot fit a line to an empty sample")
    sx = float(np.std(x_arr))
    sy = float(np.std(y_arr))
    slope = sy / sx if sx > 0 else 0.0
    intercept = float(np.mean(y_arr)) - slope * float(np.mean(x_arr))
    return LineFit(slope=slope, intercept=intercept)


def outlier_margin(y: np.ndarray, factor: float = 0.5) -> float:
    """Algorithm 1 line 7: ``margin = var(PDF(T)) * factor``.

    The paper sets the margin to half the variance.  ``factor`` is
    exposed for the margin-sweep ablation bench.
    """
    if factor < 0:
        raise ValueError("margin factor must be non-negative")
    return float(np.var(np.asarray(y, dtype=np.float64))) * factor


def find_outliers(
    x: np.ndarray,
    y: np.ndarray,
    fit: LineFit,
    margin: float,
) -> np.ndarray:
    """Indices of points lying more than ``margin`` *above* the fit line.

    Algorithm 1 lines 8-13: a point is an outlier when
    ``PDF(T_i) - f(T_i) > margin``.  Only upward deviations count —
    latency modes create spikes above the trend, never below.
    """
    residuals = fit.residuals(np.asarray(x), np.asarray(y))
    return np.flatnonzero(residuals > margin)
