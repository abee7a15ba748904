"""Statistical analysis substrate: distributions, fits, interpolation, steepness.

Everything the software half of TraceTracker needs to turn raw
inter-arrival samples into the latency decomposition of Section III.
"""

from .distribution import (
    DiscretePMF,
    EmpiricalCDF,
    cdf_shape_class,
    log_spaced_grid,
    quantize,
)
from .interpolation import (
    CubicSplineInterpolator,
    PchipInterpolator,
    argmax_derivative,
    interpolate_cdf,
)
from .regression import (
    LineFit,
    find_outliers,
    outlier_margin,
    paper_line_fit,
)
from .steepness import SteepnessResult, select_steepest, steepness_score

__all__ = [
    "DiscretePMF",
    "EmpiricalCDF",
    "cdf_shape_class",
    "log_spaced_grid",
    "quantize",
    "CubicSplineInterpolator",
    "PchipInterpolator",
    "argmax_derivative",
    "interpolate_cdf",
    "LineFit",
    "find_outliers",
    "outlier_margin",
    "paper_line_fit",
    "SteepnessResult",
    "select_steepest",
    "steepness_score",
]
