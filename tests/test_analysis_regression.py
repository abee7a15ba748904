"""Unit tests for line fits and outlier margins (Algorithm 1 steps 2-3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    LineFit,
    find_outliers,
    outlier_margin,
    paper_line_fit,
)


class TestPaperLineFit:
    def test_slope_is_std_ratio(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 2.0, 4.0, 6.0])
        fit = paper_line_fit(x, y)
        assert fit.slope == pytest.approx(np.std(y) / np.std(x))
        # Passes through the means.
        assert fit(np.mean(x)) == pytest.approx(np.mean(y))

    def test_perfectly_linear_data_recovered(self):
        x = np.linspace(0, 10, 50)
        y = 3.0 * x + 1.0
        fit = paper_line_fit(x, y)
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(1.0)

    def test_slope_always_non_negative(self):
        # std ratio is non-negative even for anti-correlated data — the
        # documented deviation from OLS.
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([2.0, 1.0, 0.0])
        assert paper_line_fit(x, y).slope >= 0.0

    def test_constant_x_gives_horizontal_line(self):
        fit = paper_line_fit(np.array([5.0, 5.0]), np.array([1.0, 3.0]))
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            paper_line_fit(np.array([]), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paper_line_fit(np.array([1.0]), np.array([1.0, 2.0]))


class TestOutliers:
    def test_margin_is_half_variance_by_default(self):
        y = np.array([0.1, 0.2, 0.3, 0.4])
        assert outlier_margin(y) == pytest.approx(np.var(y) / 2)

    def test_margin_factor(self):
        y = np.array([0.1, 0.5])
        assert outlier_margin(y, factor=1.0) == pytest.approx(np.var(y))

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            outlier_margin(np.array([1.0]), factor=-1.0)

    def test_find_outliers_flags_upward_spikes_only(self):
        x = np.arange(10, dtype=float)
        y = np.full(10, 0.1)
        y[4] = 0.9   # upward spike
        y[7] = -0.7  # downward spike (must not count)
        fit = LineFit(slope=0.0, intercept=0.1)
        out = find_outliers(x, y, fit, margin=0.2)
        assert list(out) == [4]

    def test_no_outliers_when_margin_large(self):
        x = np.arange(5, dtype=float)
        y = np.array([0.1, 0.2, 0.1, 0.2, 0.1])
        fit = paper_line_fit(x, y)
        assert find_outliers(x, y, fit, margin=10.0).size == 0

    def test_residuals(self):
        fit = LineFit(slope=1.0, intercept=0.0)
        res = fit.residuals(np.array([1.0, 2.0]), np.array([2.0, 2.0]))
        np.testing.assert_allclose(res, [1.0, 0.0])
