"""PACF against two independent oracles, and the SVG line chart."""

import numpy as np
import pytest

from conftest import ar_series
from rtnet.diagnostics import autocovariance, line_plot_svg, pacf
from rtnet.errors import DataError, DimensionError


def yule_walker_last_coeff(series, k):
    """Oracle: solve the order-k Yule-Walker system directly; phi_kk is the
    last coefficient.  Same estimator as Durbin-Levinson, different algorithm."""
    gamma = autocovariance(series, k)
    toeplitz = np.array([[gamma[abs(i - j)] for j in range(k)] for i in range(k)])
    phi = np.linalg.solve(toeplitz, gamma[1:k + 1])
    return phi[-1]


def regression_partial_corr(series, k):
    """Oracle: correlation of OLS residuals of Y_t and Y_{t-k} on the
    intervening lags (the defining property of a partial autocorrelation)."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    rows = np.column_stack([x[k - j:n - j] for j in range(k + 1)])  # [Y_t, Y_{t-1}, ..., Y_{t-k}]
    y_t, middle, y_tk = rows[:, 0], rows[:, 1:k], rows[:, k]
    design = np.column_stack([np.ones(rows.shape[0]), middle])
    res_t = y_t - design @ np.linalg.lstsq(design, y_t, rcond=None)[0]
    res_tk = y_tk - design @ np.linalg.lstsq(design, y_tk, rcond=None)[0]
    return float(np.corrcoef(res_t, res_tk)[0, 1])


class TestPacf:
    def test_white_noise_inside_band(self):
        x = np.random.default_rng(3).normal(size=10_000)
        result = pacf(x, 10)
        inside = np.abs(result.phi) < 3.0 / np.sqrt(result.n)
        assert inside.sum() >= 9

    def test_ar1_signature(self):
        x = ar_series([0.5], 10_000, seed=4)
        result = pacf(x, 6)
        assert result.phi[0] == pytest.approx(0.5, abs=0.05)
        assert np.all(np.abs(result.phi[1:]) < 0.05)

    def test_ar2_matches_regression_oracle(self):
        x = ar_series([0.5, -0.3], 10_000, seed=5)
        result = pacf(x, 6)
        assert result.phi[1] == pytest.approx(-0.3, abs=0.05)
        assert result.phi[1] == pytest.approx(regression_partial_corr(x, 2), abs=0.01)

    def test_durbin_levinson_equals_yule_walker_solve(self):
        """1e-6 agreement with the direct linear-system oracle on n=2000."""
        x = ar_series([0.4, 0.2, -0.1], 2000, seed=6)
        result = pacf(x, 12)
        for k in (1, 2, 3, 5, 8, 12):
            assert result.phi[k - 1] == pytest.approx(
                yule_walker_last_coeff(x, k), abs=1e-6)

    def test_magnitudes_bounded_by_one(self):
        for seed in range(5):
            x = ar_series([0.9], 500, seed=seed)
            assert np.all(np.abs(pacf(x, 20).phi) <= 1.0 + 1e-9)

    def test_confidence_band(self):
        x = np.random.default_rng(7).normal(size=400)
        assert pacf(x, 5).confidence_band == pytest.approx(1.96 / 20.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError):
            pacf(np.ones(100), 5)

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            pacf(np.arange(10.0), 10)


class TestSvg:
    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            line_plot_svg([], {}, "t", "x", "y")
