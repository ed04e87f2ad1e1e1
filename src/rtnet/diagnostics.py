"""Forecast metrics, partial autocorrelation, and the input-length sweep."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, DimensionError


def metrics(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) over all elements."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DimensionError(f"metrics: {pred.shape} vs {truth.shape}")
    diff = pred - truth
    return float(np.mean(diff ** 2)), float(np.mean(np.abs(diff)))


@dataclass
class PacfResult:
    lags: np.ndarray
    phi: np.ndarray            # phi_kk per lag
    n: int
    confidence_band: float     # 1.96 / sqrt(n)


def autocovariance(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased (1/n) autocovariances c_0..c_max_lag; nonnegative definite."""
    x = np.asarray(series, dtype=np.float64).ravel()
    n = x.size
    x = x - x.mean()
    return np.array([x[:n - k] @ x[k:] / n for k in range(max_lag + 1)])


def pacf(series: np.ndarray, max_lag: int) -> PacfResult:
    """Partial autocorrelations phi_kk by the Durbin-Levinson recursion."""
    x = np.asarray(series, dtype=np.float64).ravel()
    if max_lag < 1:
        raise ConfigError(f"max_lag must be >= 1, got {max_lag}")
    if x.size <= max_lag + 1:
        raise DataError(f"series of {x.size} points is too short for max_lag={max_lag}")
    gamma = autocovariance(x, max_lag)
    if gamma[0] <= 0.0:
        raise DataError("zero-variance series has no partial autocorrelations")

    phi_kk = np.zeros(max_lag)
    prev = np.zeros(max_lag)
    v = gamma[0]
    phi_kk[0] = gamma[1] / gamma[0]
    prev[0] = phi_kk[0]
    v *= 1.0 - phi_kk[0] ** 2
    for k in range(2, max_lag + 1):
        num = gamma[k] - prev[:k - 1] @ gamma[k - 1:0:-1]
        phi_kk[k - 1] = num / v
        prev[:k - 1] = prev[:k - 1] - phi_kk[k - 1] * prev[:k - 1][::-1]
        prev[k - 1] = phi_kk[k - 1]
        v *= 1.0 - phi_kk[k - 1] ** 2
    return PacfResult(np.arange(1, max_lag + 1), phi_kk, x.size,
                      1.96 / np.sqrt(x.size))


@dataclass
class SweepResult:
    lengths: list[int]
    mean_mse: list[float]
    std_mse: list[float]
    mean_mae: list[float]
    std_mae: list[float]
    best_length: int
    near_best: list[int] = field(default_factory=list)   # descriptive only: within 5% of best
    skipped: list[tuple[int, str]] = field(default_factory=list)

    def rows(self) -> list[dict]:
        return [{"length": l, "mean_mse": m, "std_mse": s, "mean_mae": a, "std_mae": t}
                for l, m, s, a, t in zip(self.lengths, self.mean_mse, self.std_mse,
                                         self.mean_mae, self.std_mae)]


def input_length_sweep(lengths: list[int], seeds: list[int],
                       run_cell: Callable[[int, int], tuple[float, float]],
                       admissible: Callable[[int], bool] | None = None) -> SweepResult:
    """Run (length x seed) cells and aggregate; inadmissible lengths are skipped."""
    kept: list[int] = []
    mean_mse: list[float] = []
    std_mse: list[float] = []
    mean_mae: list[float] = []
    std_mae: list[float] = []
    skipped: list[tuple[int, str]] = []
    for length in lengths:
        if admissible is not None and not admissible(length):
            skipped.append((length, "inadmissible input length for the model config"))
            continue
        mses, maes = [], []
        for seed in seeds:
            mse, mae = run_cell(length, seed)
            mses.append(mse)
            maes.append(mae)
        kept.append(length)
        mean_mse.append(float(np.mean(mses)))
        std_mse.append(float(np.std(mses)))
        mean_mae.append(float(np.mean(maes)))
        std_mae.append(float(np.std(maes)))
    if not kept:
        raise ConfigError("no admissible input length in the sweep")
    best_i = int(np.argmin(mean_mse))
    near = [l for l, m in zip(kept, mean_mse) if m <= mean_mse[best_i] * 1.05]
    return SweepResult(kept, mean_mse, std_mse, mean_mae, std_mae,
                       best_length=kept[best_i], near_best=near, skipped=skipped)


def line_plot_svg(xs: list[float], series: dict[str, list[float]],
                  title: str, x_label: str, y_label: str,
                  width: int = 640, height: int = 400) -> str:
    """A dependency-free SVG line chart (one polyline per named series)."""
    if not xs or not series:
        raise DimensionError("line_plot_svg needs at least one point")
    pad = 60
    all_y = [y for ys in series.values() for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
             f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" '
             f'font-size="12">{x_label}</text>',
             f'<text x="16" y="{height / 2}" text-anchor="middle" font-size="12" '
             f'transform="rotate(-90 16 {height / 2})">{y_label}</text>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
             f'stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>']
    for x in xs:
        parts.append(f'<text x="{sx(x):.1f}" y="{height - pad + 16}" text-anchor="middle" '
                     f'font-size="10">{x:g}</text>')
    for frac in (0.0, 0.5, 1.0):
        y = y_lo + frac * y_span
        parts.append(f'<text x="{pad - 6}" y="{sy(y):.1f}" text-anchor="end" '
                     f'font-size="10">{y:.3g}</text>')
    for i, (label, ys) in enumerate(series.items()):
        color = colors[i % len(colors)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="{color}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * i}" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def sweep_svg(result: SweepResult) -> str:
    return line_plot_svg([float(l) for l in result.lengths],
                         {"mean MSE": result.mean_mse, "mean MAE": result.mean_mae},
                         "Forecast error vs input length", "input length", "error")
