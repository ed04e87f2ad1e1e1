"""Partial autocorrelation and an SVG line chart."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError


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


def line_plot_svg(xs: list[float], series: dict[str, list[float]],
                  title: str, x_label: str, y_label: str) -> str:
    """A dependency-free SVG line chart (one polyline per named series)."""
    if not xs or not series:
        raise DimensionError("line_plot_svg needs at least one point")
    width, height, pad = 640, 400, 60
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

