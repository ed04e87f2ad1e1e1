"""Cosine relation matrix between variates, plus the BIC score.

The raw matrix holds absolute cosine similarities computed on the training
split.  Entries under cos(theta) are zeroed, then each column is divided by
its own sum; the processed matrix post-multiplies input windows so variate i
receives a weighted mix of the variates related to it.  Thresholding happens
on raw values, before column standardization, so published raw-cosine tables
are directly comparable to the threshold.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, DimensionError


def cos_relation_matrix(series: np.ndarray, names: list[str] | None = None) -> np.ndarray:
    """Raw |cos| similarity matrix of a (length m, N variates) series, m >= 2."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[0] < 2:
        raise DimensionError(f"cos_relation_matrix expects (m>=2, N), got {series.shape}")
    norms = np.linalg.norm(series, axis=0)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        labels = [names[i] if names else str(i) for i in bad.tolist()]
        raise DataError(f"zero-norm variates: {labels}")
    dots = series.T @ series
    raw = np.abs(dots) / np.outer(norms, norms)
    np.fill_diagonal(raw, 1.0)
    return raw


def threshold_and_standardize(raw: np.ndarray, theta_degrees: float) -> np.ndarray:
    """Zero raw entries below cos(theta), then divide each column by its sum."""
    if not 0.0 <= theta_degrees <= 90.0:
        raise ConfigError(f"theta must lie in [0, 90] degrees, got {theta_degrees}")
    cutoff = np.cos(np.radians(theta_degrees))
    kept = np.where(raw < cutoff, 0.0, raw)
    col_sums = kept.sum(axis=0)
    # the unit diagonal always survives the threshold, so no column can vanish
    assert np.all(col_sums > 0.0), "relation column summed to zero"
    return kept / col_sums


def bic_score(m: int, k: int, log_likelihood: float) -> float:
    """ln(m) * k - 2 * log_likelihood; lower is better."""
    if m < 1:
        raise ConfigError(f"bic_score: m must be >= 1, got {m}")
    if k < 0:
        raise ConfigError(f"bic_score: k must be >= 0, got {k}")
    return float(np.log(m) * k - 2.0 * log_likelihood)


def gaussian_log_likelihood(residuals: np.ndarray, var_floor: float = 1e-12) -> float:
    """Log likelihood of residuals under a zero-mean Gaussian at its MLE variance.

    Equals the direct log-density sum with sigma^2 = mean(r^2), floored for
    degenerate all-zero residuals.
    """
    r = np.asarray(residuals, dtype=np.float64).ravel()
    if r.size == 0:
        raise DimensionError("gaussian_log_likelihood: empty residuals")
    var = max(float(np.mean(r * r)), var_floor)
    m = r.size
    return float(-0.5 * m * (np.log(2.0 * np.pi * var) + 1.0))


def relation_csv(matrix: np.ndarray, names: list[str]) -> str:
    """Render a square matrix as CSV with variate-name header and row labels."""
    lines = ["," + ",".join(names)]
    for name, row in zip(names, matrix):
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"
