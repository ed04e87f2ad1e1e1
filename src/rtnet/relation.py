"""Cosine relation matrix between variates.

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
