"""Seeded ETT-shaped synthetic data, written as a CSV the program parses.

The recipe matches the seven-variate transformer-load layout the test suite
uses: two tightly coupled pairs, two independents and an AR(2) target in the
last column, stamped hourly.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

START = datetime(2016, 7, 1)


def ar_series(coeffs, n: int, seed: int, burn_in: int = 200) -> np.ndarray:
    """A stationary AR(p) sample path with unit-variance innovations."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    rng = np.random.default_rng(seed)
    p = coeffs.size
    x = np.zeros(n + burn_in)
    eps = rng.normal(0.0, 1.0, n + burn_in)
    for t in range(p, n + burn_in):
        x[t] = coeffs @ x[t - p:t][::-1] + eps[t]
    return x[burn_in:]


def synthetic_multivariate(n: int, seed: int) -> tuple[np.ndarray, list[str]]:
    """(n, 7) values and their column names; the target is last."""
    rng = np.random.default_rng(seed)
    base1 = ar_series([0.7], n, seed + 1)
    base2 = ar_series([0.6], n, seed + 2)
    cols = {
        "HUFL": base1,
        "HULL": base2,
        "MUFL": base1 * 1.1 + rng.normal(0, 0.12, n),
        "MULL": base2 * 0.9 + rng.normal(0, 0.25, n),
        "LUFL": ar_series([0.4], n, seed + 4),
        "LULL": rng.normal(0, 1, n),
        "OT": ar_series([0.5, -0.3], n, seed + 3),
    }
    names = list(cols)
    return np.column_stack([cols[k] for k in names]), names


def write_csv(path: str, rows: int, seed: int) -> None:
    """Write ``rows`` hourly rows of the seeded series to ``path``."""
    values, names = synthetic_multivariate(rows, seed)
    lines = ["date," + ",".join(names)]
    for i, row in enumerate(values):
        stamp = (START + timedelta(hours=i)).strftime("%Y-%m-%d %H:%M:%S")
        lines.append(stamp + "," + ",".join(f"{v:.6f}" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
