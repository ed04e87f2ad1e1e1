"""Shared fixtures: gradient checking, synthetic series, dataset discovery."""

import os
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from rtnet.tensor import GradTape, Tensor, backward

# ---------------------------------------------------------------------------
# finite-difference gradient oracle
# ---------------------------------------------------------------------------

FD_EPS = 1e-5
FD_TOL = 1e-4


def numeric_gradient_at(f, tensor: Tensor, coords, eps: float = FD_EPS) -> np.ndarray:
    """Central finite differences of scalar f() at selected flat coordinates."""
    flat = tensor.data.ravel()
    out = np.empty(len(coords))
    for j, i in enumerate(coords):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        out[j] = (fp - fm) / (2.0 * eps)
    return out


def check_gradients(build, tensors, n_coords: int = 10, seed: int = 0,
                    eps: float = FD_EPS, tol: float = FD_TOL) -> float:
    """Compare tape gradients of scalar build() against finite differences.

    ``build`` must rerun the forward pass from the tensors' current data each
    time it is called.  Checks up to ``n_coords`` random coordinates per
    tensor; returns the worst relative error seen.
    """
    with GradTape() as tape:
        loss = build()
    backward(tape, loss, params=tensors)
    analytic = [t.grad.copy() for t in tensors]

    def forward_value():
        return build().item()

    rng = np.random.default_rng(seed)
    worst = 0.0
    for t, a in zip(tensors, analytic):
        size = t.data.size
        coords = (np.arange(size) if size <= n_coords
                  else rng.choice(size, size=n_coords, replace=False))
        numeric = numeric_gradient_at(forward_value, t, coords, eps)
        ana = a.ravel()[coords]
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(numeric)), 1.0)
        rel = np.abs(ana - numeric) / denom
        worst = max(worst, float(rel.max()))
        assert rel.max() < tol, (
            f"gradient mismatch for {t!r}: analytic {ana[rel.argmax()]:.8g} vs "
            f"numeric {numeric[rel.argmax()]:.8g} (rel {rel.max():.2e})")
    return worst


@pytest.fixture
def gradcheck():
    return check_gradients


def swap_bc(a) -> np.ndarray:
    """Swap the first two axes: a (B, C, L) array to channel-major (C, B, L),
    and back.  Tests keep writing and checking batch-major arrays and cross
    into the channel-major kernels through this."""
    return np.ascontiguousarray(np.swapaxes(np.asarray(a, dtype=np.float64), 0, 1))


def closure_arrays(fn):
    """Every ndarray a grad_fn closure holds, through nested functions."""
    found = []
    for cell in getattr(fn, "__closure__", None) or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif callable(value):
            found.extend(closure_arrays(value))
    return found


def root_base(a):
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def state_checksum(model, names: set[str] | None = None) -> float:
    """Sum of absolute parameter values, over ``names`` or every parameter."""
    return sum(float(np.abs(p.data).sum()) for name, p in model.named_parameters()
               if names is None or name in names)


# ---------------------------------------------------------------------------
# synthetic series
# ---------------------------------------------------------------------------

def ar_series(coeffs, n, noise_std=1.0, seed=0, burn_in=200):
    """A stationary AR(p) sample path."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    rng = np.random.default_rng(seed)
    p = coeffs.size
    x = np.zeros(n + burn_in)
    eps = rng.normal(0.0, noise_std, n + burn_in)
    for t in range(p, n + burn_in):
        x[t] = coeffs @ x[t - p:t][::-1] + eps[t]
    return x[burn_in:]


@pytest.fixture
def make_ar_series():
    return ar_series


def write_csv(path, timestamps, values, names):
    lines = ["date," + ",".join(names)]
    for ts, row in zip(timestamps, values):
        lines.append(ts.strftime("%Y-%m-%d %H:%M:%S") + ","
                     + ",".join(f"{v:.6f}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def hourly(n, start="2016-07-01 00:00:00"):
    t0 = datetime.strptime(start, "%Y-%m-%d %H:%M:%S")
    return [t0 + timedelta(hours=i) for i in range(n)]


def synthetic_multivariate(n, seed=0):
    """Seven variates shaped like a transformer-load file: two tightly coupled
    pairs, two independents, and an AR(2) target."""
    rng = np.random.default_rng(seed)
    base1 = ar_series([0.7], n, seed=seed + 1)
    base2 = ar_series([0.6], n, seed=seed + 2)
    target = ar_series([0.5, -0.3], n, seed=seed + 3)
    cols = {
        "HUFL": base1,
        "HULL": base2,
        "MUFL": base1 * 1.1 + rng.normal(0, 0.12, n),
        "MULL": base2 * 0.9 + rng.normal(0, 0.25, n),
        "LUFL": ar_series([0.4], n, seed=seed + 4),
        "LULL": rng.normal(0, 1, n),
        "OT": target,
    }
    names = list(cols)
    return np.column_stack([cols[k] for k in names]), names


@pytest.fixture
def ett_like_csv(tmp_path):
    """Path to a small synthetic CSV with the transformer-load column layout."""
    values, names = synthetic_multivariate(900, seed=7)
    path = tmp_path / "synthetic_ett.csv"
    write_csv(path, hourly(900), values, names)
    return str(path)


# ---------------------------------------------------------------------------
# real benchmark data (optional; large criteria skip when absent)
# ---------------------------------------------------------------------------

def dataset_path(name: str):
    root = os.environ.get("RTNET_DATA_DIR", str(Path(__file__).resolve().parent.parent / "data"))
    p = Path(root) / f"{name}.csv"
    return str(p) if p.exists() else None


def requires_dataset(name: str):
    return pytest.mark.skipif(
        dataset_path(name) is None,
        reason=f"real {name}.csv not found under data/ or $RTNET_DATA_DIR; "
               "criterion needs the published benchmark file")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL/SKIP line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            label = nodeid.split("::", 1)[1]
            extra = ""
            if outcome == "skipped" and getattr(report, "longrepr", None):
                extra = f"  ({report.longrepr[2]})"
            lines.append((label, outcome.upper(), extra))
    if lines:
        terminalreporter.section("acceptance criteria")
        for label, outcome, extra in sorted(lines):
            terminalreporter.write_line(f"{outcome:<7} {label}{extra}")
