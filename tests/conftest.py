"""Shared fixtures: gradient checking, synthetic series, dataset discovery."""

import importlib.util
import io
import os
import warnings
import zipfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from rtnet.tensor import GradTape, Tensor, backward, mse_loss, reshape
from rtnet.training import AUGMENT_KINDS, sample_batch_condition1

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


def sq_sum(t: Tensor) -> Tensor:
    """sum(t * t) as a recorded scalar, through the model's own MSE op, so
    the gradient reaching ``t`` is 2t: a different seed at every element."""
    flat = reshape(t, (1, 1, t.size))
    return mse_loss(flat, np.zeros(flat.shape))[0]


def check_condition1(offsets: np.ndarray, l_in: int, alpha: float) -> bool:
    """Oracle for the overlap-limited sampler: True when every pairwise
    overlap is <= L_in - L_in/alpha."""
    off = np.sort(np.asarray(offsets))
    if off.size < 2:
        return True
    overlap = np.maximum(0, l_in - np.diff(off))
    return bool(np.all(overlap <= l_in - l_in / alpha + 1e-9))


def piecewise_contrastive_batch(ds, batch: int, l_in: int, alpha: float, n_augments: int,
                                beta: float, rng: np.random.Generator) -> np.ndarray:
    """Oracle for ``training.make_contrastive_batch``: the originals, then each
    augmented instance as its own piece, a kind drawn for it, concatenated."""
    offsets = sample_batch_condition1(len(ds), batch, l_in, alpha, rng)
    originals = ds.values[offsets[:, None] + np.arange(l_in)]
    pieces = [originals]
    for m in range(batch):
        for _ in range(n_augments):
            kind = AUGMENT_KINDS[rng.integers(0, len(AUGMENT_KINDS))]
            w = originals[m]
            if kind == "scaling":
                piece = w * (1.0 + rng.uniform(-beta, beta, w.shape))
            elif kind == "jittering":
                piece = w + rng.uniform(-beta, beta, w.shape)
            else:
                piece = w * (1.0 + rng.uniform(-beta, beta))
            pieces.append(piece[None])
    return np.concatenate(pieces, axis=0)


def per_group_contrastive_loss(reps: np.ndarray, n_windows: int, n_augments: int):
    """Oracle for ``training.contrastive_loss``: the loss group by group, as
    the library computed it before it batched the groups, in plain numpy.

    Returns (total, per-variate means, (groups, n_windows) per-window
    losses, the gradient of the total with respect to ``reps``).
    """
    total_inst, groups, _ = reps.shape
    n = n_windows
    mask = np.zeros((n, total_inst))
    for m in range(n):
        mask[m, n + m * n_augments: n + (m + 1) * n_augments] = 1.0
    total = 0.0
    per_variate = np.empty(groups)
    per_window = np.empty((groups, n))
    grad = np.zeros(reps.shape)
    for g in range(groups):
        x = reps[:, g].copy()
        inv = 1.0 / np.linalg.norm(x, axis=1)
        h = x * inv[:, None]
        dots = (h @ h.T)[:n]
        sims = np.exp(np.abs(dots))
        den = sims.sum(axis=1)
        num = (sims * mask).sum(axis=1) + np.e
        per_window[g] = np.log(den) - np.log(num)
        per_variate[g] = per_window[g].sum() * (1.0 / n)
        total += per_variate[g]
        # backward, op by op
        g_sims = (1.0 / n) * (1.0 / den[:, None] - mask / num[:, None])
        g_dots = g_sims * sims * np.sign(dots)
        g_h = g_dots.T @ h[:n]
        g_h[:n] += g_dots @ h
        grad[:, g] = (g_h - h * (g_h * h).sum(axis=1)[:, None]) * inv[:, None]
    return total, per_variate, per_window, grad


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


def rewrite_members(path, edit):
    """Rewrite the zip at ``path`` after ``edit`` changes, in place, the list of its
    ``[name, bytes]`` members in their order; a name may then appear twice."""
    with zipfile.ZipFile(path) as zf:
        members = [[info.filename, zf.read(info)] for info in zf.infolist()]
    edit(members)
    with warnings.catch_warnings(), zipfile.ZipFile(path, "w") as zf:
        warnings.simplefilter("ignore", UserWarning)  # zipfile warns of a repeated name
        for name, data in members:
            zf.writestr(name, data)


def npy_bytes(array) -> bytes:
    """``array`` in the ``.npy`` format, as ``np.save`` writes it."""
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


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


def _load_by_path(name: str, path: Path):
    """Import one file as a module without putting its directory on sys.path,
    where perfbench's run, layers and machine modules could shadow others."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's ETT-shaped generator: (n, 7) values and their names, target last
synthetic_multivariate = _load_by_path(
    "perfbench_synth", Path(__file__).resolve().parent.parent / "perfbench" / "synth.py"
).synthetic_multivariate


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
