"""Adam optimizer with bias correction."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NumericalError
from .tensor import Tensor

# elements per in-place update; the two scratch buffers hold one chunk each
CHUNK = 1 << 15
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a named parameter list, updated in place.

    Aborts with the offending parameter's name on a missing, misshapen or
    non-finite gradient, before any state changes, and on a second moment
    that overflowed.  The update runs in chunks of ``CHUNK`` elements through
    two scratch buffers, so a step allocates nothing parameter-sized; every
    element sees the same operations as the whole-array formula.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float = 1e-4):
        self.names = [n for n, _ in named_params]
        self.params = [p for _, p in named_params]
        self.lr = lr
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]
        self._scratch = (np.empty(CHUNK), np.empty(CHUNK))

    def step(self) -> None:
        for name, p in zip(self.names, self.params):
            g = p.grad
            if g is None:
                raise NumericalError(f"parameter {name!r} has no gradient; run backward first")
            if g.shape != p.data.shape:
                raise DimensionError(f"adam: grad shape {g.shape} != shape {p.data.shape} "
                                     f"of parameter {name!r}")
            # exact and allocation-free: NaN propagates through min and max,
            # and +-inf are the extremes
            if not (math.isfinite(g.min()) and math.isfinite(g.max())):
                raise NumericalError(f"non-finite gradient in parameter {name!r}")
        self.step_count += 1
        b1, b2, lr = BETA1, BETA2, self.lr
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p, m, v in zip(self.names, self.params, self.first_moment,
                                 self.second_moment):
            flat = (p.data.reshape(-1), p.grad.reshape(-1), m.reshape(-1), v.reshape(-1))
            for lo in range(0, flat[0].size, CHUNK):
                pc, gc, mc, vc = (a[lo:lo + CHUNK] for a in flat)
                t, s = (buf[:pc.size] for buf in self._scratch)
                # m = b1*m + (1-b1)*g
                mc *= b1
                np.multiply(gc, 1.0 - b1, out=t)
                mc += t
                with np.errstate(over="ignore"):  # overflow is detected and raised below
                    # v = b2*v + (1-b2)*g*g
                    vc *= b2
                    np.multiply(gc, 1.0 - b2, out=t)
                    t *= gc
                    vc += t
                if not math.isfinite(vc.max()):
                    # finite gradients can still overflow when squared; a non-finite
                    # moment would otherwise freeze this parameter silently forever
                    raise NumericalError(f"diverged second moment in parameter {name!r}")
                # p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
                np.divide(mc, bc1, out=t)
                t *= lr
                np.divide(vc, bc2, out=s)
                np.sqrt(s, out=s)
                s += EPS
                t /= s
                pc -= t

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
