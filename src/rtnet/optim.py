"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalError
from .tensor import Tensor


class Adam:
    """Adam over a named parameter list, updated in place.

    Aborts with the offending parameter's name on a missing, misshapen or
    non-finite gradient, and on a second moment that overflowed.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.names = [n for n, _ in named_params]
        self.params = [p for _, p in named_params]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for name, p in zip(self.names, self.params):
            if p.grad is None:
                raise NumericalError(f"parameter {name!r} has no gradient; run backward first")
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p, m, v in zip(self.names, self.params, self.first_moment,
                                 self.second_moment):
            g = p.grad
            if g.shape != p.data.shape:
                raise DimensionError(f"adam: grad shape {g.shape} != shape {p.data.shape} "
                                     f"of parameter {name!r}")
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient in parameter {name!r}")
            m *= b1
            m += (1.0 - b1) * g
            with np.errstate(over="ignore"):  # overflow is detected and raised below
                v *= b2
                v += (1.0 - b2) * g * g
            if not np.all(np.isfinite(v)):
                # finite gradients can still overflow when squared; a non-finite
                # moment would otherwise freeze this parameter silently forever
                raise NumericalError(f"diverged second moment in parameter {name!r}")
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
