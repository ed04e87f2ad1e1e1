"""Adam optimizer behavior."""

import numpy as np
import pytest

from rtnet.errors import NumericalError
from rtnet.optim import Adam
from rtnet.tensor import Tensor


def params_of(*arrays):
    return [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in arrays]


def step_with(p, grad, **kw):
    """One Adam step on a single parameter named 'p' with the given gradient."""
    opt = Adam([("p", p)], **kw)
    p.grad = np.asarray(grad, dtype=np.float64)
    opt.step()
    return opt


class TestAdamStep:
    def test_zero_gradient_keeps_params(self):
        (p,) = params_of([1.0, -2.0])
        before = p.data.copy()
        step_with(p, np.zeros(2), lr=0.1)
        assert np.array_equal(p.data, before)

    def test_zero_lr_updates_moments_only(self):
        (p,) = params_of([1.0])
        opt = step_with(p, [3.0], lr=0.0)
        assert np.array_equal(p.data, [1.0])
        assert opt.first_moment[0] == pytest.approx([0.3])
        assert opt.second_moment[0] == pytest.approx([0.009])

    def test_first_step_is_signed_lr(self):
        """With bias correction, the first update is ~ -lr * sign(g) as eps -> 0."""
        (p,) = params_of([0.0, 0.0])
        g = np.array([0.5, -2.0])
        step_with(p, g, lr=1e-3, eps=1e-12)
        assert p.data == pytest.approx([-1e-3, 1e-3], rel=1e-6)

    def test_step_increments_by_one(self):
        (p,) = params_of([1.0])
        opt = Adam([("p", p)])
        for expected in (1, 2, 3):
            p.grad = np.array([1.0])
            opt.step()
            assert opt.step_count == expected

    def test_nonfinite_gradient_names_parameter(self):
        (p,) = params_of([1.0])
        opt = Adam([("head.weight", p)])
        p.grad = np.array([np.nan])
        with pytest.raises(NumericalError, match="head.weight"):
            opt.step()


class TestAdamWrapper:
    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        for _ in range(200):
            p.grad = 2.0 * p.data  # d/dp p^2
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_missing_grad_raises(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("p", p)])
        with pytest.raises(NumericalError, match="'p'"):
            opt.step()
