"""Adam optimizer behavior."""

import warnings

import numpy as np
import pytest

from rtnet.errors import DimensionError, NumericalError
from rtnet.optim import CHUNK, Adam
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
        """With bias correction, the first update is -lr * |g| / (|g| + eps), which
        is -lr * sign(g) to within 1e-7 relative for these gradients."""
        (p,) = params_of([0.0, 0.0])
        g = np.array([0.5, -2.0])
        step_with(p, g, lr=1e-3)
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

    def test_misshapen_grad_names_parameter(self):
        (p,) = params_of([1.0, 2.0, 3.0])
        with pytest.raises(DimensionError,
                           match=r"adam: grad shape \(1, 3\) != shape \(3,\) of parameter 'p'"):
            step_with(p, [[0.1, 0.2, 0.3]])
        assert np.array_equal(p.data, [1.0, 2.0, 3.0])


def reference_adam(p, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The whole-array Adam formula, step by step: (p, m, v) after ``grads``."""
    p = p.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for step, g in enumerate(grads, 1):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + eps)
    return p, m, v


class TestChunkedUpdate:
    SIZES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)

    @pytest.mark.parametrize("size", SIZES)
    def test_bit_identical_to_the_whole_array_formula(self, size):
        rng = np.random.default_rng(size)
        start = rng.normal(size=size)
        # gradients over six decades, so rounding differs from element to element
        grads = [rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size) for _ in range(5)]
        # a 2-D parameter, as a conv weight is; Tensor would share ``start``
        p = Tensor(start.reshape(-1, 1).copy(), requires_grad=True)
        opt = Adam([("p", p)], lr=3e-3)
        for g in grads:
            p.grad = g.reshape(p.data.shape)
            opt.step()
        want_p, want_m, want_v = reference_adam(start, grads, lr=3e-3)
        assert np.array_equal(p.data.ravel(), want_p)
        assert np.array_equal(opt.first_moment[0].ravel(), want_m)
        assert np.array_equal(opt.second_moment[0].ravel(), want_v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_last_chunk_raises_before_any_state_changes(self, bad):
        """Every gradient is checked before the first element moves: neither
        the finite parameter before it nor the bad one's earlier chunks change."""
        rng = np.random.default_rng(0)
        a, b = params_of(rng.normal(size=5), rng.normal(size=3 * CHUNK + 7))
        opt = Adam([("first", a), ("cpn.last", b)], lr=1e-2)
        for p in (a, b):
            p.grad = rng.normal(size=p.data.shape)
        opt.step()
        before = [x.copy() for x in (a.data, b.data, *opt.first_moment, *opt.second_moment)]
        a.grad = rng.normal(size=5)
        b.grad = rng.normal(size=b.data.shape)
        b.grad[-1] = bad
        with pytest.raises(NumericalError, match="'cpn.last'"):
            opt.step()
        after = (a.data, b.data, *opt.first_moment, *opt.second_moment)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        assert opt.step_count == 1

    def test_overflowing_second_moment_raises_without_a_warning(self):
        """A finite gradient whose square overflows is a diverged second
        moment, reported by name, not a numpy RuntimeWarning."""
        (p,) = params_of(np.zeros(CHUNK + 3))
        opt = Adam([("head.v", p)])
        p.grad = np.ones(CHUNK + 3)
        p.grad[-1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="diverged second moment.*'head.v'"):
                opt.step()
