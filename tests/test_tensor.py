"""Kernel tests: primitive forward values, shapes, group independence, gradients."""

import contextlib
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import closure_arrays, root_base, sq_sum, swap_bc
from test_kernel_fuzz import conv_reference

from rtnet import tensor as tensor_module
from rtnet.errors import ConfigError, DimensionError
from rtnet.tensor import (GradTape, Tensor, add, backward, channel_upsample, concat,
                          contrastive_loss, conv1d_grouped, dropout, group_features,
                          linear_grouped, maxpool1d, mse_loss, permute, relu, relu_dropout,
                          reshape, transpose_12)


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestBackward:
    def test_linear_chain(self):
        x = t([3.0])
        with GradTape() as tape:
            y = reshape(x, (1, 1))
        backward(tape, y, params=[x], seed=np.full((1, 1), 2.0))
        assert x.grad == pytest.approx([2.0])

    def test_unused_parameter_gets_exact_zero(self):
        x = t([1.0, 2.0])
        unused = t([5.0])
        with GradTape() as tape:
            y = sq_sum(x)
        backward(tape, y, params=[x, unused])
        assert np.array_equal(unused.grad, np.zeros(1))

    def test_fanout_accumulates(self):
        x = t([2.0])
        with GradTape() as tape:
            y = add(x, add(x, x))
        backward(tape, y, params=[x], seed=np.ones(1))
        assert x.grad == pytest.approx([3.0])

    def test_nonscalar_root_needs_seed(self):
        x = t([1.0, 2.0])
        with GradTape() as tape:
            y = add(x, x)
        with pytest.raises(DimensionError):
            backward(tape, y, params=[x])

    def test_scalar_root_takes_a_scalar_seed(self):
        """A loss total is 0-d, so a float seed matches it and ``item`` reads it."""
        x = t(np.arange(6.0).reshape(1, 2, 3))
        with GradTape() as tape:
            y, _ = mse_loss(x, np.zeros(x.shape))
        assert y.shape == () and Tensor(2.5).shape == ()
        assert y.item() == 27.5  # (0 + 1 + 4 + 9 + 16 + 25) / 2
        backward(tape, y, params=[x], seed=1.0)
        assert np.array_equal(x.grad, x.data)

    def test_strided_data_is_made_contiguous(self):
        a = np.arange(6.0).reshape(2, 3).T
        x = Tensor(a)
        assert x.data.flags.c_contiguous and np.array_equal(x.data, a)
        contiguous = np.arange(3.0)
        assert Tensor(contiguous).data is contiguous

    def test_off_path_tensor_gets_zero(self):
        x = t([1.0, 2.0])
        z = t([9.0, 9.0])
        with GradTape() as tape:
            dead = add(z, z)  # recorded but never feeds the root
            y = sq_sum(x)
        assert dead.requires_grad
        backward(tape, y, params=[x, z])
        assert np.array_equal(z.grad, np.zeros(2))

    def test_only_listed_params_get_grads(self):
        x = t([1.0, 2.0])
        unreached = t([5.0])
        frozen = t([3.0, 4.0], grad=False)
        with GradTape() as tape:
            h = add(x, frozen)
            y = add(h, h)
        backward(tape, y, params=[x, unreached, frozen], seed=np.ones(2))
        assert np.array_equal(x.grad, [2.0, 2.0])
        assert np.array_equal(unreached.grad, np.zeros(1))
        assert np.array_equal(frozen.grad, np.zeros(2))
        assert h.grad is None and y.grad is None

    def test_backward_spends_the_tape(self):
        """Each node is dropped before the sweep moves on: an array that only
        a closure holds, like the MSE's difference, is freed before the first
        node's gradient runs, and the tape is empty afterwards."""
        x = t(np.random.default_rng(3).normal(size=(2, 3, 4)))
        with GradTape() as tape:
            y = add(x, x)
            loss, _ = mse_loss(y, np.zeros(y.shape))
        first, mse = tape.nodes[0], tape.nodes[1]
        (diff,) = closure_arrays(mse.grad_fn)
        diff_ref = weakref.ref(diff)
        del diff, mse
        first_grad_fn = first.grad_fn
        diff_dead = []

        def spy(g):
            diff_dead.append(diff_ref() is None)
            return first_grad_fn(g)

        first.grad_fn = spy
        del first
        backward(tape, loss, params=[x])
        assert tape.nodes == []
        assert diff_dead == [True]
        np.testing.assert_allclose(x.grad, 8.0 * x.data / 6.0, rtol=1e-15)
        with pytest.raises(ConfigError, match="spent"):
            backward(tape, loss, params=[x])


class TestConv1dGrouped:
    def test_shape_formula(self):
        x = t(np.random.default_rng(0).normal(size=(4, 2, 48)))
        w = t(np.random.default_rng(1).normal(size=(8, 4, 3)))
        b = t(np.zeros(8))
        out = conv1d_grouped(x, w, b, stride=2, padding=1)
        assert out.shape == (8, 2, 24)

    def test_identity_kernel(self):
        x = t(np.random.default_rng(0).normal(size=(1, 1, 10)))
        w = t(np.array([[[0.0, 1.0, 0.0]]]))
        b = t(np.zeros(1))
        out = conv1d_grouped(x, w, b, stride=1, padding=1)
        assert np.allclose(out.data, x.data)

    def test_group_independence_bit_exact(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 2, 3))
        w[2:] = 0.0  # group-2 weights zero
        bias = rng.normal(size=4)
        x1 = rng.normal(size=(3, 4, 16))
        x2 = x1.copy()
        x2[:, :2] = rng.normal(size=(3, 2, 16)) * 100  # perturb group 1 only
        y1 = swap_bc(conv1d_grouped(t(swap_bc(x1)), t(w), t(bias), 1, 1, groups=2).data)
        y2 = swap_bc(conv1d_grouped(t(swap_bc(x2)), t(w), t(bias), 1, 1, groups=2).data)
        assert np.array_equal(y1[:, 2:], y2[:, 2:])
        assert np.allclose(y1[:, 2:], bias[2:, None])

    def test_groups_must_divide(self):
        x = t(np.zeros((1, 3, 8)))
        w = t(np.zeros((4, 1, 3)))
        with pytest.raises(ConfigError):
            conv1d_grouped(x, w, t(np.zeros(4)), groups=2)

    def test_kernel_exceeds_padded_length(self):
        x = t(np.zeros((1, 1, 2)))
        w = t(np.zeros((1, 1, 5)))
        with pytest.raises(DimensionError):
            conv1d_grouped(x, w, t(np.zeros(1)))

    @pytest.mark.parametrize("stride,padding,groups", [(1, 0, 1), (2, 1, 2), (3, 2, 1)])
    def test_gradients(self, gradcheck, stride, padding, groups):
        rng = np.random.default_rng(stride * 7 + padding)
        x = t(swap_bc(rng.normal(size=(2, 4, 11))))
        w = t(rng.normal(size=(4, 4 // groups, 3)))
        b = t(rng.normal(size=4))

        def build():
            return sq_sum(conv1d_grouped(x, w, b, stride, padding, groups))

        gradcheck(build, [x, w, b])


class TestMaxpool:
    def test_basic(self):
        x = t(np.array([[[1.0, 3.0, 2.0, 5.0]]]))
        out = maxpool1d(x, k=2, stride=2)
        assert np.allclose(out.data, [[[3.0, 5.0]]])

    def test_constant_input(self):
        x = t(np.full((2, 3, 8), 4.2))
        assert np.allclose(maxpool1d(x, 3, 2, 1).data, 4.2)

    def test_shape_formula(self):
        x = t(np.zeros((1, 1, 48)))
        assert maxpool1d(x, 3, 2, 1).shape == (1, 1, 24)

    def test_gradient_routes_to_first_argmax(self):
        x = t(np.array([[[2.0, 2.0, 1.0]]]))
        with GradTape() as tape:
            y = maxpool1d(x, 3, 1, 0)
        backward(tape, y, params=[x], seed=np.ones(y.shape))
        assert np.array_equal(x.grad, [[[1.0, 0.0, 0.0]]])

    def test_gradients(self, gradcheck):
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=(2, 3, 12)))

        def build():
            return sq_sum(maxpool1d(x, 3, 2, 1))

        gradcheck(build, [x])


class TestChannelUpsample:
    def test_identity_factor(self):
        x = t(np.random.default_rng(0).normal(size=(1, 4, 5)))
        assert np.array_equal(channel_upsample(x, 1).data, x.data)

    def test_repetition_rule(self):
        x = t(swap_bc([[[1.0, 2.0], [3.0, 4.0]]]))  # channels a, b
        out = channel_upsample(x, 2)
        assert np.array_equal(out.data[:, 0], [[1, 2], [1, 2], [3, 4], [3, 4]])

    def test_group_blocks_stay_contiguous(self):
        rng = np.random.default_rng(1)
        x1 = rng.normal(size=(4, 1, 6))
        x2 = x1.copy()
        x2[:2] += 9.0  # group 1 of 2
        y1 = channel_upsample(t(x1), 3).data
        y2 = channel_upsample(t(x2), 3).data
        assert y1.shape == (12, 1, 6)
        assert np.array_equal(y1[6:], y2[6:])
        assert not np.array_equal(y1[:6], y2[:6])

    def test_gradient_sums_over_copies(self):
        x = t(np.ones((1, 2, 3)))
        with GradTape() as tape:
            y = channel_upsample(x, 4)
        backward(tape, y, params=[x], seed=np.ones(y.shape))
        assert np.array_equal(x.grad, np.full((1, 2, 3), 4.0))


class TestLinearGrouped:
    def test_identity(self):
        x = t(np.random.default_rng(0).normal(size=(3, 5)))
        w = t(np.eye(5))
        out = linear_grouped(x, w, t(np.zeros(5)))
        assert np.allclose(out.data, x.data)

    def test_zero_group_outputs_bias(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(6, 2))
        w[:3] = 0.0  # group 1 of 2
        bias = rng.normal(size=6)
        x = t(rng.normal(size=(4, 4)))
        out = linear_grouped(x, t(w), t(bias), groups=2)
        assert np.allclose(out.data[:, :3], bias[:3])

    def test_group_independence_bit_exact(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(6, 2))
        bias = rng.normal(size=6)
        x1 = rng.normal(size=(4, 4))
        x2 = x1.copy()
        x2[:, :2] = rng.normal(size=(4, 2)) * 1e6  # perturb group 1 of 2
        y1 = linear_grouped(t(x1), t(w), t(bias), groups=2)
        y2 = linear_grouped(t(x2), t(w), t(bias), groups=2)
        assert np.array_equal(y1.data[:, 3:], y2.data[:, 3:])

    def test_head_shape_algebra(self):
        # per-variate concat of 7 groups, 168*16/4 features each -> 24 values per variate
        f_in = 7 * 168 * 16 // 4
        x = t(np.zeros((16, f_in)))
        w = t(np.zeros((24 * 7, f_in // 7)))
        out = linear_grouped(x, w, t(np.zeros(24 * 7)), groups=7)
        assert out.shape == (16, 168)

    def test_gradients(self, gradcheck):
        rng = np.random.default_rng(3)
        x = t(rng.normal(size=(3, 6)))
        w = t(rng.normal(size=(4, 3)))
        b = t(rng.normal(size=4))

        def build():
            y = linear_grouped(x, w, b, groups=2)
            return sq_sum(y)

        gradcheck(build, [x, w, b])


class TestActivations:
    def test_relu_values(self):
        out = relu(t([-2.0, 0.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 3.0])

    def test_dropout_rate_zero_is_identity(self):
        x = t(np.ones(100))
        out = dropout(x, 0.0, np.random.default_rng(0), training=True)
        assert out is x

    def test_dropout_eval_is_identity(self):
        x = t(np.ones(100))
        assert dropout(x, 0.9, np.random.default_rng(0), training=False) is x

    def test_dropout_scales_survivors(self):
        x = t(np.ones(10000))
        out = dropout(x, 0.25, np.random.default_rng(0), training=True)
        kept = out.data[out.data != 0.0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(kept.size / 10000 - 0.75) < 0.03

    def test_dropout_bad_rate(self):
        with pytest.raises(ConfigError):
            dropout(t([1.0]), 1.0, np.random.default_rng(0), True)

    def test_dropout_keeps_the_batch_major_unit_map(self):
        """On a channel-major (C, B, L) tensor, a generator state zeros the
        (b, c, l) units that a (B, C, L) draw of the same state zeros."""
        x = np.random.default_rng(1).normal(size=(4, 3, 9)) + 5.0  # (C, B, L), no zeros
        with GradTape() as tape:
            y = dropout(t(x), 0.4, np.random.default_rng(6), training=True)
        dropped_bcl = np.random.default_rng(6).random((3, 4, 9)) < 0.4
        assert np.array_equal(swap_bc(y.data) == 0.0, dropped_bcl)
        masks = [a for a in closure_arrays(tape.nodes[0].grad_fn) if a.dtype == np.bool_]
        assert len(masks) == 1 and root_base(masks[0]).nbytes == x.size

    @pytest.mark.parametrize("shape", [(40,), (6, 7), (2, 3, 4, 5)])
    def test_dropout_draws_other_shapes_in_their_own_order(self, shape):
        x = np.full(shape, 2.0)
        y = dropout(t(x), 0.3, np.random.default_rng(2), training=True)
        keep = np.random.default_rng(2).random(shape) >= 0.3
        assert np.array_equal(y.data, np.where(keep, 2.0 / 0.7, 0.0))

    def test_dropout_training_without_rng_is_config_error(self):
        with pytest.raises(ConfigError, match="rng"):
            dropout(t([1.0, 2.0]), 0.5, rng=None, training=True)

    def test_relu_keeps_nan(self):
        out = relu(t([np.nan, -1.0, 2.0]))
        assert np.isnan(out.data[0])
        assert np.array_equal(out.data[1:], [0.0, 2.0])

    def test_relu_gradient(self, gradcheck):
        x = t(np.random.default_rng(4).normal(size=(5, 5)) + 0.1)

        def build():
            return sq_sum(relu(x))

        gradcheck(build, [x])


def tied_input(shape, seed):
    """Small integers, so windows tie, with zeros of both signs."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=shape).astype(np.float64)
    zeros = x == 0.0
    x[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    return x


def maxpool_reference(x, g, k, stride, padding):
    """Naive loop: window maximum and first argmax; the gradient goes to the
    argmax, summed tap by tap where windows overlap."""
    B, C, length = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)), constant_values=-np.inf)
    l_out = (length + 2 * padding - k) // stride + 1
    out = np.empty((B, C, l_out))
    amax = np.empty((B, C, l_out), dtype=int)
    for b in range(B):
        for c in range(C):
            for i in range(l_out):
                window = xp[b, c, i * stride:i * stride + k]
                amax[b, c, i] = np.argmax(window)
                out[b, c, i] = window[amax[b, c, i]]
    g_xp = np.zeros(xp.shape)
    span = stride * (l_out - 1) + 1
    for j in range(k):
        g_xp[:, :, j:j + span:stride] += np.where(amax == j, g, 0.0)
    return out, g_xp[:, :, padding:padding + length]


class TestTapeContents:
    """Forward computes only the value; backward state is derived from the
    input and output arrays, and the tape holds nothing else."""

    def run(self, op, x_data, seed=0):
        x = t(x_data)
        with GradTape() as tape:
            y = op(x)
        assert len(tape.nodes) == 1
        node = tape.nodes[0]  # backward spends the tape
        g = np.random.default_rng(seed).normal(size=y.shape)
        backward(tape, y, params=[x], seed=g)
        io = {id(root_base(x.data)), id(root_base(y.data))}
        extra = [a for a in closure_arrays(node.grad_fn) if id(root_base(a)) not in io]
        return y.data, x.grad, g, extra

    def test_relu(self):
        x = tied_input((3, 4, 10), 1)
        out, gx, g, extra = self.run(relu, x)
        assert extra == []
        assert np.array_equal(out, np.where(x > 0.0, x, 0.0))
        assert np.array_equal(gx, g * (x > 0.0))

    @pytest.mark.parametrize("k,stride,padding", [(3, 2, 0), (3, 2, 1), (3, 1, 1), (5, 2, 2), (2, 2, 0)])
    def test_maxpool(self, k, stride, padding):
        x = tied_input((2, 3, 13), 2)
        out, gx, g, extra = self.run(lambda a: maxpool1d(a, k, stride, padding), x)
        assert extra == []
        want_out, want_gx = maxpool_reference(x, g, k, stride, padding)
        assert np.array_equal(out, want_out)
        assert np.array_equal(gx, want_gx)

    CONV_CASES = [(3, 1, 1, 1), (3, 2, 1, 7), (5, 2, 2, 3), (1, 1, 0, 2), (2, 3, 1, 1)]

    @staticmethod
    def conv_case(k, stride, padding, groups):
        """A batch-major input, the weight and bias, and a batch-major
        upstream gradient."""
        rng = np.random.default_rng(k + 10 * stride + 100 * groups)
        B, cpg, opg, length = 2, 2, 3, 13
        x, w, b = (rng.normal(size=shape) for shape in
                   [(B, groups * cpg, length), (groups * opg, cpg, k), (groups * opg,)])
        l_out = (length + 2 * padding - k) // stride + 1
        g = rng.normal(size=(B, groups * opg, l_out))
        return x, w, b, g

    @pytest.mark.parametrize("k,stride,padding,groups", CONV_CASES)
    def test_conv(self, k, stride, padding, groups):
        """The node keeps the weight and its input, and nothing else: no
        im2col columns and no padded copy."""
        x_bcl, w_data, b_data, g = self.conv_case(k, stride, padding, groups)
        x, w, b = t(swap_bc(x_bcl)), t(w_data), t(b_data)
        with GradTape() as tape:
            y = conv1d_grouped(x, w, b, stride, padding, groups)
        assert len(tape.nodes) == 1
        held = closure_arrays(tape.nodes[0].grad_fn)
        backward(tape, y, params=[x, w, b], seed=swap_bc(g))
        assert {id(root_base(a)) for a in held} == {id(x.data), id(w.data)}
        extra = [a for a in held if root_base(a) is not x.data and root_base(a) is not w.data]
        assert extra == []
        want = conv_reference(x_bcl, w_data, b_data, g, stride, padding, groups)
        for got, ref in zip([swap_bc(y.data), swap_bc(x.grad), w.grad, b.grad], want):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k,stride,padding,groups", CONV_CASES)
    def test_conv_skips_the_constant_input_gradient(self, k, stride, padding, groups):
        """A constant input gets no gradient, and the parameter gradients are
        those of the path that computes it, bit for bit."""
        x_bcl, w_data, b_data, g = self.conv_case(k, stride, padding, groups)
        grads = {}
        for x_grad in (True, False):
            x, w, b = t(swap_bc(x_bcl), grad=x_grad), t(w_data), t(b_data)
            with GradTape() as tape:
                conv1d_grouped(x, w, b, stride, padding, groups)
            grads[x_grad] = tape.nodes[0].grad_fn(swap_bc(g))
        assert grads[False][0] is None
        assert grads[True][0].shape == (x_bcl.shape[1], x_bcl.shape[0], x_bcl.shape[2])
        for got, want in zip(grads[False][1:], grads[True][1:]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,augments,groups", [(1, 0, 1), (4, 3, 7), (3, 1, 2)])
    def test_contrastive_loss(self, n, augments, groups):
        """One node.  Its closure holds ``reps``' own array, no normalized
        copy, and besides it only the (T, G, 1) inverse norms, the (n, T)
        positives' mask, the (G, n, T) dot products and similarities and the
        (G, n) denominators and numerators."""
        T = (1 + augments) * n
        reps = t(np.random.default_rng(n).normal(size=(T, groups, 5)))
        with GradTape() as tape:
            total, _, _ = contrastive_loss(reps, n, augments)
        assert len(tape.nodes) == 1 and tape.nodes[0].output is total
        held = closure_arrays(tape.nodes[0].grad_fn)
        assert sum(root_base(a) is reps.data for a in held) == 1
        extra = sorted(a.shape for a in held if root_base(a) is not reps.data)
        assert extra == sorted([(T, groups, 1), (n, T), (groups, n, T), (groups, n, T),
                                (groups, n), (groups, n)])

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.75])
    def test_dropout(self, rate):
        x = tied_input((3, 5, 11), 4)  # (C, B, L)
        out, gx, g, extra = self.run(
            lambda a: dropout(a, rate, np.random.default_rng(8), training=True), x)
        assert len(extra) == 1
        assert extra[0].dtype == np.bool_ and extra[0].shape == out.shape
        keep = swap_bc(np.random.default_rng(8).random((5, 3, 11)) >= rate) / (1 - rate)
        assert np.array_equal(out, x * keep)
        assert np.array_equal(gx, g * keep)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("factor", [None, 1, 2, 3])
    def test_relu_dropout(self, training, factor):
        """The node keeps its own output and, with a shortcut, one byte per
        pooled window, the tap of its first argmax: no input, mask or copy of
        the pooled or repeated shortcut."""
        x = t(tied_input((6, 2, 5), 5))
        s = None if factor is None else t(tied_input((6 // factor, 2, 10), 6))
        with GradTape() as tape:
            y = relu_dropout(x, 0.4, np.random.default_rng(9), training, shortcut=s,
                             kernel=3, stride=2)
        assert len(tape.nodes) == 1
        held = closure_arrays(tape.nodes[0].grad_fn)
        assert root_base(held[0]) is root_base(y.data)
        if factor is None:
            assert len(held) == 1
        else:
            (winner,) = held[1:]
            assert winner.dtype == np.uint8 and winner.shape == (6 // factor, 2, 5)


class TestReluDropout:
    """Argument checks; values and gradients are fuzzed against the composed
    ops in test_kernel_fuzz."""

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5, float("nan")])
    @pytest.mark.parametrize("training", [True, False])
    def test_rate_outside_unit_interval_is_config_error(self, rate, training):
        with pytest.raises(ConfigError, match="rate"):
            relu_dropout(t(np.ones((2, 1, 3))), rate, np.random.default_rng(0), training)

    def test_training_without_rng_is_config_error(self):
        with pytest.raises(ConfigError, match="rng"):
            relu_dropout(t(np.ones((2, 1, 3))), 0.5, None, True)

    @pytest.mark.parametrize("shortcut_shape", [(4, 2, 5), (5, 2, 5), (3, 1, 5), (3, 2, 4),
                                                (3, 10), (0, 2, 5)])
    def test_shortcut_that_does_not_repeat_to_the_input_is_dimension_error(self, shortcut_shape):
        with pytest.raises(DimensionError, match="shortcut"):
            relu_dropout(t(np.ones((6, 2, 5))), 0.5, np.random.default_rng(0), True,
                         shortcut=t(np.ones(shortcut_shape)))

    @pytest.mark.parametrize("kernel,stride,length", [(2, 2, 10), (3, 2, 7), (3, 1, 4)])
    def test_shortcut_that_does_not_pool_to_the_input_length_is_dimension_error(
            self, kernel, stride, length):
        with pytest.raises(DimensionError, match="shortcut"):
            relu_dropout(t(np.ones((6, 2, 5))), 0.5, np.random.default_rng(0), True,
                         shortcut=t(np.ones((3, 2, length))), kernel=kernel, stride=stride)

    @pytest.mark.parametrize("kernel,dtype", [(1, np.uint8), (3, np.uint8), (255, np.uint8),
                                              (257, np.uint16)])
    def test_winner_index_holds_every_tap(self, kernel, dtype):
        """On a rising shortcut each window's maximum is its last real tap,
        up to tap kernel - 1.  The winner index is the smallest unsigned
        dtype that holds that, and the gradient is routed as maxpool1d
        routes it."""
        s = np.arange(300.0).reshape(1, 1, 300)
        g = np.random.default_rng(3).normal(size=(2, 1, 300))
        grads = []
        for fused in (True, False):
            x, ts = t(np.zeros((2, 1, 300))), t(s)
            with GradTape() as tape:
                if fused:
                    y = relu_dropout(x, 0.0, None, False, shortcut=ts, kernel=kernel)
                    (winner,) = closure_arrays(tape.nodes[0].grad_fn)[1:]
                else:
                    y = relu(add(x, channel_upsample(maxpool1d(ts, kernel, 1, kernel // 2), 2)))
            backward(tape, y, params=[ts], seed=g)
            grads.append(ts.grad)
        assert winner.dtype == dtype
        assert np.array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("tape,grad", [(False, True), (True, False)])
    def test_an_unrecorded_join_builds_no_winner_index(self, monkeypatch, tape, grad):
        """Without an active tape, or without an input that requires
        gradients, nothing is recorded, so no winner index is built."""
        built = []
        monkeypatch.setattr(tensor_module, "_first_argmax", lambda *args: built.append(args))
        x, s = t(np.ones((4, 1, 6)), grad), t(np.ones((2, 1, 12)), grad)
        with GradTape() if tape else contextlib.nullcontext():
            relu_dropout(x, 0.0, None, False, shortcut=s, kernel=3, stride=2)
        assert built == []

    @pytest.mark.parametrize("rate,training", [(0.5, False), (0.0, True), (0.0, False)])
    def test_nothing_dropped_draws_nothing(self, rate, training):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        x = np.linspace(-1.0, 1.0, 12).reshape(2, 2, 3)
        s = t(np.full((1, 2, 3), 0.25))
        y = relu_dropout(t(x.copy()), rate, rng, training, shortcut=s)
        assert rng.bit_generator.state == before
        assert np.array_equal(y.data, np.maximum(x + 0.25, 0.0))


class TestElementwiseAndStructural:
    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            add(t(np.zeros(3)), t(np.zeros(4)))

    def test_concat_roundtrip_gradient(self):
        a = t(np.ones((2, 3)))
        b = t(np.ones((2, 5)))
        with GradTape() as tape:
            y = concat([a, b], axis=1)
        backward(tape, y, params=[a, b], seed=np.ones(y.shape))
        assert np.array_equal(a.grad, np.ones((2, 3)))
        assert np.array_equal(b.grad, np.ones((2, 5)))

    def test_group_features(self, gradcheck):
        """Channel-major branch outputs land in the features as batch-major
        permute, reshape and concat would put them, and the gradients route
        back the same way, bit for bit."""
        rng = np.random.default_rng(5)
        groups, B = 3, 2
        hs = [t(rng.normal(size=(c, B, length))) for c, length in [(6, 8), (12, 4), (3, 5)]]
        c = rng.normal(size=(B, groups, 16 + 16 + 5))
        with GradTape() as tape:
            ref = concat([reshape(permute(h, (1, 0, 2)), (B, groups, -1)) for h in hs], axis=2)
        backward(tape, ref, params=hs, seed=c)
        want = [h.grad for h in hs]
        with GradTape() as tape:
            y = group_features(hs, groups)
        backward(tape, y, params=hs, seed=c)
        assert np.array_equal(y.data, ref.data)
        for h, g in zip(hs, want):
            assert h.grad.shape == h.shape and np.array_equal(h.grad, g)
        gradcheck(lambda: sq_sum(group_features(hs, groups)), hs)
        with pytest.raises(DimensionError):
            group_features([t(np.zeros((4, B, 3)))], groups)
        with pytest.raises(DimensionError):
            group_features([hs[0], t(np.zeros((6, B + 1, 8)))], groups)

    @pytest.mark.parametrize("n,augments,groups", [(1, 0, 1), (2, 0, 3), (1, 3, 2), (3, 1, 1),
                                                   (2, 3, 3)])
    def test_contrastive_loss_gradients(self, gradcheck, n, augments, groups):
        rng = np.random.default_rng(n + 10 * augments + 100 * groups)
        reps = t(rng.normal(size=((1 + augments) * n, groups, 4)) + 0.2)
        gradcheck(lambda: contrastive_loss(reps, n, augments)[0], [reps])

    def test_contrastive_loss_backward_peak(self):
        """At a stage-1 batch of 64 windows and 3 augments, the backward holds
        the normalized copy, the gradient it returns and the originals' share
        of it: about 2.3 times ``reps``, not the 3 a third full-size array makes."""
        reps = t(np.random.default_rng(2).normal(size=(256, 1, 2352)))
        with GradTape() as tape:
            total, _, _ = contrastive_loss(reps, 64, 3)
        tracemalloc.start()
        try:
            backward(tape, total, params=[reps])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * reps.data.nbytes

    def test_grouped_contrastive_loss_forward_peak(self):
        """With 7 groups the forward works on one group's slice at a time: it
        never builds a ``reps``-sized normalized copy or square."""
        reps = t(np.random.default_rng(2).normal(size=(256, 7, 2352)))
        tracemalloc.start()
        try:
            with GradTape():
                contrastive_loss(reps, 64, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * reps.data.nbytes

    def test_grouped_contrastive_loss_backward_peak(self):
        """With 7 groups the backward holds the gradient it returns and one
        group's unit vectors and share at a time, not a ``reps``-sized copy."""
        reps = t(np.random.default_rng(2).normal(size=(256, 7, 2352)))
        with GradTape() as tape:
            total, _, _ = contrastive_loss(reps, 64, 3)
        tracemalloc.start()
        try:
            backward(tape, total, params=[reps])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * reps.data.nbytes

    def test_structural_gradients(self, gradcheck):
        rng = np.random.default_rng(9)
        x = t(rng.normal(size=(2, 3, 4)))

        def build():
            y = transpose_12(x)
            y = reshape(y, (2, 12))
            return sq_sum(transpose_12(reshape(y, (2, 4, 3))))

        gradcheck(build, [x])

    def test_permute(self, gradcheck):
        x = t(np.random.default_rng(12).normal(size=(2, 3, 4)))
        y = permute(x, (1, 2, 0))
        assert np.array_equal(y.data, x.data.transpose(1, 2, 0))
        assert y.data.flags.c_contiguous
        with pytest.raises(DimensionError):
            permute(x, (0, 1))
        with pytest.raises(DimensionError):
            permute(x, (0, 1, 1))
        gradcheck(lambda: sq_sum(permute(x, (1, 2, 0))), [x])


class TestMseLoss:
    def test_zero_on_equal(self):
        pred = t(np.random.default_rng(0).normal(size=(4, 6, 3)))
        total, per_variate = mse_loss(pred, pred.data.copy())
        assert np.array_equal(per_variate, np.zeros(3)) and total.item() == 0.0

    def test_constant_offset(self):
        pred = t(np.zeros((2, 5, 3)))
        truth = np.full((2, 5, 3), -1.5)
        assert np.allclose(mse_loss(pred, truth)[1], 2.25)

    def test_length_is_variate_count(self):
        pred = t(np.zeros((2, 4, 7)))
        assert mse_loss(pred, np.zeros((2, 4, 7)))[1].shape == (7,)

    def test_values_match_the_numpy_formula(self):
        rng = np.random.default_rng(4)
        pred = t(rng.normal(size=(3, 5, 4)))
        truth = rng.normal(size=(3, 5, 4))
        total, per_variate = mse_loss(pred, truth)
        want = ((pred.data - truth) ** 2).mean(axis=(0, 1))
        np.testing.assert_allclose(per_variate, want, rtol=1e-14)
        assert total.shape == () and total.item() == per_variate.sum()

    def test_one_node_that_keeps_only_the_difference(self):
        pred = t(np.random.default_rng(5).normal(size=(2, 3, 4)))
        truth = np.zeros((2, 3, 4))
        with GradTape() as tape:
            total, _ = mse_loss(pred, truth)
        (node,) = tape.nodes
        assert node.output is total
        (diff,) = closure_arrays(node.grad_fn)
        assert np.array_equal(diff, pred.data - truth)

    @pytest.mark.parametrize("pred,truth,message", [
        ((2, 3), (2, 3), r"mse_loss expects \(B, L_out, N\)"),
        ((2, 3, 4, 1), (2, 3, 4, 1), r"mse_loss expects \(B, L_out, N\)"),
        ((2, 3, 4), (2, 3, 5), r"mse_loss: \(2, 3, 4\) vs \(2, 3, 5\)")])
    def test_refuses_what_is_not_a_batch_of_forecasts(self, pred, truth, message):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            mse_loss(t(np.zeros(pred)), np.zeros(truth))

    def test_gradients(self, gradcheck):
        rng = np.random.default_rng(8)
        pred = t(rng.normal(size=(3, 4, 2)))
        truth = rng.normal(size=(3, 4, 2))
        gradcheck(lambda: mse_loss(pred, truth)[0], [pred])


class TestDeterminism:
    def test_bitwise_repeat(self):
        def run():
            rng = np.random.default_rng(42)
            x = t(swap_bc(rng.normal(size=(2, 4, 16))))
            w = t(rng.normal(size=(8, 2, 3)))
            b = t(rng.normal(size=8))
            with GradTape() as tape:
                y = conv1d_grouped(x, w, b, 2, 1, groups=2)
                y = relu(y)
                y = dropout(y, 0.3, np.random.default_rng(7), training=True)
                loss = sq_sum(y)
            backward(tape, loss, params=[x, w, b])
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)

    def test_shape_totality(self):
        """Forward then backward produce declared shapes for random admissible configs."""
        rng = np.random.default_rng(123)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            p = int(rng.integers(0, k))
            length = int(rng.integers(k, 20))
            groups = int(rng.choice([1, 2]))
            c_in, c_out = 2 * groups, 4 * groups
            x = t(rng.normal(size=(c_in, 2, length)))
            w = t(rng.normal(size=(c_out, c_in // groups, k)))
            b = t(rng.normal(size=c_out))
            l_out = (length + 2 * p - k) // s + 1
            with GradTape() as tape:
                y = conv1d_grouped(x, w, b, s, p, groups)
            assert y.shape == (c_out, 2, l_out)
            backward(tape, y, params=[x, w, b], seed=np.ones(y.shape))
            assert x.grad.shape == x.data.shape
            assert w.grad.shape == w.data.shape
            assert np.all(np.isfinite(y.data)) and np.all(np.isfinite(x.grad))
