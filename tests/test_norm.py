"""Normalization semantics: the invariances that make or break each scheme.

Inputs are written batch-major, (B, F) or (B, C, L), and swapped into the
channel-major layout the norms take with ``swap_bc``.
"""

import numpy as np
import pytest
from conftest import sq_sum, swap_bc

from rtnet.errors import ConfigError, NumericalError
from rtnet.model import WeightedUnit
from rtnet.norm import (BN_MOMENTUM, NORM_EPS, BatchNormParams, LayerNormParams, batch_norm,
                        layer_norm, weight_norm_effective)
from rtnet.tensor import Tensor, mse_loss, reshape


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# [1, 2, 3] normalized: mean 2, variance 2/3, plus the norms' fixed epsilon
UNIT_123 = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0 + NORM_EPS)


class TestBatchNorm:
    def test_unit_variance_normalization(self):
        p = BatchNormParams(1)
        out = batch_norm(t(swap_bc([[1.0], [2.0], [3.0]])), p, training=True)
        assert swap_bc(out.data)[:, 0] == pytest.approx(UNIT_123, abs=1e-6)

    def test_affine_rescaling_invariance(self):
        """Training-mode output ignores per-batch affine rescaling of its input."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3, 10))
        p1 = BatchNormParams(3)
        p2 = BatchNormParams(3)
        y1 = batch_norm(t(swap_bc(x)), p1, training=True)
        y2 = batch_norm(t(swap_bc(3.7 * x + 11.0)), p2, training=True)
        assert np.allclose(y1.data, y2.data, atol=1e-9)

    def test_gamma_beta(self):
        p = BatchNormParams(1)
        p.gamma.data[:] = 2.0
        p.beta.data[:] = 1.0
        out = batch_norm(t(swap_bc([[1.0], [2.0], [3.0]])), p, training=True)
        assert swap_bc(out.data)[:, 0] == pytest.approx(2.0 * UNIT_123 + 1.0, abs=1e-6)

    def test_batch_of_one_rejected_in_training(self):
        p = BatchNormParams(2)
        with pytest.raises(ConfigError):
            batch_norm(t(swap_bc([[1.0, 2.0]])), p, training=True)

    def test_a_batch_of_one_trains_on_its_length_axis(self, gradcheck):
        """A (C, 1, L) activation holds L values per channel: its training
        statistics are taken over the length axis, and its gradients check."""
        rng = np.random.default_rng(4)
        x = t(rng.normal(loc=[0.0, 3.0, -1.0], scale=[1.0, 2.0, 0.5], size=(8, 1, 3)).T,
              grad=True)
        p = BatchNormParams(3)
        out = batch_norm(x, p, training=True)
        mean, var = x.data.mean(axis=(1, 2)), x.data.var(axis=(1, 2))
        assert np.allclose(out.data, (x.data - mean[:, None, None])
                           / np.sqrt(var[:, None, None] + NORM_EPS), atol=1e-12)
        assert np.allclose(p.running_mean, BN_MOMENTUM * mean)
        assert np.allclose(p.running_var, 1.0 + BN_MOMENTUM * (var - 1.0))
        p.gamma.data[:] = rng.uniform(0.5, 2.0, size=3)
        p.beta.data[:] = rng.normal(size=3)
        target = rng.normal(size=(1, 1, x.size))
        gradcheck(lambda: mse_loss(reshape(batch_norm(x, p, training=True), target.shape),
                                   target)[0], [x, p.gamma, p.beta])

    def test_a_single_value_per_channel_is_refused_with_its_count(self):
        with pytest.raises(ConfigError, match="needs >= 2 values per channel, got 1"):
            batch_norm(t(np.ones((2, 1, 1))), BatchNormParams(2), training=True)

    def test_eval_uses_running_stats(self):
        p = BatchNormParams(1)
        p.running_mean[:] = 5.0
        p.running_var[:] = 4.0
        out = batch_norm(t([[7.0]]), p, training=False)
        assert out.data[0, 0] == pytest.approx(1.0, rel=1e-4)

    def test_running_stats_update(self):
        p = BatchNormParams(1)
        batch_norm(t(swap_bc([[0.0], [2.0]])), p, training=True)
        assert p.running_mean[0] == pytest.approx(BN_MOMENTUM * 1.0)
        assert p.running_var[0] == pytest.approx((1 - BN_MOMENTUM) * 1.0 + BN_MOMENTUM * 1.0)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients(self, gradcheck, training):
        rng = np.random.default_rng(3)
        x = t(swap_bc(rng.normal(size=(4, 3, 5))), grad=True)
        p = BatchNormParams(3)
        p.running_mean[:] = rng.normal(size=3)
        p.running_var[:] = rng.uniform(0.5, 2.0, size=3)
        frozen_mean = p.running_mean.copy()
        frozen_var = p.running_var.copy()

        def build():
            p.running_mean[:] = frozen_mean  # keep f deterministic across calls
            p.running_var[:] = frozen_var
            y = batch_norm(x, p, training=training)
            return sq_sum(y)

        gradcheck(build, [x, p.gamma, p.beta])


class TestLayerNorm:
    def test_unit_variance_normalization(self):
        p = LayerNormParams(3)
        out = layer_norm(t(swap_bc([[1.0, 2.0, 3.0]])), p)
        assert swap_bc(out.data)[0] == pytest.approx(UNIT_123, abs=1e-6)

    def test_shift_invariance(self):
        """Adding a per-instance constant to the feature vector changes nothing."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 8))
        shifts = rng.normal(size=(6, 1)) * 100
        p = LayerNormParams(8)
        y1 = layer_norm(t(swap_bc(x)), p)
        y2 = layer_norm(t(swap_bc(x + shifts)), p)
        assert np.allclose(y1.data, y2.data, atol=1e-9)

    def test_zero_gain_gives_bias(self):
        p = LayerNormParams(4)
        p.gain.data[:] = 0.0
        p.bias.data[:] = 7.0
        out = layer_norm(t(swap_bc(np.random.default_rng(0).normal(size=(3, 4)))), p)
        assert np.allclose(out.data, 7.0)

    def test_length_one_axis_rejected(self):
        with pytest.raises(ConfigError):
            layer_norm(t([[1.0]]), LayerNormParams(1))

    def test_gradients(self, gradcheck):
        rng = np.random.default_rng(6)
        x = t(swap_bc(rng.normal(size=(3, 4, 6))), grad=True)
        p = LayerNormParams(4)

        def build():
            y = layer_norm(x, p)
            return sq_sum(y)

        gradcheck(build, [x, p.gain, p.bias])


class TestWeightNorm:
    def test_effective_weight_value(self):
        out = weight_norm_effective(t([[3.0, 4.0]], grad=True), t([2.0], grad=True))
        assert out.data[0] == pytest.approx([1.2, 1.6])

    def test_g_equals_norm_gives_v(self):
        v = np.random.default_rng(0).normal(size=(3, 4))
        unit = WeightedUnit(v, "wn")
        assert np.allclose(unit.effective_weight().data, v, atol=1e-12)

    def test_scale_invariance_of_direction(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(2, 5))
        g = rng.uniform(0.5, 2.0, size=2)
        assert np.allclose(weight_norm_effective(t(v, grad=True), t(g, grad=True)).data,
                           weight_norm_effective(t(17.3 * v, grad=True), t(g, grad=True)).data,
                           atol=1e-12)

    def test_norm_equals_g_exactly(self):
        rng = np.random.default_rng(2)
        v = t(rng.normal(size=(4, 3, 3)), grad=True)
        g = t(rng.uniform(0.5, 3.0, size=4), grad=True)
        w = weight_norm_effective(v, g).data
        norms = np.linalg.norm(w.reshape(4, -1), axis=1)
        assert norms == pytest.approx(g.data, abs=1e-12)

    def test_zero_direction_names_channel(self):
        v = np.ones((3, 2))
        v[1] = 0.0
        with pytest.raises(NumericalError, match=r"\[1\]"):
            weight_norm_effective(t(v, grad=True), t(np.ones(3), grad=True))

    def test_gradients_flow_to_both(self, gradcheck):
        rng = np.random.default_rng(7)
        v = t(rng.normal(size=(4, 3, 3)), grad=True)
        g = t(rng.uniform(0.5, 2.0, size=4), grad=True)

        def build():
            w = weight_norm_effective(v, g)
            return sq_sum(w)

        gradcheck(build, [v, g])

    def test_rebuilt_direction_matches_the_kept_one_bitwise(self):
        """Value and gradients equal the formula that keeps v/||v|| from the
        forward, bit for bit, and backward leaves the incoming gradient as it was."""
        from rtnet.tensor import GradTape
        rng = np.random.default_rng(9)
        v = t(rng.normal(size=(6, 4, 3)), grad=True)
        g = t(rng.uniform(0.5, 2.0, size=6), grad=True)
        with GradTape() as tape:
            w = weight_norm_effective(v, g)
        gw = rng.normal(size=w.shape)
        gw_before = gw.copy()
        g_v, g_g = tape.nodes[0].grad_fn(gw)

        norms = np.sqrt((v.data.reshape(6, -1) ** 2).sum(axis=1))
        shape = (6, 1, 1)
        vhat = v.data / norms.reshape(shape)
        dots = (gw.reshape(6, -1) * vhat.reshape(6, -1)).sum(axis=1)
        assert np.array_equal(w.data, g.data.reshape(shape) * vhat)
        assert np.array_equal(g_g, dots)
        assert np.array_equal(g_v, (g.data / norms).reshape(shape)
                              * (gw - vhat * dots.reshape(shape)))
        assert np.array_equal(gw, gw_before)

    def test_wrapped_network_matches_plain_weights_bitwise(self):
        """Fixing the effective weight, weight norm changes no hidden unit."""
        from rtnet.tensor import conv1d_grouped
        rng = np.random.default_rng(8)
        v = rng.normal(size=(4, 2, 3))
        g = rng.uniform(0.5, 2.0, size=4)
        effective = weight_norm_effective(t(v, grad=True), t(g, grad=True))
        x = t(rng.normal(size=(2, 2, 10)))
        bias = t(rng.normal(size=4))
        y_wn = conv1d_grouped(x, effective, bias, 1, 1)
        y_plain = conv1d_grouped(x, t(effective.data.copy()), bias, 1, 1)
        assert np.array_equal(y_wn.data, y_plain.data)
