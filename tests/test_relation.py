"""Relation matrix construction, thresholding and application."""

import numpy as np
import pytest

from rtnet.errors import ConfigError, DataError, DimensionError
from rtnet.model import ModelConfig, RTNet
from rtnet.relation import cos_relation_matrix, threshold_and_standardize
from rtnet.tensor import Tensor


class TestRawMatrix:
    def test_self_similarity_is_one(self):
        x = np.random.default_rng(0).normal(size=(50, 3))
        raw = cos_relation_matrix(x)
        assert np.allclose(np.diag(raw), 1.0)

    def test_negated_variate_still_one(self):
        x = np.random.default_rng(1).normal(size=(50, 1))
        series = np.hstack([x, -x])
        raw = cos_relation_matrix(series)
        assert raw[0, 1] == pytest.approx(1.0)

    def test_sign_flip_and_scaling_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(64, 4))
        flipped = x * np.array([1.0, -1.0, 2.5, -0.3])
        assert np.allclose(cos_relation_matrix(x), cos_relation_matrix(flipped), atol=1e-12)

    def test_zero_norm_variate_named(self):
        x = np.zeros((10, 2))
        x[:, 0] = 1.0
        with pytest.raises(DataError, match="flat"):
            cos_relation_matrix(x, names=["ok", "flat"])

    def test_symmetry_and_range(self):
        raw = cos_relation_matrix(np.random.default_rng(3).normal(size=(100, 5)))
        assert np.allclose(raw, raw.T)
        assert np.all(raw >= 0.0) and np.all(raw <= 1.0 + 1e-12)
        assert np.allclose(np.diag(raw), 1.0, atol=1e-12)


class TestThresholdAndStandardize:
    def test_theta_90_keeps_everything(self):
        raw = cos_relation_matrix(np.random.default_rng(0).normal(size=(40, 3)))
        processed = threshold_and_standardize(raw, 90.0)
        assert np.all(processed > 0.0)
        assert np.allclose(processed.sum(axis=0), 1.0)

    def test_published_column_arithmetic(self):
        """A column holding (1, 0.984) standardizes to (0.5040, 0.4960)."""
        raw = np.array([[1.0, 0.984], [0.984, 1.0]])
        processed = threshold_and_standardize(raw, 45.0)
        assert processed[0, 0] == pytest.approx(1 / 1.984, abs=5e-5)
        assert processed[1, 0] == pytest.approx(0.984 / 1.984, abs=5e-5)
        assert processed[0, 0] == pytest.approx(0.5040, abs=1e-4)
        assert processed[1, 0] == pytest.approx(0.4960, abs=1e-4)

    def test_independent_variates_give_identity(self):
        raw = np.eye(4) + 0.05 - 0.05 * np.eye(4)  # off-diagonals 0.05 < cos 45
        processed = threshold_and_standardize(raw, 45.0)
        assert np.array_equal(processed, np.eye(4))

    def test_theta_out_of_range(self):
        with pytest.raises(ConfigError):
            threshold_and_standardize(np.eye(2), 91.0)

    def test_columns_sum_to_one(self):
        raw = cos_relation_matrix(np.random.default_rng(5).normal(size=(30, 6)))
        processed = threshold_and_standardize(raw, 30.0)
        assert np.allclose(processed.sum(axis=0), 1.0, atol=1e-9)


class TestApplyRelation:
    def test_identity_matrix_is_noop(self):
        x = np.random.default_rng(0).normal(size=(2, 8, 3))
        out = x @ np.eye(3)
        assert np.array_equal(out, x)

    def test_permutation_permutes_variates(self):
        x = np.random.default_rng(1).normal(size=(2, 5, 3))
        perm = np.zeros((3, 3))
        perm[0, 2] = perm[1, 0] = perm[2, 1] = 1.0  # column i reads variate row
        out = x @ perm
        assert np.array_equal(out[..., 2], x[..., 0])
        assert np.array_equal(out[..., 0], x[..., 1])

    def test_isolated_column_passes_through(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 6, 3))
        m = rng.uniform(0.1, 1.0, size=(3, 3))
        m[:, 1] = 0.0
        m[1, 1] = 1.0
        out = x @ m
        assert np.array_equal(out[..., 1], x[..., 1])

    def test_dimension_mismatch(self):
        cfg = ModelConfig(l_in=8, l_out=2, n_variates=3, d_channels=6, groups=3)
        with pytest.raises(DimensionError):
            RTNet(cfg, np.random.default_rng(0), relation=np.eye(2))


class TestLinearJacobianProportionality:
    def test_jacobian_columns_share_relation_ratios(self):
        """Identity activations, zero biases: d(variate i output)/d(variate j input)
        is exactly proportional to the relation weight w_ji across j."""
        from rtnet.tensor import conv1d_grouped, linear_grouped, permute
        rng = np.random.default_rng(0)
        n, l_in, d = 3, 8, 6
        raw = cos_relation_matrix(rng.normal(size=(60, n)))
        processed = threshold_and_standardize(raw, 90.0)  # keep every weight

        w1 = Tensor(rng.normal(size=(d, 1, 3)))
        w2 = Tensor(rng.normal(size=(2 * d, d // n, 3)))
        zero1 = Tensor(np.zeros(d))
        zero2 = Tensor(np.zeros(2 * d))
        head = Tensor(rng.normal(size=(n * 2, (2 * d // n) * l_in)))
        zero_h = Tensor(np.zeros(n * 2))

        def forward(x_bln):
            mixed = Tensor(x_bln @ processed)  # as RTNet mixes its inputs
            h = permute(mixed, (2, 0, 1))  # channel-major (N, 1, l_in)
            h = conv1d_grouped(h, w1, zero1, 1, 1, groups=n)
            h = conv1d_grouped(h, w2, zero2, 1, 1, groups=n)
            from rtnet.tensor import reshape
            flat = reshape(h, (1, 2 * d * l_in))
            return linear_grouped(flat, head, zero_h, groups=n).data.reshape(n, 2)

        x0 = rng.normal(size=(1, l_in, n))
        base = forward(x0)
        eps = 1e-6
        jac = np.zeros((n, n, 2))  # d out[i] / d x[t=2, j]
        for j in range(n):
            xp = x0.copy()
            xp[0, 2, j] += eps
            jac[:, j] = (forward(xp) - base) / eps
        for i in range(n):
            # ratios across j match the relation column of variate i
            scale = jac[i, i] / processed[i, i]
            for j in range(n):
                assert np.allclose(jac[i, j], processed[j, i] * scale, atol=1e-4)

