"""Acceptance gate: one test per criterion, each at a pinned tolerance.

Criteria 3, 5, 6, and 7 regress against the published ETTh1/WTH benchmark
files; they skip (loudly) when those CSVs are absent because the files cannot
be synthesized.  Drop ETTh1.csv / WTH.csv under data/ (or point RTNET_DATA_DIR
at them) to run the full gate.

Criterion 10 marks the boundary of this gate and has no test: the paper's
20-seed full-budget tables and its zoo of baselines are not reproduced here;
the ordering and closed-form criteria below stand in for them.
"""

import inspect
import time

import numpy as np
import pytest

from conftest import (ar_series, check_gradients, dataset_path, hourly, requires_dataset,
                      sq_sum, swap_bc)
from rtnet import norm, tensor
from rtnet.data import (SplitSpec, TimeSeriesDataset, gather_batch, load_csv,
                        make_windows, split, standardize)
from rtnet.diagnostics import autocovariance, pacf
from rtnet.harness import ExperimentSpec, run_experiment
from rtnet.model import ModelConfig, RTNet
from rtnet.norm import BatchNormParams, LayerNormParams, batch_norm, layer_norm, weight_norm_effective
from rtnet.relation import cos_relation_matrix, threshold_and_standardize
from rtnet.tensor import (Tensor, add, channel_upsample, concat, contrastive_loss,
                          conv1d_grouped, dropout, group_features, linear_grouped, maxpool1d,
                          mse_loss, permute, relu, relu_dropout, reshape, transpose_12)
from rtnet.training import TrainConfig, train_end_to_end


class TestCriterion1GradientSoundness:
    """Every differentiable primitive and the full forward pass vs central
    finite differences at 10 random coordinates, relative error < 1e-4.
    Every public function of ``rtnet.tensor`` and ``rtnet.norm`` but
    ``backward`` is a differentiable primitive and must have a case."""

    def test_every_primitive(self):
        start = time.monotonic()
        rng = np.random.default_rng(2024)

        def T(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True)

        x3 = T(2, 4, 10)
        c3 = Tensor(swap_bc(x3.data), requires_grad=True)  # channel-major (C, B, L)
        w = T(6, 2, 3)
        b = T(6)
        lx = T(3, 8)
        lw = T(4, 4)
        lb = T(4)
        a1 = T(3, 5)
        a2 = T(3, 5)
        pred = T(2, 3, 2)
        truth = rng.normal(size=(2, 3, 2))
        bn_x = Tensor(swap_bc(rng.normal(size=(5, 3, 4))), requires_grad=True)
        bn = BatchNormParams(3)
        ln = LayerNormParams(3)
        wv, wg = T(4, 2, 3), Tensor(rng.uniform(0.5, 2, 4), requires_grad=True)
        c6 = T(8, 2, 10)  # two repeats of c3's channels
        zero6 = Tensor(np.zeros(c6.shape))
        reps = T(8, 2, 5)  # 2 windows and 3 augments each, 2 groups
        s3 = T(4, 2, 20)  # a block input that pools to c3's length

        cases = [
            ("conv1d_grouped", lambda: sq_sum(conv1d_grouped(c3, w, b, 2, 1, 2)), [c3, w, b]),
            ("maxpool1d", lambda: sq_sum(maxpool1d(c3, 3, 2, 1)), [c3]),
            ("channel_upsample", lambda: sq_sum(channel_upsample(c3, 3)), [c3]),
            ("linear_grouped", lambda: sq_sum(linear_grouped(lx, lw, lb, 2)), [lx, lw, lb]),
            ("relu", lambda: sq_sum(relu(a1)), [a1]),
            ("dropout", lambda: sq_sum(dropout(a1, 0.4, np.random.default_rng(3), True)), [a1]),
            # relu_dropout computes in place in its input, so each build
            # gives it a fresh copy of c6: c6 + 0
            ("relu_dropout", lambda: sq_sum(relu_dropout(add(c6, zero6), 0.4,
                                                         np.random.default_rng(3), True)), [c6]),
            ("relu_dropout", lambda: sq_sum(relu_dropout(add(c6, zero6), 0.4, None, False)),
             [c6]),
            ("relu_dropout", lambda: sq_sum(relu_dropout(add(c6, zero6), 0.4,
                                                         np.random.default_rng(3), True,
                                                         shortcut=s3, kernel=3, stride=2)),
             [c6, s3]),
            ("relu_dropout", lambda: sq_sum(relu_dropout(add(c6, zero6), 0.4, None, False,
                                                         shortcut=s3, kernel=3, stride=2)),
             [c6, s3]),
            ("add", lambda: sq_sum(add(a1, a2)), [a1, a2]),
            ("contrastive_loss", lambda: contrastive_loss(reps, 2, 3)[0], [reps]),
            ("reshape", lambda: sq_sum(reshape(x3, (2, 40))), [x3]),
            ("transpose_12", lambda: sq_sum(transpose_12(x3)), [x3]),
            ("permute", lambda: sq_sum(permute(x3, (2, 0, 1))), [x3]),
            ("concat", lambda: sq_sum(concat([a1, a2], 1)), [a1, a2]),
            ("group_features", lambda: sq_sum(group_features([c3, w], 2)), [c3, w]),
            ("mse_loss", lambda: mse_loss(pred, truth)[0], [pred]),
            ("batch_norm", lambda: sq_sum(batch_norm(bn_x, bn, True)), [bn_x, bn.gamma, bn.beta]),
            ("layer_norm", lambda: sq_sum(layer_norm(bn_x, ln)), [bn_x, ln.gain, ln.bias]),
            ("weight_norm_effective", lambda: sq_sum(weight_norm_effective(wv, wg)), [wv, wg]),
        ]
        primitives = {name for module in (tensor, norm)
                      for name, fn in inspect.getmembers(module, inspect.isfunction)
                      if fn.__module__ == module.__name__ and not name.startswith("_")}
        covered = {name for name, _, _ in cases}
        assert covered == primitives - {"backward"}, (
            f"no case: {sorted(primitives - {'backward'} - covered)}, "
            f"not a primitive: {sorted(covered - primitives)}")
        for name, build, tensors in cases:
            worst = check_gradients(build, tensors, n_coords=10, seed=99)
            assert worst < 1e-4, f"{name}: worst relative error {worst}"
        assert time.monotonic() - start < 120.0

    def test_full_forward_pass(self):
        start = time.monotonic()
        cfg = ModelConfig(l_in=8, l_out=2, n_variates=2, d_channels=4, blocks=2,
                          groups=2, time_mode="decoupled", norm_kind="wn",
                          dropout=0.0, kernel=3)
        rel = threshold_and_standardize(
            cos_relation_matrix(np.random.default_rng(0).normal(size=(40, 2))), 90.0)
        model = RTNet(cfg, np.random.default_rng(1), relation=rel)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 8, 2))
        marks = rng.uniform(-0.5, 0.5, (2, 2, 6))
        truth = rng.normal(size=(2, 2, 2))
        params = [p for _, p in model.named_parameters()]

        def build():
            return mse_loss(model.forward(x, marks), truth)[0]

        worst = check_gradients(build, params, n_coords=10, seed=7)
        assert worst < 1e-4
        assert time.monotonic() - start < 120.0


class TestCriterion2RelationIndependence:
    """Zero relation weight means bit-exact insensitivity, even adversarially."""

    @pytest.mark.parametrize("time_mode", ["none", "decoupled"])
    @pytest.mark.parametrize("norm_kind", ["wn", "bn", "ln", "none"])
    def test_adversarial_perturbation_changes_nothing(self, norm_kind, time_mode):
        raw = np.array([[1.0, 0.9, 0.1],
                        [0.9, 1.0, 0.1],
                        [0.1, 0.1, 1.0]])
        processed = threshold_and_standardize(raw, 45.0)
        assert processed[2, 0] == 0.0 and processed[0, 2] == 0.0  # isolation holds
        cfg = ModelConfig(l_in=16, l_out=4, n_variates=3, d_channels=6, blocks=2,
                          groups=3, time_mode=time_mode, norm_kind=norm_kind,
                          dropout=0.0, kernel=3)
        model = RTNet(cfg, np.random.default_rng(5), relation=processed)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 16, 3))
        marks = rng.uniform(-0.5, 0.5, size=(2, cfg.l_out, cfg.n_time))
        base = model.forward(x, marks).data

        adversarial = [rng.normal(size=(2, 16)) * 1e12,
                       np.full((2, 16), -1e9),
                       np.where(np.arange(16) % 2 == 0, 1e8, -1e8) * np.ones((2, 16)),
                       rng.normal(size=(2, 16))]
        for pert in adversarial:
            x_p = x.copy()
            x_p[:, :, 2] = pert  # variate 2 has zero weight into variates 0 and 1
            out = model.forward(x_p, marks).data
            assert np.array_equal(out[:, :, 0], base[:, :, 0])
            assert np.array_equal(out[:, :, 1], base[:, :, 1])
            x_q = x.copy()
            x_q[:, :, 0] = pert  # variate 0 has zero weight into variate 2
            out = model.forward(x_q, marks).data
            assert np.array_equal(out[:, :, 2], base[:, :, 2])


@requires_dataset("ETTh1")
class TestCriterion3RelationRegression:
    """Raw cosines on the real training split reproduce the published values."""

    def test_etth1_cosine_table(self):
        ds = load_csv(dataset_path("ETTh1"))
        assert ds.variate_names == ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]
        train, _, _ = split(ds, SplitSpec(mode="months"))
        (train_std,), _ = standardize(train, guard_eps=1e-8)
        raw = cos_relation_matrix(train_std.values, train_std.variate_names)
        idx = {n: i for i, n in enumerate(train_std.variate_names)}
        assert raw[idx["HUFL"], idx["MUFL"]] == pytest.approx(0.984, abs=0.01)
        assert raw[idx["HULL"], idx["MULL"]] == pytest.approx(0.926, abs=0.01)
        cos45 = np.cos(np.radians(45.0))
        for i in range(7):
            for j in range(7):
                if i == j:
                    continue
                if {i, j} in ({idx["HUFL"], idx["MUFL"]}, {idx["HULL"], idx["MULL"]}):
                    continue
                assert raw[i, j] < cos45, (i, j, raw[i, j])


class TestCriterion4Pacf:
    def test_ar2_and_null_lags(self):
        x = ar_series([0.5, -0.3], 10_000, seed=11)
        result = pacf(x, 10)
        assert result.phi[1] == pytest.approx(-0.3, abs=0.05)
        band = 3.0 / np.sqrt(10_000)
        assert np.all(np.abs(result.phi[2:10]) < band)

    def test_durbin_levinson_vs_regression_oracle_1e6(self):
        x = ar_series([0.5, -0.3], 2000, seed=12)
        result = pacf(x, 8)
        for k in range(1, 9):
            gamma = autocovariance(x, k)
            toeplitz = np.array([[gamma[abs(i - j)] for j in range(k)] for i in range(k)])
            oracle = np.linalg.solve(toeplitz, gamma[1:k + 1])[-1]
            assert result.phi[k - 1] == pytest.approx(oracle, abs=1e-6)


def _desk_experiment(data_file, split_mode, task, ablation, values, pred, seeds,
                     d_per_group, epochs, steps, l_in=None):
    """``l_in`` is left out under the input_length axis, which sets it per cell."""
    return ExperimentSpec(
        data_path=data_file, pred_lengths=[pred], seeds=seeds, task=task,
        split_mode=split_mode, ablation=ablation, ablation_values=values,
        fidelity="desk",
        model={"d_channels": d_per_group, "blocks": 3, **({"l_in": l_in} if l_in else {})},
        train={"epochs": epochs, "max_steps_per_epoch": steps, "lr": 1e-3,
               "patience": 2})


@requires_dataset("ETTh1")
class TestCriterion5NormalizationOrdering:
    def test_wn_beats_bn_and_ln(self):
        spec = _desk_experiment(dataset_path("ETTh1"), "months", "univariate",
                                "norm_kind", ["wn", "bn", "ln"], pred=24,
                                seeds=[0, 1, 2, 3, 4], l_in=168, d_per_group=8,
                                epochs=4, steps=300)
        report = run_experiment(spec)
        means = {row["axis_value"]: row["mean_mse"] for row in report.summary}
        assert means["wn"] < means["bn"]
        assert means["wn"] < means["ln"]
        assert means["wn"] <= 0.06


@requires_dataset("ETTh1")
class TestCriterion6RelationAblation:
    def test_with_relation_beats_without(self):
        spec = _desk_experiment(dataset_path("ETTh1"), "months", "multivariate",
                                "relation", [True, False], pred=24,
                                seeds=[0, 1, 2, 3, 4], l_in=168, d_per_group=4,
                                epochs=3, steps=300)
        report = run_experiment(spec)
        means = {row["axis_value"]: row["mean_mse"] for row in report.summary}
        assert means["True"] < means["False"]


@requires_dataset("WTH")
class TestCriterion7InputLengthOrdering:
    def test_short_input_beats_long(self):
        spec = _desk_experiment(dataset_path("WTH"), "ratio", "univariate",
                                "input_length", [48, 384], pred=24,
                                seeds=[0, 1, 2], d_per_group=8,
                                epochs=3, steps=300)
        report = run_experiment(spec)
        means = {row["axis_value"]: row["mean_mse"] for row in report.summary}
        assert means["48"] < means["384"]


class TestCriterion8ContrastiveClosedForms:
    def test_single_window_exact_zero(self):
        reps = Tensor(np.random.default_rng(20).normal(size=(1, 1, 12)))
        total, _, per_win = contrastive_loss(reps, 1, 0)
        assert abs(per_win[0, 0]) <= 1e-12

    def test_identical_pair_ln2(self):
        h = np.random.default_rng(21).normal(size=16)
        reps = Tensor(np.stack([h, h])[:, None, :])
        _, _, per_win = contrastive_loss(reps, 2, 0)
        assert per_win[0, 0] == pytest.approx(np.log(2.0), abs=1e-12)
        assert per_win[0, 1] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_nonnegative_10k_random_cases(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 10_000:
            b = int(rng.integers(1, 6))
            i = int(rng.integers(0, 4))
            f = int(rng.integers(2, 10))
            reps = Tensor(rng.normal(size=((1 + i) * b, 1, f))
                          * rng.uniform(0.1, 10.0))
            _, _, per_win = contrastive_loss(reps, b, i)
            assert np.all(per_win >= -1e-12)
            checked += b
        assert checked >= 10_000


class TestCriterion9SyntheticRecoverability:
    def test_ar1_raw_scale_mse(self):
        start = time.monotonic()
        noise = 0.1
        raw = ar_series([0.8], 5000, noise_std=noise, seed=42)
        ds = TimeSeriesDataset(hourly(5000), raw[:, None], ["OT"], 0)
        (tr, va, te), scaler = standardize(*split(ds, SplitSpec(mode="ratio")))
        cfg = ModelConfig(l_in=32, l_out=1, n_variates=1, d_channels=8, blocks=3,
                          groups=1, time_mode="none", norm_kind="wn",
                          dropout=0.0, kernel=3)
        model = RTNet(cfg, np.random.default_rng(0))
        tcfg = TrainConfig(epochs=16, batch_size=32, lr=2e-3, patience=4, seed=0)
        train_end_to_end(model, tr, va, tcfg)

        offsets = make_windows(len(te), 32, 1)
        wb = gather_batch(te, offsets, 32, 1)
        pred_raw = scaler.inverse(model.forward(wb.inputs).data.reshape(-1, 1))
        truth_raw = scaler.inverse(wb.targets.reshape(-1, 1))
        mse = float(np.mean((pred_raw - truth_raw) ** 2))
        elapsed = time.monotonic() - start
        assert mse <= 1.5 * noise ** 2, f"raw-scale MSE {mse}"
        assert elapsed < 300.0, f"took {elapsed:.0f}s"
