"""Losses, augmentation, the overlap-limited sampler, and both training loops."""

import weakref

import numpy as np
import pytest

from conftest import (ar_series, check_condition1, closure_arrays, hourly, root_base,
                      state_checksum, synthetic_multivariate)
from rtnet import training
from rtnet.data import TimeSeriesDataset
from rtnet.errors import ConfigError, SamplerError
from rtnet.model import ModelConfig, RTNet, features_per_group
from rtnet.tensor import (GradTape, Tensor, backward, mse_per_variate, mul_const,
                          sum_axis)
from rtnet.training import (AugmentSpec, TrainConfig, augment, contrastive_loss, early_stop,
                            evaluate, make_contrastive_batch, max_condition1_batch,
                            sample_batch_condition1, train_contrastive, train_end_to_end)


def series_dataset(values_1d, start="2016-07-01 00:00:00"):
    n = len(values_1d)
    return TimeSeriesDataset(hourly(n, start), np.asarray(values_1d)[:, None], ["OT"], 0)


def ar_dataset(n, seed):
    """A standardized AR(1) path with coefficient 0.8."""
    x = ar_series([0.8], n, noise_std=0.1, seed=seed)
    return series_dataset((x - x.mean()) / x.std())


def tiny_model(l_in=16, l_out=2, seed=0, **kw):
    cfg = dict(l_in=l_in, l_out=l_out, n_variates=1, d_channels=4, blocks=2, groups=1,
               time_mode="none", norm_kind="wn", dropout=0.0, kernel=3)
    cfg.update(kw)
    return RTNet(ModelConfig(**cfg), np.random.default_rng(seed))


class TestMseLossVector:
    def test_zero_on_match(self):
        pred = Tensor(np.ones((2, 3, 4)))
        assert np.array_equal(mse_per_variate(pred, np.ones((2, 3, 4))).data, np.zeros(4))

    def test_constant_offset_squares(self):
        pred = Tensor(np.zeros((2, 3, 7)))
        out = mse_per_variate(pred, np.full((2, 3, 7), 3.0))
        assert out.shape == (7,)
        assert np.allclose(out.data, 9.0)

    def test_per_variate_isolation_under_grouping(self):
        """Masking variate i zeroes group i's head gradients and leaves others bit-equal."""
        model = RTNet(ModelConfig(l_in=8, l_out=2, n_variates=2, d_channels=4, blocks=2,
                                  groups=2, time_mode="none", norm_kind="none",
                                  dropout=0.0, kernel=3), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 8, 2))
        truth = np.random.default_rng(2).normal(size=(3, 2, 2))
        params = [p for _, p in model.named_parameters()]

        def grads(mask):
            with GradTape() as tape:
                vec = mse_per_variate(model.forward(x), truth)
                loss = sum_axis(mul_const(vec, mask))
            backward(tape, loss, params=params)
            return {n: p.grad.copy() for n, p in model.named_parameters()}

        g_both = grads(np.array([1.0, 1.0]))
        g_only0 = grads(np.array([1.0, 0.0]))
        w = g_only0["head.linear.weight"]
        f_out, fpg = w.shape
        assert np.all(w[f_out // 2:] == 0.0)          # variate-1 head rows silent
        assert np.array_equal(w[:f_out // 2], g_both["head.linear.weight"][:f_out // 2])


class TestAugment:
    def test_beta_zero_is_identity(self):
        w = np.random.default_rng(0).normal(size=(16, 3))
        for kind in ("scaling", "jittering", "entirety_scaling"):
            out = augment(w, AugmentSpec(kind, beta=0.0), np.random.default_rng(1))
            assert np.allclose(out, w)

    def test_jitter_bounded(self):
        w = np.zeros((64, 2))
        out = augment(w, AugmentSpec("jittering", beta=0.2), np.random.default_rng(2))
        assert np.all(np.abs(out) <= 0.2)

    def test_entirety_scaling_constant_ratio(self):
        w = np.random.default_rng(3).uniform(1.0, 2.0, size=(32, 2))
        out = augment(w, AugmentSpec("entirety_scaling", beta=0.2), np.random.default_rng(4))
        ratios = out / w
        assert np.allclose(ratios, ratios.flat[0])
        assert abs(ratios.flat[0] - 1.0) <= 0.2

    def test_scaling_is_elementwise(self):
        w = np.ones((50, 1))
        out = augment(w, AugmentSpec("scaling", beta=0.2), np.random.default_rng(5))
        assert np.unique(out).size > 10
        assert np.all(np.abs(out - 1.0) <= 0.2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            AugmentSpec("warping")

    @pytest.mark.parametrize("beta", [-1.0, float("nan"), float("inf"), 1e308, 10**400])
    def test_unusable_beta_rejected(self, beta):
        """A beta whose draw range 2*beta is not finite would overflow in
        the generator; it is refused when the spec is built."""
        for kind in ("scaling", "jittering", "entirety_scaling"):
            with pytest.raises(ConfigError, match="beta"):
                AugmentSpec(kind, beta)

    def test_largest_usable_beta_draws(self):
        out = augment(np.zeros(4), AugmentSpec("jittering", 8.9e307), np.random.default_rng(0))
        assert np.all(np.isfinite(out)) and np.all(np.abs(out) <= 8.9e307)


class TestCondition1Sampler:
    def test_alpha_one_means_disjoint(self):
        rng = np.random.default_rng(0)
        offsets = sample_batch_condition1(400, 3, l_in=100, alpha=1.0, rng=rng)
        off = np.sort(offsets)
        assert np.diff(off).min() >= 100

    def test_max_allowed_overlap_arithmetic(self):
        _, min_gap = max_condition1_batch(10_000, 168, 4.0)
        assert min_gap == 42  # overlap cap 168 - 168/4 = 126
        offsets = sample_batch_condition1(10_000, 64, 168, 4.0, np.random.default_rng(1))
        overlaps = 168 - np.diff(np.sort(offsets))
        assert overlaps.max() <= 126

    def test_infeasible_reports_max(self):
        with pytest.raises(SamplerError, match="at most 1"):
            sample_batch_condition1(1000, 2, l_in=900, alpha=1.0,
                                    rng=np.random.default_rng(2))

    def test_check_condition1(self):
        assert check_condition1(np.array([0, 42, 84]), 168, 4.0)
        assert not check_condition1(np.array([0, 10]), 168, 4.0)

    def test_fallback_sweep_used_when_dense(self):
        """Tightest feasible packing forces the deterministic fallback."""
        rng = np.random.default_rng(3)
        feasible, gap = max_condition1_batch(200, 100, 2.0)
        offsets = sample_batch_condition1(200, feasible, 100, 2.0, rng)
        assert offsets.size == feasible
        assert np.diff(np.sort(offsets)).min() >= gap

    def test_every_emitted_batch_satisfies_the_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            offs = sample_batch_condition1(3000, 16, 64, 4.0, rng)
            assert check_condition1(offs, 64, 4.0)
            assert np.unique(offs).size == offs.size


class TestContrastiveLoss:
    def test_single_window_no_augments_is_zero(self):
        reps = Tensor(np.random.default_rng(0).normal(size=(1, 1, 8)))
        total, per_var, per_win = contrastive_loss(reps, n_windows=1, n_augments=0)
        assert total.item() == pytest.approx(0.0, abs=1e-12)
        assert per_win[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_two_identical_windows_give_ln2(self):
        h = np.random.default_rng(1).normal(size=8)
        reps = Tensor(np.stack([h, h])[:, None, :])
        total, _, per_win = contrastive_loss(reps, n_windows=2, n_augments=0)
        assert per_win[0] == pytest.approx([np.log(2.0)] * 2, abs=1e-12)

    def test_sim_values_lie_in_1_e(self):
        rng = np.random.default_rng(2)
        reps = Tensor(rng.normal(size=(6, 2, 5)))
        from rtnet.tensor import abs_op, exp_op, matmul_t, normalize_rows, take_axis1
        h = normalize_rows(take_axis1(reps, 0))
        sims = exp_op(abs_op(matmul_t(h, h))).data
        assert np.all(sims >= 1.0) and np.all(sims <= np.e + 1e-12)

    def test_nonnegative_under_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            b = int(rng.integers(1, 5))
            i = int(rng.integers(0, 4))
            reps = Tensor(rng.normal(size=((1 + i) * b, 1, 6)))
            _, _, per_win = contrastive_loss(reps, b, i)
            assert np.all(per_win >= -1e-12)

    def test_gradcheck(self, gradcheck):
        rng = np.random.default_rng(4)
        reps = Tensor(rng.normal(size=(6, 2, 5)), requires_grad=True)

        def build():
            total, _, _ = contrastive_loss(reps, n_windows=2, n_augments=2)
            return total

        gradcheck(build, [reps])


class TestEarlyStop:
    def test_monotonic_improvement_never_stops(self):
        for k in range(2, 10):
            stop, best = early_stop(list(np.linspace(1.0, 0.1, k)), patience=2)
            assert not stop and best == k - 1

    def test_worsening_stops_at_patience(self):
        stop, best = early_stop([1.0, 1.1, 1.2], patience=2)
        assert stop and best == 0

    def test_patience_one_stops_after_two(self):
        stop, best = early_stop([1.0, 1.5], patience=1)
        assert stop and best == 0

    def test_plateau_counts_as_no_improvement(self):
        stop, best = early_stop([1.0, 1.0], patience=1)
        assert stop and best == 0


class TestBatching:
    def test_contrastive_batch_layout(self):
        ds = series_dataset(ar_series([0.5], 500, seed=0))
        batch = make_contrastive_batch(ds, 4, l_in=32, alpha=4.0, n_augments=3,
                                       beta=0.2, rng=np.random.default_rng(0))
        assert batch.windows.shape == (16, 32, 1)
        assert batch.total_instances == 16
        assert check_condition1(batch.offsets, 32, 4.0)
        for m, o in enumerate(batch.offsets):
            original = ds.values[o:o + 32]
            assert np.array_equal(batch.windows[m], original)
            # instance i of window m sits at B + m*I + i and stays within the
            # augmentation amplitude of its own original
            bound = 0.2 * np.maximum(np.abs(original), 1.0) + 1e-12
            for i in range(3):
                assert np.all(np.abs(batch.windows[4 + m * 3 + i] - original) <= bound)


class TestTrainEndToEnd:
    def make_data(self, n=400, seed=0):
        return ar_dataset(n, seed)

    def test_loss_decreases_majority_of_seeds(self):
        """Smoke oracle: one epoch of fitting beats the untrained model on 5 seeds."""
        wins = 0
        for seed in range(5):
            train = self.make_data(seed=seed)
            val = self.make_data(seed=seed + 50)
            model = tiny_model(seed=seed)
            first_mse, _ = evaluate(model, train)
            cfg = TrainConfig(epochs=1, batch_size=16, lr=1e-3, patience=3, seed=seed)
            result = train_end_to_end(model, train, val, cfg)
            final_mse, _ = evaluate(model, train)
            wins += final_mse < first_mse
        assert wins >= 3

    def test_bit_identical_history_across_runs(self):
        def run():
            model = tiny_model(seed=1, dropout=0.1)
            cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=9)
            return train_end_to_end(model, self.make_data(seed=2),
                                    self.make_data(seed=3), cfg).history

        h1, h2 = run(), run()
        assert h1 == h2

    def test_early_stop_restores_best(self):
        model = tiny_model(seed=4)
        cfg = TrainConfig(epochs=50, batch_size=16, lr=5e-3, patience=1, seed=5)
        result = train_end_to_end(model, self.make_data(seed=6),
                                  self.make_data(seed=7), cfg)
        assert len(result.history) < 50
        val_curve = [row["val_mse"] for row in result.history]
        best = int(np.argmin(val_curve))
        assert result.best_epoch == best
        final_mse, _ = evaluate(model, self.make_data(seed=7))
        assert final_mse == pytest.approx(val_curve[best], rel=1e-9)


def op_name(node):
    return node.grad_fn.__qualname__.split(".")[0]


class TestStepTape:
    # a grouped model with a time branch: l_in 16, 2 blocks, 7 groups, d 14
    MODEL = dict(n_variates=7, groups=7, d_channels=14, time_mode="decoupled", dropout=0.1)
    BATCH = 4

    def one_step_tape(self, monkeypatch):
        """The tape of one end-to-end training step."""
        values, names = synthetic_multivariate(200, seed=3)
        train = TimeSeriesDataset(hourly(200), values, names, 6)
        model = tiny_model(seed=3, **self.MODEL)
        tapes = []

        def record(tape, *args, **kwargs):
            tapes.append(tape)
            return backward(tape, *args, **kwargs)

        monkeypatch.setattr(training, "backward", record)
        cfg = TrainConfig(epochs=1, batch_size=self.BATCH, max_steps_per_epoch=1, seed=3)
        train_end_to_end(model, train, train.slice(100, 200), cfg)
        assert len(tapes) == 1
        return model.cfg, tapes[0]

    def test_conv_nodes_keep_only_their_input_and_weight(self, monkeypatch):
        """After one step, every conv node's closure holds its own input and
        weight and no other array."""
        _, tape = self.one_step_tape(monkeypatch)
        convs = [node for node in tape.nodes if op_name(node) == "conv1d_grouped"]
        # branches of 2 and 1 blocks, the 2-block TimeNet and the time head
        assert len(convs) == 5 + 3 + 5 + 1
        for node in convs:
            x, w, _ = node.inputs
            own = {id(root_base(x.data)), id(root_base(w.data))}
            assert {id(root_base(a)) for a in closure_arrays(node.grad_fn)} == own

    def test_block_activations_are_fused_and_the_tape_keeps_only_what_backward_needs(
            self, monkeypatch):
        """No relu, dropout or channel repetition node is recorded, the only
        add is the time head's, and the distinct bytes the tape keeps are
        exactly those its shapes call for."""
        cfg, tape = self.one_step_tape(monkeypatch)
        ops = [op_name(node) for node in tape.nodes]
        assert not {"relu", "dropout", "channel_upsample"} & set(ops)
        assert ops.count("add") == 1 and ops[ops.index("add") - 1] == "permute"
        # two per block: branches of 2 and 1 blocks, the 2-block TimeNet
        assert ops.count("relu_dropout") == 2 * (2 + 1 + 2)

        B, L, d, G, k = self.BATCH, cfg.l_in, cfg.d_channels, cfg.groups, cfg.kernel
        N, l_out = cfg.n_variates, cfg.l_out

        def unit(c_out, fan_in):
            """A weight-norm weight: the effective weight, its direction and
            the norms."""
            return 2 * c_out * fan_in + c_out

        def extractor(c_in, length, depth, stride):
            """Embedding conv input and output, then per block of c channels
            the conv1, relu_dropout and conv2 outputs and the final
            relu_dropout output at 2c channels, and the max-pool's at c."""
            n = c_in * B * length + d * B * length + unit(d, c_in // G * k)
            for j in range(depth):
                c = d << j
                length //= stride
                n += 9 * c * B * length + unit(2 * c, c // G * k) + unit(2 * c, 2 * c // G * k)
            return n

        features = B * G * features_per_group(cfg)
        prediction = B * l_out * N
        floats = (sum(extractor(N, L >> i, cfg.blocks - i, 2) for i in range(cfg.blocks))
                  + features                         # group_features
                  + features + prediction            # head: its grouped input copy, output
                  + unit(l_out * N, features // (B * G))
                  + prediction                       # transpose_12
                  + extractor(G * cfg.n_time, l_out, 2, 1)
                  + unit(N, 4 * d // G) + prediction  # time head conv
                  + 2 * prediction                   # permute, add
                  + N + prediction + 1)              # per-variate MSE and its diff, the sum
        kept = {id(root_base(a)): root_base(a).nbytes for node in tape.nodes
                for a in [node.output.data, *closure_arrays(node.grad_fn)]}
        assert sum(kept.values()) == 8 * floats

    @pytest.mark.parametrize("fmt", ["e2e", "contrastive"])
    def test_no_step_tape_is_alive_during_validation(self, monkeypatch, fmt):
        """A step's tape, and with it every activation it recorded, is freed
        before the epoch's validation runs."""
        tapes, alive_at_validation = [], []

        class RecordedTape(GradTape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        def count_live_tapes():
            alive_at_validation.append(sum(ref() is not None for ref in tapes))

        real_evaluate, real_stage1_loss = training.evaluate, training._stage1_loss

        def evaluate(*args, **kwargs):
            count_live_tapes()
            return real_evaluate(*args, **kwargs)

        def stage1_loss(model, batch, training_mode, rng):
            if not training_mode:  # the stage-1 validation loss
                count_live_tapes()
            return real_stage1_loss(model, batch, training_mode, rng)

        monkeypatch.setattr(training, "GradTape", RecordedTape)
        monkeypatch.setattr(training, "evaluate", evaluate)
        monkeypatch.setattr(training, "_stage1_loss", stage1_loss)
        cfg = TrainConfig(epochs=2, stage1_epochs=2, batch_size=8, stage1_batch_size=8,
                          stage2_batch_size=8, patience=5, seed=4, max_steps_per_epoch=2)
        train = train_end_to_end if fmt == "e2e" else train_contrastive
        train(tiny_model(seed=4), ar_dataset(420, 5), ar_dataset(420, 6), cfg)
        assert tapes
        assert alive_at_validation == [0] * (2 if fmt == "e2e" else 4)


class TestDivergenceAbort:
    def test_runaway_lr_aborts_with_diagnostics(self):
        """Divergence must surface as an error naming the epoch/step or the
        parameter, never as a silent freeze on overflowed moments."""
        x = ar_series([0.8], 300, seed=30)
        ds = series_dataset((x - x.mean()) / x.std())
        model = tiny_model(seed=30, norm_kind="none")
        cfg = TrainConfig(epochs=2, batch_size=16, lr=1e18, patience=3, seed=31)
        from rtnet.errors import RTNetError
        with pytest.raises(RTNetError, match=r"epoch \d+, step \d+|parameter"):
            train_end_to_end(model, ds, ds, cfg)

    def test_too_short_split_rejected(self):
        from rtnet.errors import DataError
        ds = series_dataset(np.zeros(10))
        model = tiny_model()
        with pytest.raises(DataError):
            train_end_to_end(model, ds, ds, TrainConfig(epochs=1))


class TestTrainContrastive:
    def make_data(self, n=420, seed=0):
        return ar_dataset(n, seed)

    def test_stage1_loss_finite_nonnegative_and_decreases(self):
        ds = self.make_data(seed=11)
        model = tiny_model(seed=11, l_in=16)
        from rtnet.optim import Adam
        from rtnet.training import _stage1_loss
        rng = np.random.default_rng(12)
        batch = make_contrastive_batch(ds, 8, 16, 4.0, 3, 0.2, rng)
        first, _, _ = _stage1_loss(model, batch, False, None)
        assert np.isfinite(first.item()) and first.item() >= 0.0
        opt = Adam(list(model.cpn_named_parameters()), lr=1e-3)
        losses = []
        for step in range(50):
            b = make_contrastive_batch(ds, 8, 16, 4.0, 3, 0.2, rng)
            with GradTape() as tape:
                total, _, _ = _stage1_loss(model, b, True, None)
            opt.zero_grad()
            backward(tape, total, params=opt.params)
            opt.step()
            losses.append(total.item())
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_stage2_leaves_cpn_untouched(self):
        model = tiny_model(seed=13)
        cfg = TrainConfig(epochs=1, stage1_epochs=1, batch_size=8, stage2_batch_size=8,
                          stage1_batch_size=8, lr=1e-3, seed=14, max_steps_per_epoch=5)
        train = self.make_data(seed=15)
        val = self.make_data(seed=16)
        result = train_contrastive(model, train, val, cfg)
        assert not any(p.requires_grad for _, p in model.cpn_named_parameters())
        stages = {row["stage"] for row in result.history}
        assert stages == {1, 2}

    def test_frozen_pyramid_keeps_every_array(self, monkeypatch):
        """Batch norm in a frozen pyramid uses and keeps its running statistics."""
        values, names = synthetic_multivariate(420, seed=21)
        train = TimeSeriesDataset(hourly(420), values, names, 6)
        val = train.slice(300, 420)
        model = tiny_model(seed=21, n_variates=7, groups=7, d_channels=14,
                           norm_kind="bn", dropout=0.1)
        frozen = {}
        freeze = model.freeze_cpn

        def freeze_and_snapshot():
            freeze()
            frozen.update((n, a.copy()) for n, a in model.state().items() if n.startswith("cpn."))

        monkeypatch.setattr(model, "freeze_cpn", freeze_and_snapshot)
        cfg = TrainConfig(epochs=2, stage1_epochs=1, stage1_batch_size=8, stage2_batch_size=8,
                          lr=1e-3, seed=22, max_steps_per_epoch=3)
        train_contrastive(model, train, val, cfg)
        assert any(n.endswith("running_var") for n in frozen)
        changed = [n for n, a in model.state().items()
                   if n.startswith("cpn.") and not np.array_equal(a, frozen[n])]
        assert changed == []

    def test_stage2_checksum_frozen(self):
        model = tiny_model(seed=17)
        train = self.make_data(seed=18)
        val = self.make_data(seed=19)
        # run stage 1 only, snapshot, then full run with same seed and compare
        cfg = TrainConfig(epochs=2, stage1_epochs=1, stage1_batch_size=8,
                          stage2_batch_size=8, lr=1e-3, seed=20, max_steps_per_epoch=4)
        train_contrastive(model, train, val, cfg)
        cpn_names = {n for n, _ in model.cpn_named_parameters()}
        after_full = state_checksum(model, cpn_names)
        model2 = tiny_model(seed=17)
        cfg2 = TrainConfig(epochs=1, stage1_epochs=1, stage1_batch_size=8,
                           stage2_batch_size=8, lr=1e-3, seed=20, max_steps_per_epoch=4)
        train_contrastive(model2, train, val, cfg2)
        assert state_checksum(model2, cpn_names) == pytest.approx(after_full, rel=1e-12)


def assert_history_equal(history, expected):
    assert len(history) == len(expected)
    for row, want in zip(history, expected):
        assert list(row) == list(want)
        for key, value in want.items():
            if isinstance(value, float) and np.isnan(value):
                assert np.isnan(row[key])
            else:
                assert row[key] == pytest.approx(value, rel=1e-10), key


class TestGoldenArithmetic:
    """Recorded histories pin RNG order, batch order, loss scaling and
    early-stop/restore; the tolerance only absorbs BLAS rounding."""

    def test_end_to_end(self):
        model = tiny_model(seed=1, dropout=0.1, time_mode="decoupled")
        val = ar_dataset(300, 3)
        cfg = TrainConfig(epochs=8, batch_size=8, lr=3e-2, patience=1, seed=9)
        result = train_end_to_end(model, ar_dataset(400, 2), val, cfg)
        assert_history_equal(result.history, [
            {"epoch": 0, "train_loss_0": 1.2184200208173463,
             "val_mse": 0.6332602254733328, "val_mae": 0.6483228162642342},
            {"epoch": 1, "train_loss_0": 0.6793444073859307,
             "val_mse": 0.49989781402312417, "val_mae": 0.5748229240763294},
            {"epoch": 2, "train_loss_0": 0.6150106136149417,
             "val_mse": 0.47927382344966535, "val_mae": 0.5514368807714763},
            {"epoch": 3, "train_loss_0": 0.5601824182147223,
             "val_mse": 0.45745667492890013, "val_mae": 0.5405129987424746},
            {"epoch": 4, "train_loss_0": 0.552368831643502,
             "val_mse": 0.4431067794892361, "val_mae": 0.5253067986184954},
            {"epoch": 5, "train_loss_0": 0.5416266678281595,
             "val_mse": 0.49939425772677637, "val_mae": 0.5731885217463648},
        ])
        assert result.best_epoch == 4
        assert evaluate(model, val)[0] == pytest.approx(0.4431067794892361, rel=1e-10)

    def test_contrastive(self):
        model = tiny_model(seed=17, dropout=0.1)
        val = ar_dataset(420, 16)
        cfg = TrainConfig(epochs=3, stage1_epochs=3, stage1_batch_size=8,
                          stage2_batch_size=8, lr=3e-2, patience=1, seed=20,
                          max_steps_per_epoch=4)
        result = train_contrastive(model, ar_dataset(420, 15), val, cfg)
        nan = float("nan")
        assert_history_equal(result.history, [
            {"epoch": 0, "stage": 1, "train_loss_0": 1.7397099163042422,
             "val_mse": 1.6380648533353466, "val_mae": nan},
            {"epoch": 1, "stage": 1, "train_loss_0": 1.6148068656448382,
             "val_mse": 1.5297726729608554, "val_mae": nan},
            {"epoch": 2, "stage": 1, "train_loss_0": 1.5845842229146334,
             "val_mse": 1.484695560540254, "val_mae": nan},
            {"epoch": 0, "stage": 2, "train_loss_0": 2.5214634913050475,
             "val_mse": 1.2030885086039778, "val_mae": 0.8671605476422063},
            {"epoch": 1, "stage": 2, "train_loss_0": 1.2621379544843516,
             "val_mse": 0.7952437090800972, "val_mae": 0.7016386904310052},
            {"epoch": 2, "stage": 2, "train_loss_0": 1.1008867913216038,
             "val_mse": 0.809903081232851, "val_mae": 0.7045743366577537},
        ])
        assert result.best_epoch == 1
        assert evaluate(model, val)[0] == pytest.approx(0.7952437090800972, rel=1e-10)
