"""Losses, augmentation, the overlap-limited sampler, and both training loops."""

import itertools
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (ar_series, batched_contrastive_loss, check_condition1, closure_arrays,
                      hourly, per_group_contrastive_loss, piecewise_contrastive_batch, root_base,
                      state_checksum, synthetic_multivariate)
from rtnet import model as rtnet_model
from rtnet import tensor, training
from rtnet.data import TimeSeriesDataset, gather_batch, make_windows
from rtnet.errors import ConfigError, DataError, DimensionError, NumericalError, SamplerError
from rtnet.model import ModelConfig, RTNet, features_per_group, save_checkpoint
from rtnet.optim import Adam
from rtnet.tensor import GradTape, Tensor, backward, mse_loss, reshape
from rtnet.training import (TrainConfig, TrainResult, augment, contrastive_loss, evaluate,
                            make_contrastive_batch, max_condition1_batch,
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
        total, per_variate = mse_loss(pred, np.ones((2, 3, 4)))
        assert np.array_equal(per_variate, np.zeros(4)) and total.item() == 0.0

    def test_constant_offset_squares(self):
        pred = Tensor(np.zeros((2, 3, 7)))
        total, per_variate = mse_loss(pred, np.full((2, 3, 7), 3.0))
        assert per_variate.shape == (7,) and total.shape == ()
        assert np.allclose(per_variate, 9.0) and total.item() == pytest.approx(63.0)

    def test_per_variate_isolation_under_grouping(self):
        """A variate whose target equals its prediction zeroes its group's head
        gradients and leaves the other groups' bit-equal."""
        model = RTNet(ModelConfig(l_in=8, l_out=2, n_variates=2, d_channels=4, blocks=2,
                                  groups=2, time_mode="none", norm_kind="none",
                                  dropout=0.0, kernel=3), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 8, 2))
        truth = np.random.default_rng(2).normal(size=(3, 2, 2))
        params = [p for _, p in model.named_parameters()]

        def grads(target):
            with GradTape() as tape:
                total, _ = mse_loss(model.forward(x), target)
            backward(tape, total, params=params)
            return {n: p.grad.copy() for n, p in model.named_parameters()}

        only0 = truth.copy()
        only0[..., 1] = model.forward(x).data[..., 1]
        g_both = grads(truth)
        g_only0 = grads(only0)
        w = g_only0["head.linear.weight"]
        f_out, fpg = w.shape
        assert np.all(w[f_out // 2:] == 0.0)          # variate-1 head rows silent
        assert np.array_equal(w[:f_out // 2], g_both["head.linear.weight"][:f_out // 2])


class TestAugment:
    def test_beta_zero_is_identity(self):
        w = np.random.default_rng(0).normal(size=(16, 3))
        for kind in ("scaling", "jittering", "entirety_scaling"):
            out = augment(w, kind, 0.0, np.random.default_rng(1))
            assert np.allclose(out, w)

    def test_jitter_bounded(self):
        w = np.zeros((64, 2))
        out = augment(w, "jittering", 0.2, np.random.default_rng(2))
        assert np.all(np.abs(out) <= 0.2)

    def test_entirety_scaling_constant_ratio(self):
        w = np.random.default_rng(3).uniform(1.0, 2.0, size=(32, 2))
        out = augment(w, "entirety_scaling", 0.2, np.random.default_rng(4))
        ratios = out / w
        assert np.allclose(ratios, ratios.flat[0])
        assert abs(ratios.flat[0] - 1.0) <= 0.2

    def test_scaling_is_elementwise(self):
        w = np.ones((50, 1))
        out = augment(w, "scaling", 0.2, np.random.default_rng(5))
        assert np.unique(out).size > 10
        assert np.all(np.abs(out - 1.0) <= 0.2)

    def test_unknown_kind_rejected(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match=r"^augmentation kind must be one of \('scaling', "
                                              r"'jittering', 'entirety_scaling'\), got 'warping'$"):
            augment(np.zeros(4), "warping", 0.2, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("beta", [-1.0, float("nan"), float("inf"), 1e308, 10**400])
    def test_unusable_beta_rejected(self, beta):
        """A beta whose draw range 2*beta is not finite would overflow in
        the generator; it is refused before anything is drawn."""
        for kind in ("scaling", "jittering", "entirety_scaling"):
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            with pytest.raises(ConfigError, match="^augmentation beta must be >= 0 with "
                                                  "2\\*beta finite, got "):
                augment(np.zeros(4), kind, beta, rng)
            assert rng.bit_generator.state == before

    def test_largest_usable_beta_draws(self):
        out = augment(np.zeros(4), "jittering", 8.9e307, np.random.default_rng(0))
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

    @pytest.mark.parametrize("alpha", [0.5, float("nan"), float("inf"),
                                       pytest.param(10**400, id="int-1e400")])
    def test_unusable_alpha_rejected(self, alpha):
        """An infinite alpha would make the minimum offset gap 0, and a NaN
        one cannot be rounded to a gap."""
        with pytest.raises(ConfigError, match="alpha"):
            max_condition1_batch(200, 16, alpha)
        with pytest.raises(ConfigError, match="alpha"):
            TrainConfig(alpha=alpha).validate()

    @pytest.mark.parametrize("lr", [float("inf"), pytest.param(10**400, id="int-1e400")])
    def test_unusable_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="lr"):
            TrainConfig(lr=lr).validate()

    def test_infeasible_reports_max(self):
        with pytest.raises(SamplerError, match="at most 1"):
            sample_batch_condition1(1000, 2, l_in=900, alpha=1.0,
                                    rng=np.random.default_rng(2))

    def test_check_condition1(self):
        assert check_condition1(np.array([0, 42, 84]), 168, 4.0)
        assert not check_condition1(np.array([0, 10]), 168, 4.0)

    def test_tightest_packing_is_the_one_valid_set(self):
        """At the largest feasible batch only one offset set is valid: every
        ``min_gap`` from 0, which also ends at the last offset here."""
        feasible, gap = max_condition1_batch(200, 100, 2.0)
        offsets = sample_batch_condition1(200, feasible, 100, 2.0, np.random.default_rng(3))
        assert offsets.tolist() == (gap * np.arange(feasible)).tolist() == [0, 50, 100]

    def test_a_batch_at_the_etth1_shape_is_not_a_grid(self):
        """A 64-window batch from a 12-month ETTh1 train split at l_in 168 and
        alpha 4: a rejection sampler almost never finds one (4.5e-9 per batch in
        64 tries), so an evenly spaced grid stood in for it with every gap equal."""
        offsets = sample_batch_condition1(8640, 64, 168, 4.0, np.random.default_rng(5))
        gaps = np.diff(offsets)
        assert gaps.min() >= 42 and offsets[-1] <= 8640 - 168
        assert np.unique(gaps).size > 1

    def test_every_valid_set_is_equally_likely(self):
        """14 rows, l_in 4, alpha 2: 11 offsets, gaps >= 2, and C(9, 3) = 84 valid
        sets of 3.  The bound 128.6 is the chi-square 0.999 quantile on 83
        degrees of freedom (Wilson-Hilferty), fixed before the first run."""
        valid = [s for s in itertools.combinations(range(11), 3) if min(np.diff(s)) >= 2]
        assert len(valid) == 84
        rng = np.random.default_rng(11)
        draws = np.array([sample_batch_condition1(14, 3, 4, 2.0, rng) for _ in range(60_000)])
        sets, counts = np.unique(draws, axis=0, return_counts=True)
        assert list(map(tuple, sets.tolist())) == valid
        expected = len(draws) / len(valid)
        assert ((counts - expected) ** 2 / expected).sum() < 128.6

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(l_in=st.integers(1, 48), extra_rows=st.integers(0, 400),
           alpha=st.floats(1.0, 64.0),
           pick=st.one_of(st.sampled_from(["one", "feasible", "over"]), st.integers(1, 300)))
    @example(l_in=8, extra_rows=30, alpha=8.0, pick="feasible")  # min_gap 1: every offset
    @example(l_in=8, extra_rows=30, alpha=50.0, pick="over")
    @example(l_in=1, extra_rows=0, alpha=1.0, pick="one")  # one row, one offset
    def test_draws_are_valid_and_refusals_exact(self, l_in, extra_rows, alpha, pick):
        n_rows = l_in + extra_rows
        feasible, min_gap = max_condition1_batch(n_rows, l_in, alpha)
        batch = {"one": 1, "feasible": feasible, "over": feasible + 1}.get(pick, pick)
        rng = np.random.default_rng(extra_rows)
        if batch > feasible:
            before = rng.bit_generator.state
            with pytest.raises(SamplerError, match=f"at most {feasible} windows"):
                sample_batch_condition1(n_rows, batch, l_in, alpha, rng)
            assert rng.bit_generator.state == before
            return
        offsets = sample_batch_condition1(n_rows, batch, l_in, alpha, rng)
        assert offsets.shape == (batch,)
        assert offsets[0] >= 0 and offsets[-1] <= n_rows - l_in
        assert np.all(np.diff(offsets) >= min_gap)
        assert check_condition1(offsets, l_in, alpha)

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
        """Without augments a window's loss is log(den / e), den the sum of
        its T similarities, so similarities in [1, e] put it in
        [log(T) - 1, log(T)].  Parallel representations, of either sign,
        reach log(T); orthogonal ones give 1 everywhere but the self-similarity."""
        T = 6
        rng = np.random.default_rng(2)
        parallel = np.outer(rng.choice([-1.0, 1.0], T), rng.normal(size=T))
        reps = Tensor(np.stack([rng.normal(size=(T, T)), parallel, np.eye(T)], axis=1))
        _, _, per_win = contrastive_loss(reps, T, 0)
        assert np.all(per_win[0] >= np.log(T) - 1.0) and np.all(per_win[0] <= np.log(T) + 1e-12)
        assert per_win[1] == pytest.approx([np.log(T)] * T, rel=1e-12)
        assert per_win[2] == pytest.approx([np.log(np.e + T - 1) - 1.0] * T, rel=1e-12)

    @pytest.mark.parametrize("shape,n_windows,n_augments,error,match", [
        ((7, 2, 3), 2, 3, ConfigError, r"7 instances != \(1\+3\)\*2"),
        ((0, 2, 3), 0, 3, DimensionError, "0 windows"),
        ((8, 2, 3), 2, 3, NumericalError, r"zero-norm .* \[\[5, 1\]\]"),
        ((8, 3), 2, 3, DimensionError, r"2 windows of \(8, 3\); needs 3-D"),
        ((8, 1, 2, 3), 2, 3, DimensionError, "needs 3-D"),
        ((1, 2, 3), -1, -2, DimensionError, "-1 windows"),
        ((3, 2, 3), 0, 3, DimensionError, "0 windows"),
        ((0, 2, 3), 1, -1, DimensionError, "1 windows"),
    ])
    def test_refused_inputs(self, shape, n_windows, n_augments, error, match):
        """A wrong instance count, zero-norm representations, which are named by
        (instance, group), and, before any array is sized by them, a shape that
        is not (instances, groups, features) or a window count outside
        [1, instances]."""
        data = np.ones(shape)
        if error is NumericalError:
            data[5, 1] = 0.0
        with pytest.raises(error, match=match):
            contrastive_loss(Tensor(data, requires_grad=True), n_windows, n_augments)

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

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(groups=st.integers(1, 7), n_augments=st.integers(1, 3),
           n_windows=st.sampled_from([1, 2, 3, 5, 8]), features=st.integers(2, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_all_groups_at_once_match_the_per_group_loss(self, groups, n_augments, n_windows,
                                                         features, seed):
        """The loss agrees with the per-group oracle on the total, the
        per-variate and per-window losses and the gradient."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=((1 + n_augments) * n_windows, groups, features))
        data *= rng.uniform(0.1, 10.0, size=(1, groups, 1))
        reps = Tensor(data, requires_grad=True)
        with GradTape() as tape:
            total, per_variate, per_window = contrastive_loss(reps, n_windows, n_augments)
        backward(tape, total, params=[reps])
        want = per_group_contrastive_loss(data, n_windows, n_augments)
        assert total.item() == pytest.approx(want[0], rel=1e-12)
        assert per_variate == pytest.approx(want[1], rel=1e-12)
        assert per_window == pytest.approx(want[2], rel=1e-12)
        assert reps.grad == pytest.approx(want[3], rel=1e-12)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(groups=st.integers(1, 7), n_augments=st.integers(0, 3),
           n_windows=st.sampled_from([1, 2, 3, 5, 8]), features=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @example(groups=7, n_augments=3, n_windows=16, features=168, seed=1)
    def test_group_by_group_equals_the_batched_formula_bit_for_bit(
            self, groups, n_augments, n_windows, features, seed):
        """Running one group at a time changes no bit of the total, the
        per-variate and per-window losses or the gradient."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=((1 + n_augments) * n_windows, groups, features))
        data *= rng.uniform(0.1, 10.0, size=(1, groups, 1))
        reps = Tensor(data, requires_grad=True)
        with GradTape() as tape:
            total, per_variate, per_window = contrastive_loss(reps, n_windows, n_augments)
        backward(tape, total, params=[reps])
        want = batched_contrastive_loss(data, n_windows, n_augments)
        for got, ref in zip([total.data, per_variate, per_window, reps.grad], want):
            assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(ref).view(np.uint64))


class ScriptedModel:
    """The state ``_fit`` snapshots and restores: one weight that every step moves."""

    def __init__(self):
        self.w = Tensor(np.zeros(1), requires_grad=True)

    def state(self):
        return {"w": self.w.data}

    def load_state(self, values):
        self.w.data[...] = values["w"]


def argmin_stop(val_mse, patience):
    """(stop epoch, best epoch, diverged): the first epoch whose validation is
    not finite diverges; otherwise the best epoch is the first argmin of the
    history so far, and the run stops once it is ``patience`` epochs old."""
    for epoch in range(len(val_mse)):
        if not np.isfinite(val_mse[epoch]):
            return epoch, None, True
        best = int(np.argmin(val_mse[:epoch + 1]))
        if epoch - best >= patience:
            break
    return epoch, best, False


class TestFitStopping:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(val_mse=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 1e308,
                                             np.nan, np.inf, -np.inf]), min_size=1, max_size=12),
           patience=st.integers(1, 5))
    @example(val_mse=[3.0, 2.0, 1.0, 0.0], patience=1)
    @example(val_mse=[1.0, 2.0, 3.0], patience=2)
    @example(val_mse=[1.0, 1.0, 1.0], patience=1)
    @example(val_mse=[3.0, 2.0, 2.0, 1.0], patience=2)
    def test_scripted_validation_matches_the_argmin_rule(self, val_mse, patience):
        """The stop epoch, the best epoch and the restored state follow a tie-blind
        first-occurrence argmin, and a non-finite validation names its epoch."""
        model = ScriptedModel()
        states = []

        def validate():
            states.append(model.w.data.copy())
            return val_mse[len(states) - 1], 0.0

        def step_loss(batch):
            return mse_loss(reshape(model.w, (1, 1, 1)), np.ones((1, 1, 1)))

        stop, best, diverged = argmin_stop(val_mse, patience)
        result = TrainResult()
        cfg = TrainConfig(lr=0.1, patience=patience)

        def run():
            training._fit(model, [("w", model.w)], cfg, len(val_mse), lambda: [None],
                          step_loss, validate, result)

        if diverged:
            with pytest.raises(NumericalError, match=f"^training diverged at epoch {stop}: "
                                                     "non-finite validation MSE"):
                run()
        else:
            run()
            assert result.best_epoch == best
            assert np.array_equal(model.w.data, states[best])
        assert len(states) == stop + 1
        # every epoch leaves another weight, so the restored one names its epoch
        assert len(set(float(w[0]) for w in states)) == len(states)
        assert [row["val_mse"] for row in result.history] == val_mse[:stop + (not diverged)]


class TestBatching:
    def test_contrastive_batch_layout(self):
        ds = series_dataset(ar_series([0.5], 500, seed=0))
        windows = make_contrastive_batch(ds, 4, l_in=32, alpha=4.0, n_augments=3,
                                         beta=0.2, rng=np.random.default_rng(0))
        # the batch's first draws are the sampler's
        offsets = sample_batch_condition1(500, 4, 32, 4.0, np.random.default_rng(0))
        assert windows.shape == (16, 32, 1)
        assert check_condition1(offsets, 32, 4.0)
        for m, o in enumerate(offsets):
            original = ds.values[o:o + 32]
            assert np.array_equal(windows[m], original)
            # instance i of window m sits at B + m*I + i and stays within the
            # augmentation amplitude of its own original
            bound = 0.2 * np.maximum(np.abs(original), 1.0) + 1e-12
            for i in range(3):
                assert np.all(np.abs(windows[4 + m * 3 + i] - original) <= bound)

    @pytest.mark.parametrize("batch,n_augments", [(1, 1), (1, 3), (4, 1), (5, 3), (8, 2)])
    def test_contrastive_batch_matches_the_piecewise_reference(self, batch, n_augments):
        """Element for element the array the piece-by-piece construction
        concatenates, with the generator left in the same state."""
        values, names = synthetic_multivariate(300, seed=batch)
        ds = TimeSeriesDataset(hourly(300), values, names, 6)
        rng, ref_rng = np.random.default_rng(40 + batch), np.random.default_rng(40 + batch)
        windows = make_contrastive_batch(ds, batch, 16, 4.0, n_augments, 0.2, rng)
        want = piecewise_contrastive_batch(ds, batch, 16, 4.0, n_augments, 0.2, ref_rng)
        assert windows.shape == want.shape == ((1 + n_augments) * batch, 16, 7)
        assert np.array_equal(windows, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


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


def per_batch_errors(model, ds, batch_size):
    """evaluate's (MSE, MAE) from a plain model.forward per batch, on a fresh
    copy of the model, so nothing an earlier evaluate left behind is read."""
    fresh = RTNet(model.cfg, np.random.default_rng(0), relation=model.relation)
    fresh.load_state(model.state())
    cfg = model.cfg
    offsets = make_windows(len(ds), cfg.l_in, cfg.l_out)
    se = ae = 0.0
    count = 0
    for start in range(0, offsets.size, batch_size):
        wb = gather_batch(ds, offsets[start:start + batch_size], cfg.l_in, cfg.l_out,
                          with_marks=cfg.time_mode == "decoupled",
                          with_input_marks=cfg.time_mode == "input")
        diff = fresh.forward(wb.inputs, wb.time_marks, training=False,
                             input_marks=wb.input_marks).data - wb.targets
        se += float((diff ** 2).sum())
        ae += float(np.abs(diff).sum())
        count += diff.size
    return se / count, ae / count


def perturbed_model(seed, **kw):
    """A tiny model whose every parameter has moved off its initial value."""
    model = tiny_model(seed=seed, **kw)
    rng = np.random.default_rng(seed + 100)
    for _, p in model.named_parameters():
        p.data += rng.normal(0.0, 0.1, p.data.shape)
    return model


@pytest.fixture
def weight_norm_calls(monkeypatch):
    """Counts calls of rtnet.model.weight_norm_effective, the binding the model uses."""
    calls = []
    real = rtnet_model.weight_norm_effective

    def counted(v, g):
        calls.append(v)
        return real(v, g)

    monkeypatch.setattr(rtnet_model, "weight_norm_effective", counted)
    return calls


class TestEvaluate:
    @pytest.mark.parametrize("time_mode", ["none", "decoupled", "input"])
    @pytest.mark.parametrize("norm_kind", ["wn", "bn", "ln", "none"])
    def test_equals_a_per_batch_forward_loop_bitwise(self, monkeypatch, norm_kind, time_mode):
        monkeypatch.setattr(training, "EVAL_BATCH", 7)
        model = perturbed_model(3, norm_kind=norm_kind, time_mode=time_mode)
        ds = ar_dataset(120, 4)
        assert evaluate(model, ds) == per_batch_errors(model, ds, 7)

    def test_sees_the_weights_after_an_adam_step(self, monkeypatch):
        monkeypatch.setattr(training, "EVAL_BATCH", 16)
        model = perturbed_model(5)
        ds = ar_dataset(120, 6)
        before = evaluate(model, ds)
        opt = Adam(list(model.named_parameters()), lr=1e-2)
        rng = np.random.default_rng(7)
        for p in opt.params:
            p.grad = rng.normal(size=p.data.shape)
        opt.step()
        after = evaluate(model, ds)
        assert after != before
        assert after == per_batch_errors(model, ds, 16)

    def test_leaves_state_names_and_checkpoint_bytes_unchanged(self, tmp_path):
        model = perturbed_model(8, time_mode="decoupled")
        names = list(model.state())
        save_checkpoint(model, str(tmp_path / "before.rtnet"))
        with model.weights_held():
            assert list(model.state()) == names
        evaluate(model, ar_dataset(120, 9))
        save_checkpoint(model, str(tmp_path / "after.rtnet"))
        assert list(model.state()) == names
        assert ((tmp_path / "before.rtnet").read_bytes()
                == (tmp_path / "after.rtnet").read_bytes())

    def test_two_threads_on_two_models_give_the_serial_results(self, monkeypatch):
        monkeypatch.setattr(training, "EVAL_BATCH", 4)
        models = [perturbed_model(s, time_mode="decoupled") for s in (10, 11)]
        ds = ar_dataset(200, 12)
        serial = [[evaluate(m, ds) for _ in range(3)] for m in models]
        assert serial[0] != serial[1]
        barrier = threading.Barrier(2, timeout=60)
        results = [None, None]

        def run(i):
            barrier.wait()
            results[i] = [evaluate(models[i], ds) for _ in range(3)]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert results == serial

    @pytest.mark.parametrize("batch_size", [1, 16, 64])
    def test_weight_norm_runs_once_per_unit_per_call(self, monkeypatch, weight_norm_calls,
                                                     batch_size):
        monkeypatch.setattr(training, "EVAL_BATCH", batch_size)
        model = perturbed_model(13, time_mode="decoupled")
        units = [p for n, p in model.named_parameters() if n.endswith(".v")]
        ds = ar_dataset(120, 14)
        assert make_windows(len(ds), 16, 2).size > 64
        for call in range(1, 3):
            evaluate(model, ds)
            assert len(weight_norm_calls) == call * len(units)
        assert {id(v) for v in weight_norm_calls} == {id(v) for v in units}

    def test_held_weights_are_dropped_on_error(self, monkeypatch, weight_norm_calls):
        monkeypatch.setattr(training, "EVAL_BATCH", 8)
        model = perturbed_model(15)
        ds = ar_dataset(120, 16)
        n_units = sum(n.endswith(".v") for n, _ in model.named_parameters())
        real_gather = training.gather_batch
        gathered = []

        def gather_then_fail(*args, **kwargs):
            gathered.append(1)
            if len(gathered) == 2:
                raise DataError("unreadable batch")
            return real_gather(*args, **kwargs)

        monkeypatch.setattr(training, "gather_batch", gather_then_fail)
        with pytest.raises(DataError):
            evaluate(model, ds)
        assert len(weight_norm_calls) == n_units
        # a forward after the failed call builds its own effective weights
        model.forward(np.zeros((2, 16, 1)))
        assert len(weight_norm_calls) == 2 * n_units


def op_name(node):
    return node.grad_fn.__qualname__.split(".")[0]


class TestStepTape:
    # a grouped model with a time branch: l_in 16, 2 blocks, 7 groups, d 14
    MODEL = dict(n_variates=7, groups=7, d_channels=14, time_mode="decoupled", dropout=0.1)
    BATCH = 4
    AUGMENTS = 3

    def one_step_nodes(self, monkeypatch, fmt="e2e"):
        """The nodes of the first training step's tape, listed before its
        backward spends them."""
        values, names = synthetic_multivariate(200, seed=3)
        train = TimeSeriesDataset(hourly(200), values, names, 6)
        model = tiny_model(seed=3, **self.MODEL)
        steps = []

        def record(tape, *args, **kwargs):
            steps.append(list(tape.nodes))
            return backward(tape, *args, **kwargs)

        monkeypatch.setattr(training, "backward", record)
        cfg = TrainConfig(epochs=1, batch_size=self.BATCH, stage1_batch_size=self.BATCH,
                          stage2_batch_size=self.BATCH, n_augments=self.AUGMENTS,
                          max_steps_per_epoch=1, seed=3)
        fit = train_end_to_end if fmt == "e2e" else train_contrastive
        fit(model, train, train.slice(100, 200), cfg)
        assert len(steps) == (1 if fmt == "e2e" else 2)  # contrastive: stages 1 and 2
        return model.cfg, steps[0]

    @staticmethod
    def unit(c_out, fan_in):
        """A weight-norm weight: the effective weight and the norms; backward
        rebuilds the direction from v."""
        return c_out * fan_in + c_out

    @classmethod
    def extractor(cls, cfg, B, c_in, length, depth, stride):
        """Bytes: the embedding conv input and output as floats, then per
        block of c channels the conv1 and conv2 outputs at 2c channels, which
        the block's two relu_dropout ops reuse in place, and the join's
        winner index at c channels, one entry per pooled window."""
        d, G, k = cfg.d_channels, cfg.groups, cfg.kernel
        n = c_in * B * length + d * B * length + cls.unit(d, c_in // G * k)
        winners = 0
        for j in range(depth):
            c = d << j
            length //= stride
            n += 4 * c * B * length + cls.unit(2 * c, c // G * k) + cls.unit(2 * c, 2 * c // G * k)
            winners += c * B * length
        return 8 * n + np.dtype(np.min_scalar_type(k - 1)).itemsize * winners

    def pyramid(self, cfg, B):
        return sum(self.extractor(cfg, B, cfg.n_variates, cfg.l_in >> i, cfg.blocks - i, 2)
                   for i in range(cfg.blocks))

    @staticmethod
    def kept_bytes(nodes):
        """Distinct bytes of the node outputs and the arrays their closures hold."""
        kept = {id(root_base(a)): root_base(a).nbytes for node in nodes
                for a in [node.output.data, *closure_arrays(node.grad_fn)]}
        return sum(kept.values())

    def test_conv_nodes_keep_only_their_input_and_weight(self, monkeypatch):
        """After one step, every conv node's closure holds its own input and
        weight and no other array."""
        _, nodes = self.one_step_nodes(monkeypatch)
        convs = [node for node in nodes if op_name(node) == "conv1d_grouped"]
        # branches of 2 and 1 blocks, the 2-block TimeNet and the time head
        assert len(convs) == 5 + 3 + 5 + 1
        for node in convs:
            x, w, _ = node.inputs
            own = {id(root_base(x.data)), id(root_base(w.data))}
            assert {id(root_base(a)) for a in closure_arrays(node.grad_fn)} == own

    def test_weight_norm_keeps_v_g_and_the_norms(self, monkeypatch):
        """Every weight-norm node's closure holds its own v and g and one
        (c_out,) array, and no copy of the direction v/||v||."""
        _, nodes = self.one_step_nodes(monkeypatch)
        wn = [node for node in nodes if op_name(node) == "weight_norm_effective"]
        # one per conv, as above, and the linear head
        assert len(wn) == 5 + 3 + 5 + 1 + 1
        for node in wn:
            v, g = node.inputs
            cells = [cell.cell_contents for cell in node.grad_fn.__closure__]
            assert {id(c) for c in cells if isinstance(c, Tensor)} == {id(v), id(g)}
            (norms,) = closure_arrays(node.grad_fn)
            assert norms.shape == (v.shape[0],)

    def test_block_activations_are_fused_and_the_tape_keeps_only_what_backward_needs(
            self, monkeypatch):
        """No relu, dropout or channel repetition node is recorded, the only
        add is the time head's, and the distinct bytes the tape keeps are
        exactly those its shapes call for."""
        cfg, nodes = self.one_step_nodes(monkeypatch)
        ops = [op_name(node) for node in nodes]
        assert not {"relu", "dropout", "channel_upsample", "maxpool1d"} & set(ops)
        assert ops.count("add") == 1 and ops[ops.index("add") - 1] == "permute"
        # two per block: branches of 2 and 1 blocks, the 2-block TimeNet
        assert ops.count("relu_dropout") == 2 * (2 + 1 + 2)

        B, N, G, l_out = self.BATCH, cfg.n_variates, cfg.groups, cfg.l_out
        features = B * G * features_per_group(cfg)
        prediction = B * l_out * N
        floats = (features                           # group_features
                  + features + prediction            # head: its grouped input copy, output
                  + self.unit(l_out * N, features // (B * G))
                  + prediction                       # transpose_12
                  + self.unit(N, 4 * cfg.d_channels // G) + prediction  # time head conv
                  + 2 * prediction                   # permute, add
                  + prediction + 1)                  # the MSE's diff and its total
        time_net = self.extractor(cfg, B, G * cfg.n_time, l_out, 2, 1)
        assert self.kept_bytes(nodes) == self.pyramid(cfg, B) + time_net + 8 * floats

    def test_the_e2e_step_tape_ends_in_one_loss_node(self, monkeypatch):
        _, nodes = self.one_step_nodes(monkeypatch)
        ops = [op_name(node) for node in nodes]
        assert ops[-2:] == ["add", "mse_loss"] and ops.count("mse_loss") == 1

    def test_stage1_step_keeps_only_what_backward_needs(self, monkeypatch):
        """One stage-1 contrastive step records the pyramid as an end-to-end
        step does, then the loss over every group as one node: it keeps the
        (groups, windows, instances) dot products and similarities, and no
        normalized copy of the features."""
        cfg, nodes = self.one_step_nodes(monkeypatch, "contrastive")
        ops = [op_name(node) for node in nodes]
        assert ops[-2:] == ["group_features", "contrastive_loss"]

        n, G = self.BATCH, cfg.groups
        T = (1 + self.AUGMENTS) * n
        features = T * G * features_per_group(cfg)
        similarities = G * n * T
        floats = (features                           # group_features
                  + T * G                            # inverse norms
                  + 2 * similarities                 # dot products, similarities
                  + n * T                            # the positives' mask
                  + 2 * G * n                        # denominators, numerators
                  + 1)                               # the total
        assert self.kept_bytes(nodes) == self.pyramid(cfg, T) + 8 * floats

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

        real_evaluate, real_loss = training.evaluate, training.contrastive_loss

        def evaluate(*args, **kwargs):
            count_live_tapes()
            return real_evaluate(*args, **kwargs)

        def stage1_loss(*args):
            if tensor._active_tape() is None:  # the stage-1 validation loss
                count_live_tapes()
            return real_loss(*args)

        monkeypatch.setattr(training, "GradTape", RecordedTape)
        monkeypatch.setattr(training, "evaluate", evaluate)
        monkeypatch.setattr(training, "contrastive_loss", stage1_loss)
        cfg = TrainConfig(epochs=2, stage1_epochs=2, batch_size=8, stage1_batch_size=8,
                          stage2_batch_size=8, patience=5, seed=4, max_steps_per_epoch=2)
        train = train_end_to_end if fmt == "e2e" else train_contrastive
        train(tiny_model(seed=4), ar_dataset(420, 5), ar_dataset(420, 6), cfg)
        assert tapes
        assert alive_at_validation == [0] * (2 if fmt == "e2e" else 4)

    @pytest.mark.parametrize("fmt", ["e2e", "contrastive"])
    def test_no_gradient_is_alive_during_validation(self, monkeypatch, fmt):
        """Each epoch's last gradients are dropped before its validation runs,
        in end-to-end training and in both contrastive stages."""
        real_fit = training._fit
        validated = []

        def fit(model, named_params, cfg, epochs, batches, step_loss, validate, result,
                stage=None):
            named = list(named_params)

            def checked_validate():
                validated.append(stage)
                assert [n for n, p in named if p.grad is not None] == []
                return validate()

            real_fit(model, named, cfg, epochs, batches, step_loss, checked_validate, result,
                     stage)

        monkeypatch.setattr(training, "_fit", fit)
        cfg = TrainConfig(epochs=2, stage1_epochs=2, batch_size=8, stage1_batch_size=8,
                          stage2_batch_size=8, patience=5, seed=4, max_steps_per_epoch=2)
        train = train_end_to_end if fmt == "e2e" else train_contrastive
        train(tiny_model(seed=4), ar_dataset(420, 5), ar_dataset(420, 6), cfg)
        assert validated == ([None] * 2 if fmt == "e2e" else [1, 1, 2, 2])


class TestFitSnapshot:
    def test_one_snapshot_taken_at_epoch_0_and_overwritten_in_place(self, monkeypatch):
        """Validation improves at epochs 0 and 2: no snapshot exists before
        the first validation, epoch 1 leaves epoch 0's in place, and epoch 2
        overwrites the same arrays, which are what the model is restored from."""
        model = tiny_model(seed=2, dropout=0.1)
        cfg = TrainConfig(epochs=3, lr=1e-2, patience=3, max_steps_per_epoch=2)
        rng = np.random.default_rng(2)
        states, snapshots, restored = [], [], []
        val_mse = iter([3.0, 4.0, 1.0])

        def validate(net, ds):
            states.append({n: a.copy() for n, a in model.state().items()})
            # the loop's snapshot as this epoch's validation finds it: the
            # arrays themselves, and their values then
            frame = sys._getframe(1)
            while frame.f_code is not training._fit.__code__:
                frame = frame.f_back
            snapshot = frame.f_locals["best_state"]
            snapshots.append({n: (a, a.copy()) for n, a in snapshot.items()})
            return next(val_mse), 0.0

        real_load_state = model.load_state

        def load_state(values):
            restored.append(values)
            real_load_state(values)

        monkeypatch.setattr(model, "load_state", load_state)
        monkeypatch.setattr(training, "evaluate", validate)
        result = training.TrainResult()
        ds = ar_dataset(200, 3)
        training._fit_supervised(model, model.named_parameters(), ds, ds, cfg, 8, rng, rng,
                                 result)
        assert result.best_epoch == 2 and len(states) == 3
        assert snapshots[0] == {}
        (final,) = restored
        for name, a in model.state().items():
            (at_1, value_1), (at_2, value_2) = snapshots[1][name], snapshots[2][name]
            assert at_1 is at_2 is final[name]
            assert np.array_equal(value_1, states[0][name])
            assert np.array_equal(value_2, states[0][name])
            assert np.array_equal(a, states[2][name])
        assert any(not np.array_equal(states[0][n], states[2][n]) for n in states[0])


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


class TestTrainingRefusals:
    @pytest.mark.parametrize("key", ["patience", "epochs", "max_steps_per_epoch"])
    def test_counts_below_one(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1, got 0$"):
            TrainConfig(**{key: 0}).validate()

    def test_batch_larger_than_the_training_windows(self):
        ds = ar_dataset(60, seed=0)  # 60 - 16 - 2 + 1 windows
        with pytest.raises(ConfigError, match="^batch size 44 exceeds the 43 available "
                                              "training windows$"):
            train_end_to_end(tiny_model(), ds, ds, TrainConfig(epochs=1, batch_size=44))

    def test_non_finite_loss_names_epoch_and_step(self, monkeypatch):
        """The sixth step's loss is made infinite: four steps in epoch 0, then
        step 1 of epoch 1."""
        calls, mse_loss = [], training.mse_loss

        def poisoned(pred, truth):
            total, per_variate = mse_loss(pred, truth)
            calls.append(total)
            if len(calls) == 6:
                total.data[...] = np.inf
            return total, per_variate

        monkeypatch.setattr(training, "mse_loss", poisoned)
        ds = ar_dataset(120, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=8, max_steps_per_epoch=4)
        with pytest.raises(NumericalError, match="^training diverged: non-finite loss at "
                                                 "epoch 1, step 1$"):
            train_end_to_end(tiny_model(), ds, ds, cfg)
        assert len(calls) == 6

    @pytest.mark.parametrize("fmt,label", [("e2e", "training"), ("contrastive", "stage 2")])
    def test_a_nan_forecast_at_validation_names_its_stage_and_epoch(self, monkeypatch, fmt,
                                                                    label):
        """The head bias turns NaN after the fourth head step, the last of
        epoch 1, so every forecast of that epoch's validation is NaN."""
        model = tiny_model(seed=3)
        bias = dict(model.named_parameters())["head.linear.bias"]
        real_step, head_steps = Adam.step, []

        def step(opt):
            real_step(opt)
            if any(p is bias for p in opt.params):
                head_steps.append(1)
                if len(head_steps) == 4:
                    bias.data[...] = np.nan

        monkeypatch.setattr(Adam, "step", step)
        ds = ar_dataset(120, seed=0)
        cfg = TrainConfig(epochs=3, stage1_epochs=1, batch_size=8, stage1_batch_size=8,
                          stage2_batch_size=8, max_steps_per_epoch=2)
        train = train_end_to_end if fmt == "e2e" else train_contrastive
        with pytest.raises(NumericalError, match=f"^{label} diverged at epoch 1: non-finite "
                                                 "forecast error: squared sum nan, "
                                                 "absolute sum nan$"):
            train(model, ds, ds, cfg)
        assert len(head_steps) == 4

    def test_contrastive_training_refuses_input_time_features(self):
        ds = ar_dataset(120, seed=0)
        with pytest.raises(ConfigError, match="^contrastive training expects decoupled or "
                                              "absent time features$"):
            train_contrastive(tiny_model(time_mode="input"), ds, ds, TrainConfig(epochs=1))


class TestTrainContrastive:
    def make_data(self, n=420, seed=0):
        return ar_dataset(n, seed)

    def test_stage1_loss_finite_nonnegative_and_decreases(self):
        ds = self.make_data(seed=11)
        model = tiny_model(seed=11, l_in=16)
        rng = np.random.default_rng(12)

        def step_loss(windows, train_mode):
            """Stage 1's loss of a contrastive batch of 8 windows, 3 instances each."""
            reps = model.representations(windows, training=train_mode)
            return contrastive_loss(reps, 8, 3)[0]

        first = step_loss(make_contrastive_batch(ds, 8, 16, 4.0, 3, 0.2, rng), False)
        assert np.isfinite(first.item()) and first.item() >= 0.0
        opt = Adam(list(model.cpn_named_parameters()), lr=1e-3)
        losses = []
        for step in range(50):
            b = make_contrastive_batch(ds, 8, 16, 4.0, 3, 0.2, rng)
            with GradTape() as tape:
                total = step_loss(b, True)
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
            {"epoch": 0, "stage": 1, "train_loss_0": 1.732991727006259,
             "val_mse": 1.545603113481615, "val_mae": nan},
            {"epoch": 1, "stage": 1, "train_loss_0": 1.589500291305048,
             "val_mse": 1.4704643124878196, "val_mae": nan},
            {"epoch": 2, "stage": 1, "train_loss_0": 1.5270094135636363,
             "val_mse": 1.4194253531313035, "val_mae": nan},
            {"epoch": 0, "stage": 2, "train_loss_0": 5.12249998418597,
             "val_mse": 2.641995873884801, "val_mae": 1.2628597477416261},
            {"epoch": 1, "stage": 2, "train_loss_0": 3.845020621818989,
             "val_mse": 1.0228865805859346, "val_mae": 0.7954218918758328},
            {"epoch": 2, "stage": 2, "train_loss_0": 1.7552299986418527,
             "val_mse": 0.9849001208951952, "val_mae": 0.7791401077152988},
        ])
        assert result.best_epoch == 2
        assert evaluate(model, val)[0] == pytest.approx(0.9849001208951952, rel=1e-10)
