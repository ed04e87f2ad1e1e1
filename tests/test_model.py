"""Architecture tests: shape contracts, group independence, heads, checkpoints."""

import dataclasses
import io
import json
import re
import struct
import tempfile
import time
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from conftest import closure_arrays, npy_bytes, rewrite_members, sq_sum, swap_bc
from hypothesis import given, settings
from hypothesis import strategies as st

from rtnet.data import N_TIME_FEATURES
from rtnet.errors import ConfigError, DataError, DimensionError
from rtnet.model import (TIME_MODES, ConvUnit, ModelConfig, RTBlock, RTNet, load_checkpoint,
                         load_config, save_checkpoint)
from rtnet.norm import NORM_KINDS, weight_norm_effective
from rtnet.tensor import GradTape, Tensor, backward, mse_loss, relu_dropout


def small_cfg(**kw):
    base = dict(l_in=32, l_out=4, n_variates=3, d_channels=6, blocks=2, groups=3,
                n_time=6, time_mode="none", norm_kind="wn", dropout=0.0, kernel=3)
    base.update(kw)
    return ModelConfig(**base)


def make_model(cfg=None, seed=0, relation=None, **kw):
    cfg = cfg or small_cfg(**kw)
    return RTNet(cfg, np.random.default_rng(seed), relation=relation)


class TestConfig:
    def test_divisibility_checks(self):
        with pytest.raises(ConfigError):
            small_cfg(l_in=30).validate()  # not divisible by 2^blocks
        with pytest.raises(ConfigError):
            small_cfg(d_channels=7).validate()
        with pytest.raises(ConfigError):
            small_cfg(groups=2).validate()  # groups must be 1 or N
        with pytest.raises(ConfigError):
            small_cfg(kernel=4).validate()

    @pytest.mark.parametrize("kw", [{"d_channels": 0}, {"d_channels": -3},
                                    {"n_variates": 0, "groups": 1},
                                    {"n_variates": -2, "groups": 1},
                                    {"time_mode": "decoupled", "n_time": 7},
                                    {"time_mode": "input", "n_time": 50},
                                    {"time_mode": "input", "n_time": 0}])
    def test_out_of_range_width_or_time_features_refused(self, kw):
        """The time branch reads all N_TIME_FEATURES calendar columns; any other
        n_time would fail only inside the first step."""
        with pytest.raises(ConfigError, match=f"^{next(k for k in kw if k != 'time_mode')} must"):
            small_cfg(**kw).validate()

    @pytest.mark.parametrize("kw,phrase", [
        ({"norm_kind": "xx"}, r"norm_kind must be one of \('wn', 'bn', 'ln', 'none'\), got 'xx'"),
        ({"dropout": 1.0}, r"dropout must lie in \[0, 1\), got 1.0"),
        ({"time_mode": "xx"}, "time_mode must be one of .*, got 'xx'")])
    def test_unknown_kind_or_full_dropout_refused(self, kw, phrase):
        with pytest.raises(ConfigError, match=phrase):
            small_cfg(**kw).validate()

    def test_n_time_is_free_without_a_time_mode(self):
        small_cfg(time_mode="none", n_time=7).validate()

    def test_loader_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(ModelConfig, dict(dataclasses.asdict(small_cfg()), bogus=1), "model")


class TestRTBlock:
    def test_halve_double_shape(self):
        rng = np.random.default_rng(0)
        block = RTBlock(16, 3, 1, "wn", 0.0, rng)
        x = Tensor(swap_bc(rng.normal(size=(2, 16, 168))))
        assert block.forward(x, False, None).shape == (32, 2, 84)

    def test_odd_length_rejected(self):
        block = RTBlock(4, 3, 1, "wn", 0.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            block.forward(Tensor(np.zeros((4, 1, 7))), False, None)

    def test_zero_main_path_reduces_to_shortcut(self):
        rng = np.random.default_rng(1)
        block = RTBlock(2, 3, 1, "none", 0.0, rng)
        block.conv1.weight.data[:] = 0.0
        block.conv2.weight.data[:] = 0.0
        block.conv1.bias.data[:] = 0.0
        block.conv2.bias.data[:] = 0.0
        x = swap_bc(np.abs(rng.normal(size=(1, 2, 8))))  # nonnegative input
        out = block.forward(Tensor(x), False, None)
        from rtnet.tensor import channel_upsample, maxpool1d
        shortcut = channel_upsample(maxpool1d(Tensor(x), 3, 2, 1), 2)
        assert np.array_equal(out.data, shortcut.data)

    def test_three_stacked_blocks_shape_trace(self):
        """Shape oracle: (16,B,168) -> (32,B,84) -> (64,B,42) -> (128,B,21)."""
        rng = np.random.default_rng(2)
        x = Tensor(swap_bc(rng.normal(size=(2, 16, 168))))
        expected = [(32, 2, 84), (64, 2, 42), (128, 2, 21)]
        c = 16
        for want in expected:
            x = RTBlock(c, 3, 1, "wn", 0.0, rng).forward(x, False, None)
            assert x.shape == want
            c *= 2


class TestEmbedding:
    def test_each_variate_owns_its_channel_block(self):
        """7 variates, 56 channels, 7 groups: 8 channels per variate, and a
        variate's block reads that variate alone."""
        rng = np.random.default_rng(0)
        embed = ConvUnit(7, 56, 3, 1, 7, "wn", rng)
        assert embed.v.data.shape == (56, 1, 3)
        x1 = rng.normal(size=(2, 7, 20))
        x2 = x1.copy()
        x2[:, 3] += 5.0
        y1 = swap_bc(embed.forward(Tensor(swap_bc(x1)), False).data)
        y2 = swap_bc(embed.forward(Tensor(swap_bc(x2)), False).data)
        changed = np.flatnonzero(np.any(y1 != y2, axis=(0, 2)))
        assert changed.min() >= 3 * 8 and changed.max() < 4 * 8

    def test_length_preserved(self):
        embed = ConvUnit(1, 4, 3, 1, 1, "wn", np.random.default_rng(1))
        assert embed.forward(Tensor(np.zeros((1, 1, 168))), False).shape == (4, 1, 168)

    def test_zero_weights_bias_constant(self):
        embed = ConvUnit(2, 4, 3, 1, 1, "none", np.random.default_rng(2))
        embed.weight.data[:] = 0.0
        embed.bias.data[:] = np.arange(4.0)
        out = embed.forward(Tensor(swap_bc(np.random.default_rng(3).normal(size=(1, 2, 10)))), False)
        assert np.array_equal(out.data[:, 0], np.tile(np.arange(4.0)[:, None], (1, 10)))


class TestPyramid:
    def test_documented_slice_lengths_at_168(self):
        """blocks=3, l_in=168: extractors read the last 168, 84, and 42 rows."""
        cfg = small_cfg(l_in=168, blocks=3, n_variates=1, groups=1, d_channels=4)
        model = make_model(cfg)
        lengths = []
        orig_forward = type(model.branches[0]).forward

        def spy(self, x, training, rng):
            lengths.append(x.data.shape[2])
            return orig_forward(self, x, training, rng)

        type(model.branches[0]).forward = spy
        try:
            model.representations(np.zeros((1, 168, 1)))
        finally:
            type(model.branches[0]).forward = orig_forward
        assert lengths == [168, 84, 42]

    def test_branch_slices_and_final_lengths(self):
        """Branch i sees the last 1/2^i of the input; all outputs share one length."""
        cfg = small_cfg(l_in=32, blocks=3, n_variates=1, groups=1, d_channels=4)
        model = make_model(cfg)
        marker = np.zeros((1, 32, 1))
        reps_zero = model.representations(marker).data
        # perturbing an element before the shallow branches' slices changes
        # only the branches that can see it
        feat_sizes = [32 * 4 >> i for i in range(3)]  # per-branch feature widths
        bounds = np.cumsum([0] + feat_sizes)
        marker[0, 0, 0] = 100.0  # visible to branch 0 only
        delta = model.representations(marker).data - reps_zero
        assert np.any(delta[0, 0, bounds[0]:bounds[1]] != 0)
        assert np.all(delta[0, 0, bounds[1]:] == 0)
        marker[0, 0, 0] = 0.0
        marker[0, 16, 0] = 100.0  # visible to branches 0 and 1, not 2
        delta = model.representations(marker).data - reps_zero
        assert np.any(delta[0, 0, bounds[1]:bounds[2]] != 0)
        assert np.all(delta[0, 0, bounds[2]:] == 0)

    def test_total_feature_width_invariant_in_depth(self):
        """Dominant-branch output width stays l_in * d regardless of block count."""
        for blocks in (1, 2, 3):
            cfg = small_cfg(l_in=32, blocks=blocks, n_variates=1, groups=1, d_channels=4)
            model = make_model(cfg)
            h = model.branches[0].forward(Tensor(np.zeros((1, 1, 32))), False, None)
            assert h.data.shape[0] * h.data.shape[2] == 32 * 4

    def test_features_copy_the_branch_outputs_once(self):
        """The features node reads the branch outputs themselves: the tape
        records no permuted copy of them, and each group's features are its
        channel blocks in (c, l) order, branch after branch."""
        model = make_model(small_cfg(dropout=0.1))
        x = np.random.default_rng(5).normal(size=(2, 32, 3))
        with GradTape() as tape:
            feats = model.representations(x, training=True, rng=np.random.default_rng(6))
        node = tape.nodes[-1]
        assert node.output is feats
        outputs = {id(n.output) for n in tape.nodes[:-1]}
        assert len(node.inputs) == 2 and all(id(h) in outputs for h in node.inputs)
        assert not any(n.grad_fn.__qualname__.startswith("permute.") for n in tape.nodes)
        want = np.concatenate([h.data.transpose(1, 0, 2).reshape(2, 3, -1)
                               for h in node.inputs], axis=2)
        assert np.array_equal(feats.data, want)

    def test_branch_parameter_isolation(self):
        cfg = small_cfg(n_variates=1, groups=1, d_channels=4)
        model = make_model(cfg, seed=3)
        x = np.random.default_rng(4).normal(size=(2, cfg.l_in, 1))
        before = model.representations(x).data.copy()
        sizes = [cfg.l_in * cfg.d_channels >> i for i in range(cfg.blocks)]
        bounds = np.cumsum([0] + sizes)
        # perturb every parameter of branch 1
        for _, p in model.branches[1].named_parameters("b"):
            p.data += 0.37
        after = model.representations(x).data
        assert np.array_equal(before[:, :, bounds[0]:bounds[1]],
                              after[:, :, bounds[0]:bounds[1]])
        assert np.any(before[:, :, bounds[1]:bounds[2]]
                      != after[:, :, bounds[1]:bounds[2]])


class TestForward:
    @pytest.mark.parametrize("shape", [(2, 31, 3), (2, 32, 2), (32, 3)])
    def test_misshapen_inputs_refused(self, shape):
        with pytest.raises(DimensionError, match=rf"inputs must be \(B, 32, 3\), got "
                                                 rf"{re.escape(str(shape))}"):
            make_model().forward(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 3, 6), (2, 4, 5), (3, 4, 6)])
    def test_misshapen_marks_refused(self, shape):
        model = make_model(time_mode="decoupled")
        with pytest.raises(DimensionError, match=rf"marks must be \(B, 4, 6\), got "
                                                 rf"{re.escape(str(shape))}"):
            model.forward(np.zeros((2, 32, 3)), np.zeros(shape))

    @pytest.mark.parametrize("shape", [None, (2, 32, 5), (2, 16, 6), (3, 32, 6)])
    def test_misshapen_input_marks_refused(self, shape):
        model = make_model(time_mode="input")
        marks = None if shape is None else np.zeros(shape)
        with pytest.raises(DimensionError, match=r"^time_mode='input' requires input-window "
                                                 r"marks of shape \(B, 32, 6\)$"):
            model.forward(np.zeros((2, 32, 3)), input_marks=marks)

    def test_output_shape_univariate(self):
        cfg = small_cfg(n_variates=1, groups=1, d_channels=4, l_out=24)
        model = make_model(cfg)
        out = model.forward(np.zeros((5, cfg.l_in, 1)))
        assert out.shape == (5, 24, 1)

    def test_zero_weights_zero_prediction(self):
        cfg = small_cfg(norm_kind="none")
        model = make_model(cfg)
        model.head_linear.weight.data[:] = 0.0
        model.head_linear.bias.data[:] = 0.0
        out = model.forward(np.random.default_rng(0).normal(size=(2, 32, 3)))
        assert np.array_equal(out.data, np.zeros((2, 4, 3)))

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("time_mode", ["none", "decoupled"])
    @pytest.mark.parametrize("norm_kind", NORM_KINDS)
    def test_grouped_independence_bit_exact(self, norm_kind, time_mode, training):
        """With identity relation, variate j never touches variate i's prediction."""
        cfg = small_cfg(norm_kind=norm_kind, time_mode=time_mode)
        model = make_model(cfg, relation=np.eye(3))
        rng = np.random.default_rng(5)
        x1 = rng.normal(size=(2, 32, 3))
        x2 = x1.copy()
        x2[:, :, 0] = rng.normal(size=(2, 32)) * 1000.0
        marks = rng.uniform(-0.5, 0.5, size=(2, cfg.l_out, cfg.n_time))
        y1 = model.forward(x1, marks, training=training)
        y2 = model.forward(x2, marks, training=training)
        assert np.array_equal(y1.data[:, :, 1], y2.data[:, :, 1])
        assert np.array_equal(y1.data[:, :, 2], y2.data[:, :, 2])
        assert not np.array_equal(y1.data[:, :, 0], y2.data[:, :, 0])

    def test_layer_norm_needs_two_channels_per_group(self):
        with pytest.raises(ConfigError, match="2 channels per group"):
            make_model(small_cfg(norm_kind="ln", d_channels=3))
        make_model(small_cfg(norm_kind="wn", d_channels=3))

    def test_causality_outside_window(self):
        """Values beyond the input window cannot alter the prediction."""
        cfg = small_cfg(n_variates=1, groups=1, d_channels=4)
        model = make_model(cfg)
        series = np.random.default_rng(6).normal(size=(1, 64, 1))
        window = series[:, :32]
        y1 = model.forward(window.copy()).data
        series[:, 32:] += 1e6  # future values
        y2 = model.forward(series[:, :32].copy()).data
        assert np.array_equal(y1, y2)

    def test_time_branch_enabled_changes_output(self):
        cfg = small_cfg(time_mode="decoupled")
        model = make_model(cfg, seed=7)
        x = np.random.default_rng(8).normal(size=(2, 32, 3))
        marks = np.random.default_rng(9).uniform(-0.5, 0.5, size=(2, 4, 6))
        out = model.forward(x, marks)
        assert out.shape == (2, 4, 3)
        out2 = model.forward(x, marks + 0.3)
        assert not np.array_equal(out.data, out2.data)

    def test_decoupled_needs_marks(self):
        model = make_model(small_cfg(time_mode="decoupled"))
        with pytest.raises(DimensionError):
            model.forward(np.zeros((1, 32, 3)))

    def test_input_mode_consumes_input_marks(self):
        cfg = small_cfg(time_mode="input")
        model = make_model(cfg)
        x = np.zeros((2, 32, 3))
        with pytest.raises(DimensionError):
            model.forward(x)
        out = model.forward(x, input_marks=np.zeros((2, 32, 6)))
        assert out.shape == (2, 4, 3)

    def test_timenet_channel_trace(self):
        """Time features pass D -> 2D -> 4D at constant length."""
        cfg = small_cfg(time_mode="decoupled")
        model = make_model(cfg)
        marks = Tensor(np.zeros((6 * 3, 2, 4)))
        h = model.timenet.embed.forward(marks, False)
        assert h.shape == (6, 2, 4)
        h = model.timenet.blocks[0].forward(h, False, None)
        assert h.shape == (12, 2, 4)
        h = model.timenet.blocks[1].forward(h, False, None)
        assert h.shape == (24, 2, 4)


class TestGoldenPredictions:
    """Recorded eval-mode predictions pin the forward arithmetic of every norm
    kind and time mode; the tolerance only absorbs BLAS rounding."""

    GOLDEN = {
        ("wn", "none"): (-151.85324849640529, 982.7360257898971, -5.278672989709743, -10.521028493416566, -1.0297429274542327),
        ("wn", "decoupled"): (-192.7663491396196, 1413.557510459934, -5.997063767048785, -8.633453668795342, 1.7707846925066382),
        ("wn", "input"): (-34.13359223621439, 100.49046232846527, 1.2409647946371485, -0.9092380112097423, -1.4851806455926162),
        ("bn", "none"): (-91.02846128600918, 468.1542136513873, -8.419276680431965, -1.238366024596538, -1.816815223863506),
        ("bn", "decoupled"): (-93.67142883310416, 647.9586069273143, -4.7985567455926725, -2.899608514100298, -1.2389644084471672),
        ("bn", "input"): (-13.577392633106658, 243.12552727878747, -0.6830848135059555, 1.311795165836228, -1.993710424786932),
        ("ln", "none"): (-104.65578716986955, 479.9621616587479, -8.513972556319358, -2.6609973308473824, -2.478427436721276),
        ("ln", "decoupled"): (-104.3796309499211, 626.9398918866779, -7.555366430236556, -1.8072444138342518, -2.645960896076408),
        ("ln", "input"): (-47.56632683429248, 695.3261373119549, -0.43682549871214227, 2.799849885243343, -4.39285707104359),
        ("none", "none"): (-126.66680721378258, 2017.9081434278114, -4.221705254644935, -7.824155575785856, -2.5731895052240352),
        ("none", "decoupled"): (-189.07422520858182, 2553.8995937959985, -4.456831645979136, -7.168989344881524, -2.577804841413955),
        ("none", "input"): (-46.39741643774763, 514.6528758113819, 1.1442207361576893, 1.4581900450648952, -0.665183598236947),
    }

    @staticmethod
    def predict(norm_kind, time_mode):
        cfg = small_cfg(norm_kind=norm_kind, time_mode=time_mode, dropout=0.1)
        relation = np.array([[0.8, 0.1, 0.3], [0.2, 0.9, -0.4], [0.5, 0.0, 0.7]])
        model = make_model(cfg, seed=41, relation=relation)
        rng = np.random.default_rng(42)
        # perturb every parameter and buffer so biases, norm affines and
        # running statistics all take part
        state = {}
        for name, arr in model.state().items():
            noise = rng.normal(0.0, 0.1, arr.shape)
            state[name] = np.abs(arr + noise) + 0.5 if name.endswith("running_var") else arr + noise
        model.load_state(state)
        x = rng.normal(size=(5, cfg.l_in, 3))
        marks = rng.uniform(-0.5, 0.5, (5, cfg.l_out, cfg.n_time))
        in_marks = rng.uniform(-0.5, 0.5, (5, cfg.l_in, cfg.n_time))
        return model.forward(x, marks, training=False, input_marks=in_marks).data

    @pytest.mark.parametrize("time_mode", ["none", "decoupled", "input"])
    @pytest.mark.parametrize("norm_kind", NORM_KINDS)
    def test_eval_predictions(self, norm_kind, time_mode):
        pred = self.predict(norm_kind, time_mode)
        assert pred.shape == (5, 4, 3)
        flat = pred.ravel()
        got = (flat.sum(), (flat * flat).sum(), *flat[:3])
        assert got == pytest.approx(self.GOLDEN[norm_kind, time_mode], rel=1e-10)


class TestBlockActivationOwnership:
    """``relu_dropout`` computes in place in its input, so what an RTBlock
    feeds it must be a fresh array that no backward reads."""

    def test_relu_dropout_output_is_its_input(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 2, 5)), requires_grad=True)
        s = Tensor(rng.normal(size=(2, 2, 5)), requires_grad=True)
        y = relu_dropout(x, 0.4, rng, True, shortcut=s)
        assert np.shares_memory(y.data, x.data)

    @pytest.mark.parametrize("norm_kind", NORM_KINDS)
    @pytest.mark.parametrize("training", [True, False])
    def test_what_a_block_feeds_it_is_read_by_no_backward(self, norm_kind, training):
        """The producer of each relu_dropout input in an RTBlock (a conv, as
        one ``weight_normed`` node under weight norm, or the norm after it)
        keeps no array over its own output, and its output shares no memory
        with its inputs."""
        rng = np.random.default_rng(1)
        block = RTBlock(6, 3, 3, norm_kind, 0.2, rng)
        with GradTape() as tape:
            block.forward(Tensor(rng.normal(size=(6, 4, 8))), training, rng)
        made_by = {id(node.output): node for node in tape.nodes}
        fed = [made_by[id(node.inputs[0])] for node in tape.nodes
               if node.grad_fn.__qualname__.startswith("relu_dropout.")]
        producer = {"bn": "batch_norm", "ln": "layer_norm", "wn": "weight_normed"}.get(
            norm_kind, "conv1d_grouped")
        assert [node.grad_fn.__qualname__.split(".")[0] for node in fed] == [producer] * 2
        for node in fed:
            out = node.output.data
            assert not any(np.shares_memory(a, out) for a in closure_arrays(node.grad_fn))
            assert not any(np.shares_memory(t.data, out) for t in node.inputs)


class TestContrastiveHead:
    def test_detached_features_block_cpn_gradients(self):
        """After freeze_cpn() the heads see the pyramid's features as constants."""
        cfg = small_cfg()
        model = make_model(cfg)
        model.freeze_cpn()
        x = np.random.default_rng(0).normal(size=(2, 32, 3))
        params = list(model.named_parameters())
        cpn_ids = {id(p) for _, p in model.cpn_named_parameters()}
        with GradTape() as tape:
            out = model.forward(x, training=True, rng=np.random.default_rng(1))
            loss = sq_sum(out)
        assert not any(id(t) in cpn_ids for node in tape.nodes for t in node.inputs)
        backward(tape, loss, params=[p for _, p in params])
        for name, p in params:
            if name.startswith("cpn."):
                assert np.array_equal(p.grad, np.zeros_like(p.data))
            else:
                assert np.any(p.grad != 0.0)


class TestWeightNormEquivalence:
    def test_wn_model_matches_plain_model_bitwise(self):
        """Swapping WN for its effective weights changes no output bit."""
        cfg_wn = small_cfg(norm_kind="wn")
        wn_model = make_model(cfg_wn, seed=11)
        plain_model = make_model(small_cfg(norm_kind="none"), seed=11)
        # copy every effective weight into the plain model
        def convs(m):
            units = []
            for br in m.branches:
                units.append(br.embed)
                for bl in br.blocks:
                    units.extend([bl.conv1, bl.conv2])
            return units
        for wn_unit, plain_unit in zip(convs(wn_model), convs(plain_model)):
            plain_unit.weight.data = weight_norm_effective(wn_unit.v, wn_unit.g).data.copy()
            plain_unit.bias.data = wn_unit.bias.data.copy()
        head = wn_model.head_linear
        plain_model.head_linear.weight.data = weight_norm_effective(head.v, head.g).data.copy()
        plain_model.head_linear.bias.data = wn_model.head_linear.bias.data.copy()
        x = np.random.default_rng(12).normal(size=(3, 32, 3))
        assert np.array_equal(wn_model.forward(x).data, plain_model.forward(x).data)


def _unit_names(prefix, *leaves):
    return [f"{prefix}.{leaf}" for leaf in leaves]


def _extractor_names(prefix, depth, *leaves):
    units = ["embed"] + [f"block{j}.conv{c}" for j in range(depth) for c in (1, 2)]
    return [name for unit in units for name in _unit_names(f"{prefix}.{unit}", *leaves)]


class TestStateNames:
    """The checkpoint format is the ordered list of these names: pin it."""

    def test_bn_decoupled_relation(self):
        model = make_model(small_cfg(norm_kind="bn", time_mode="decoupled"),
                           relation=np.eye(3))
        conv = ("weight", "bias", "bn.gamma", "bn.beta")
        expected = (_extractor_names("cpn.branch0", 2, *conv)
                    + _extractor_names("cpn.branch1", 1, *conv)
                    + _unit_names("head.linear", "weight", "bias")
                    + _extractor_names("timenet", 2, *conv)
                    + _unit_names("head.time", "weight", "bias"))
        assert expected[:6] == ["cpn.branch0.embed.weight", "cpn.branch0.embed.bias",
                                "cpn.branch0.embed.bn.gamma", "cpn.branch0.embed.bn.beta",
                                "cpn.branch0.block0.conv1.weight",
                                "cpn.branch0.block0.conv1.bias"]
        assert [n for n, _ in model.named_parameters()] == expected
        running = ("bn.running_mean", "bn.running_var")
        assert [n for n, _ in model.named_buffers()] == (
            _extractor_names("cpn.branch0", 2, *running)
            + _extractor_names("cpn.branch1", 1, *running)
            + _extractor_names("timenet", 2, *running))

    def test_wn_input(self):
        model = make_model(small_cfg(norm_kind="wn", time_mode="input"))
        expected = (_extractor_names("cpn.branch0", 2, "v", "g", "bias")
                    + _extractor_names("cpn.branch1", 1, "v", "g", "bias")
                    + ["head.linear.v", "head.linear.g", "head.linear.bias"])
        assert len(expected) == 27
        assert [n for n, _ in model.named_parameters()] == expected
        assert list(model.named_buffers()) == []


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg(time_mode="decoupled", norm_kind="bn")
        model = make_model(cfg, seed=13, relation=np.eye(3))
        # make running stats non-trivial
        x = np.random.default_rng(14).normal(size=(4, 32, 3))
        marks = np.zeros((4, 4, 6))
        model.forward(x, marks, training=True, rng=np.random.default_rng(15))
        path = str(tmp_path / "model.rtnet")
        save_checkpoint(model, path)
        with zipfile.ZipFile(path) as zf:
            assert zf.namelist() == ["header.json", *(f"{n}.npy" for n in model.state()),
                                     "relation.npy"]
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
        loaded = load_checkpoint(path)
        assert loaded.cfg == model.cfg
        assert np.array_equal(loaded.relation, model.relation)
        y1 = model.forward(x, marks).data
        y2 = loaded.forward(x, marks).data
        assert np.array_equal(y1, y2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.rtnet"
        path.write_bytes(b"NOTRTN" + b"\x00" * 32)
        with pytest.raises(DataError, match=r"corrupt checkpoint \(BadZipFile\('File is not a zip"):
            load_checkpoint(str(path))

    def test_the_old_format_is_named(self, tmp_path):
        path = tmp_path / "old.rtnet"
        path.write_bytes(b"RTNET1" + struct.pack("<Q", 2) + b"{}")
        with pytest.raises(DataError, match=f"^{path}: an RTNET1 checkpoint, a format no longer"):
            load_checkpoint(str(path))

    @staticmethod
    def saved(tmp_path, **kw):
        model = make_model(small_cfg(norm_kind="bn", **kw), seed=16, relation=np.eye(3))
        path = tmp_path / "model.rtnet"
        save_checkpoint(model, str(path))
        return model, path

    def test_members_carry_one_date_so_saves_a_day_apart_are_equal(self, tmp_path, monkeypatch):
        model, path = self.saved(tmp_path)
        with zipfile.ZipFile(path) as zf:
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
        now = time.time()
        monkeypatch.setattr(time, "time", lambda: now + 86400.0)
        save_checkpoint(model, str(tmp_path / "later.rtnet"))
        assert (tmp_path / "later.rtnet").read_bytes() == path.read_bytes()

    def test_np_load_reads_every_array(self, tmp_path):
        model, path = self.saved(tmp_path)
        with np.load(path, allow_pickle=False) as stored:
            for name, value in model.state().items():
                assert np.array_equal(stored[name], value), name
            assert np.array_equal(stored["relation"], model.relation)
            assert json.loads(stored["header.json"])["has_relation"] is True

    @pytest.mark.parametrize("cut", [3, 6, 10, 14, 40, -1000, -8, -1])
    def test_truncation_is_data_error(self, tmp_path, cut):
        _, path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut])
        with pytest.raises(DataError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("tail", [b"\x00" * 8, bytes(range(256)) * 4], ids=["8", "1024"])
    def test_trailing_bytes_change_no_loaded_value(self, tmp_path, tail):
        """The reader reads only the members the central directory names, each
        checked against its CRC-32, so bytes after the zip that are not a zip
        of their own are never read as a member."""
        model, path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + tail)
        loaded = load_checkpoint(str(path))
        for name, value in model.state().items():
            assert np.array_equal(loaded.state()[name], value), name

    @pytest.mark.parametrize("before", ["checkpoint", "junk"])
    def test_bytes_before_the_zip_are_data_error(self, tmp_path, before):
        """zipfile reads the last zip of a file, so without the check a second
        checkpoint appended to a first, or bytes prepended to one, would load."""
        _, path = self.saved(tmp_path)
        raw = path.read_bytes()
        if before == "checkpoint":
            other = tmp_path / "other.rtnet"
            save_checkpoint(make_model(small_cfg(), seed=17), str(other))
            head = other.read_bytes()
        else:
            head = bytes(range(100))
        path.write_bytes(head + raw)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: {len(head)} bytes precede its zip (prefixed or concatenated)")):
            load_checkpoint(str(path))

    def test_an_empty_zip_is_data_error(self, tmp_path):
        path = tmp_path / "empty.rtnet"
        zipfile.ZipFile(path, "w").close()
        with pytest.raises(DataError, match=f"^{path}: unreadable checkpoint header"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("header", [
        b"not json", b"[]", b"{}", b'{"config": {}, "has_relation": true}',
        b'{"has_relation": true}', b'{"config": CONFIG, "has_relation": 1}',
        b'{"config": CONFIG}', None])
    def test_unreadable_header_is_data_error(self, tmp_path, header):
        _, path = self.saved(tmp_path)

        def edit(members):
            config = json.dumps(json.loads(members[0][1])["config"]).encode()
            if header is None:
                del members[0]
            else:
                members[0][1] = header.replace(b"CONFIG", config)

        rewrite_members(path, edit)
        with pytest.raises(DataError, match=f"^{path}: unreadable checkpoint header"):
            load_checkpoint(str(path))

    def test_missing_buffer_is_data_error(self, tmp_path):
        model, path = self.saved(tmp_path)
        buffer_name = next(name for name, _ in model.named_buffers())
        rewrite_members(path, lambda members: members.remove(
            next(m for m in members if m[0] == f"{buffer_name}.npy")))
        with pytest.raises(DataError, match=rf"missing \['{buffer_name}.npy'\]"):
            load_checkpoint(str(path))

    def test_extra_array_is_data_error(self, tmp_path):
        _, path = self.saved(tmp_path)
        rewrite_members(path, lambda members: members.append(["stray.npy", npy_bytes(np.zeros(2))]))
        with pytest.raises(DataError, match=r"unexpected \['stray.npy'\]"):
            load_checkpoint(str(path))

    def test_repeated_member_is_data_error(self, tmp_path):
        _, path = self.saved(tmp_path)
        rewrite_members(path, lambda members: members.insert(2, list(members[1])))
        phrase = "(missing [], unexpected ['cpn.branch0.embed.weight.npy'])"
        with pytest.raises(DataError, match=re.escape(f"{path}: checkpoint members do not match "
                                                      f"the model {phrase}")):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("stored", [
        lambda w: w.T.copy(), lambda w: w[..., :1], lambda w: w.ravel(), lambda w: w[None],
        lambda w: np.asfortranarray(w), lambda w: w.astype(np.float32),
        lambda w: w.astype(">f8"), lambda w: w.astype(np.int64), lambda w: w.astype(np.complex128)],
        ids=["transposed", "narrower", "flat", "extra-axis", "fortran", "float32", "big-endian",
             "int64", "complex"])
    def test_wrong_shape_order_or_dtype_is_data_error(self, tmp_path, stored):
        model, path = self.saved(tmp_path)
        name = "cpn.branch0.embed.weight"
        weight = model.state()[name]
        assert weight.ndim == 3 and len(set(weight.shape)) == 3
        rewrite_members(path, lambda members: members.__setitem__(
            1, [f"{name}.npy", npy_bytes(stored(weight))]))
        with pytest.raises(DataError, match=rf"array '{name}' is stored as .*, the model needs "
                                            + re.escape(str(weight.shape))):
            load_checkpoint(str(path))

    def test_a_member_that_is_not_npy_is_data_error(self, tmp_path):
        _, path = self.saved(tmp_path)
        rewrite_members(path, lambda members: members[1].__setitem__(1, b"not an array"))
        with pytest.raises(DataError, match=r"corrupt checkpoint \(ValueError\(\"the magic string"):
            load_checkpoint(str(path))

    def test_a_huge_stored_shape_allocates_nothing(self, tmp_path):
        _, path = self.saved(tmp_path)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (2**40,)})
        rewrite_members(path, lambda members: members[1].__setitem__(1, header.getvalue()))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"stored as \(\(1, 0\), \(1099511627776,\)"):
                load_checkpoint(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("data", [b"", b"\x00" * 9], ids=["short", "long"])
    def test_a_member_longer_or_shorter_than_its_array_is_data_error(self, tmp_path, data):
        model, path = self.saved(tmp_path)
        rewrite_members(path, lambda members: members[-1].__setitem__(
            1, npy_bytes(model.relation)[:-8] + data))
        with pytest.raises(DataError, match="array 'relation' does not hold 72 bytes"):
            load_checkpoint(str(path))

    def test_missing_relation_is_data_error(self, tmp_path):
        _, path = self.saved(tmp_path)
        rewrite_members(path, lambda members: members.pop())  # relation is written last
        with pytest.raises(DataError, match=r"missing \['relation.npy'\]"):
            load_checkpoint(str(path))

    def test_a_relation_the_header_denies_is_data_error(self, tmp_path):
        _, path = self.saved(tmp_path)

        def deny(members):
            members[0][1] = members[0][1].replace(b'"has_relation": true', b'"has_relation": false')

        rewrite_members(path, deny)
        with pytest.raises(DataError, match=r"unexpected \['relation.npy'\]"):
            load_checkpoint(str(path))

    @staticmethod
    def tiny(tmp_path):
        """A one-variate checkpoint of 3 KB, small enough to flip byte by byte."""
        cfg = ModelConfig(l_in=4, l_out=1, n_variates=1, d_channels=2, blocks=1, kernel=1,
                          norm_kind="none")
        model = RTNet(cfg, np.random.default_rng(17), relation=np.full((1, 1), 0.5))
        path = tmp_path / "tiny.rtnet"
        save_checkpoint(model, str(path))
        return model, path

    def test_no_flipped_bit_loads_a_different_value(self, tmp_path):
        """Bit ``i % 8`` of every third byte ``i``: each flip is refused or loads
        the saved arrays bit for bit."""
        model, path = self.tiny(tmp_path)
        raw = path.read_bytes()
        saved = [*model.state().values(), model.relation]
        refused = 0
        for i in range(0, len(raw), 3):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << i % 8
            path.write_bytes(flipped)
            try:
                loaded = load_checkpoint(str(path))
            except DataError:
                refused += 1
                continue
            assert loaded.cfg == model.cfg, i
            for got, want in zip([*loaded.state().values(), loaded.relation], saved, strict=True):
                assert got.dtype == want.dtype and np.array_equal(got, want), i
        assert refused > len(raw) // 6

    @pytest.mark.parametrize("record,offset,fmt,value,raised", [
        (b"PK\x01\x02", 8, "<H", 1, "RuntimeError(\"File 'header.json' is encrypted"),
        (b"PK\x01\x02", 10, "<H", 1, "NotImplementedError('That compression method"),
        (b"PK\x01\x02", 10, "<H", 8, "error('Error -3 while decompressing"),  # zlib.error
        (b"PK\x03\x04", 28, "<H", 0xFFFF, "EOFError()"),  # extra field runs past the end
        (b"PK\x05\x06", 16, "<I", 0xFFFF0000, "OSError(22, 'Invalid argument')")],
        ids=["encrypted", "compression", "deflate", "extra-field", "directory-offset"])
    def test_each_error_a_corrupt_zip_raises_is_data_error(self, tmp_path, record, offset, fmt,
                                                           value, raised):
        """One field of the first record of its kind rewritten: each exception type
        besides BadZipFile that flipped bits were seen to raise."""
        _, path = self.tiny(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, raw.index(record) + offset, value)
        path.write_bytes(raw)
        with pytest.raises(DataError, match=re.escape(f"{path}: corrupt checkpoint ({raised}")):
            load_checkpoint(str(path))


@st.composite
def checkpoint_cases(draw):
    n_variates = draw(st.integers(1, 3))
    groups = draw(st.sampled_from([1, n_variates]))
    blocks = draw(st.integers(1, 2))
    l_in, l_out = draw(st.integers(1, 3)) << blocks, draw(st.integers(1, 3))
    d_channels, n_time = groups * draw(st.integers(2, 3)), draw(st.integers(1, 3))
    time_mode = draw(st.sampled_from(TIME_MODES))
    return dict(
        cfg=ModelConfig(l_in=l_in, l_out=l_out, n_variates=n_variates, d_channels=d_channels,
                        blocks=blocks, groups=groups, time_mode=time_mode,
                        # a time mode reads every calendar feature
                        n_time=n_time if time_mode == "none" else N_TIME_FEATURES,
                        norm_kind=draw(st.sampled_from(NORM_KINDS)), dropout=0.1),
        relation=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
        cut=draw(st.floats(0.0, 1.0, exclude_max=True)),
    )


class TestCheckpointFuzz:
    """Random small configs: a saved model loads back to the same state and
    predictions, and any truncation of its file is a DataError."""

    @staticmethod
    def trained_model(case):
        cfg = case["cfg"]
        rng = np.random.default_rng(case["seed"])
        n = cfg.n_variates
        relation = rng.uniform(0.1, 1.0, (n, n)) if case["relation"] else None
        model = RTNet(cfg, rng, relation=relation)
        inputs = rng.normal(size=(3, cfg.l_in, n))
        marks = rng.uniform(-0.5, 0.5, (3, cfg.l_out, cfg.n_time))
        in_marks = rng.uniform(-0.5, 0.5, (3, cfg.l_in, cfg.n_time))
        # a training pass moves batch-norm running statistics off their start
        model.forward(inputs, marks, training=True, rng=rng, input_marks=in_marks)
        for p in model.parameters():
            p.data += rng.normal(scale=0.01, size=p.data.shape)
        return model, (inputs, marks, in_marks)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(checkpoint_cases())
    def test_round_trip(self, case):
        model, (inputs, marks, in_marks) = self.trained_model(case)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "model.rtnet")
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
        assert loaded.cfg == model.cfg
        assert list(loaded.state()) == list(model.state())
        for name, value in model.state().items():
            assert np.array_equal(loaded.state()[name], value), name
        if case["relation"]:
            assert np.array_equal(loaded.relation, model.relation)
        else:
            assert loaded.relation is None
        assert np.array_equal(loaded.forward(inputs, marks, input_marks=in_marks).data,
                              model.forward(inputs, marks, input_marks=in_marks).data)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(checkpoint_cases())
    def test_truncation_is_data_error(self, case):
        model, _ = self.trained_model(case)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.rtnet"
            save_checkpoint(model, str(path))
            raw = path.read_bytes()
            path.write_bytes(raw[:int(case["cut"] * len(raw))])
            with pytest.raises(DataError):
                load_checkpoint(str(path))


class TestFullModelGradients:
    @pytest.mark.parametrize("norm_kind", ["wn", "none", "ln"])
    def test_forward_gradcheck(self, gradcheck, norm_kind):
        cfg = ModelConfig(l_in=8, l_out=2, n_variates=2, d_channels=4, blocks=2,
                          groups=2, time_mode="none", norm_kind=norm_kind,
                          dropout=0.0, kernel=3)
        model = make_model(cfg, seed=21, relation=np.array([[0.7, 0.2], [0.3, 0.8]]))
        x = np.random.default_rng(22).normal(size=(2, 8, 2))
        truth = np.random.default_rng(23).normal(size=(2, 2, 2))
        params = [p for _, p in model.named_parameters()]

        def build():
            return mse_loss(model.forward(x), truth)[0]

        gradcheck(build, params, n_coords=4)

    def test_forward_gradcheck_with_timenet(self, gradcheck):
        cfg = ModelConfig(l_in=8, l_out=2, n_variates=1, d_channels=3, blocks=2,
                          groups=1, time_mode="decoupled", norm_kind="wn",
                          dropout=0.0, kernel=3)
        model = make_model(cfg, seed=31)
        x = np.random.default_rng(32).normal(size=(2, 8, 1))
        marks = np.random.default_rng(33).uniform(-0.5, 0.5, (2, 2, 6))
        params = [p for _, p in model.named_parameters()]

        def build():
            return mse_loss(model.forward(x, marks), np.zeros((2, 2, 1)))[0]

        gradcheck(build, params, n_coords=3)
