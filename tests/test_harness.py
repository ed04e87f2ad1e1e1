"""Experiment harness: spec parsing, cell execution, report schema, determinism."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hourly, write_csv
from rtnet import harness
from rtnet.errors import ConfigError
from rtnet.cli import main
from rtnet.harness import (ABLATION_AXES, ExperimentSpec, load_splits, resolve_cell,
                           run_experiment)
from rtnet.model import ModelConfig, load_config
from rtnet.training import TrainConfig


@pytest.fixture
def small_csv(tmp_path):
    """Two noisy AR variates, short enough for fast cells."""
    rng = np.random.default_rng(0)
    n = 700
    a = np.zeros(n)
    for t in range(1, n):
        a[t] = 0.7 * a[t - 1] + rng.normal(0, 0.3)
    b = 0.8 * a + rng.normal(0, 0.2, n)
    path = tmp_path / "pair.csv"
    write_csv(path, hourly(n), np.column_stack([b, a]), ["aux", "OT"])
    return str(path)


def desk_spec(small_csv, **kw):
    base = dict(
        data_path=small_csv,
        pred_lengths=[4],
        seeds=[0, 1],
        task="univariate",
        split_mode="ratio",
        fidelity="desk",
        model={"l_in": 16, "d_channels": 4, "blocks": 2},
        train={"epochs": 1, "max_steps_per_epoch": 4, "lr": 1e-3,
               "stage1_batch_size": 8},
    )
    if kw.get("ablation") == "input_length":
        base["model"] = {"d_channels": 4, "blocks": 2}  # the axis sets l_in
    base.update(kw)
    return ExperimentSpec(**base)


def write_spec(tmp_path, spec):
    """A spec file of every field of ``spec`` but the one its axis sets."""
    owned = harness.ABLATION_AXES[spec.ablation][0] if spec.ablation else None
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({k: v for k, v in dataclasses.asdict(spec).items()
                                if k != owned}))
    return path


class TestSpecParsing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(ExperimentSpec, {"data_path": "x", "pred_lengths": [24], "seeds": [0],
                                         "bogus": 1}, "experiment spec")

    def test_duplicate_seeds_rejected(self, small_csv):
        with pytest.raises(ConfigError, match="distinct"):
            desk_spec(small_csv, seeds=[1, 1]).validate()

    def test_duplicate_ablation_values_rejected(self, small_csv):
        with pytest.raises(ConfigError, match="distinct"):
            desk_spec(small_csv, ablation="input_length", ablation_values=[16, 16]).validate()

    def test_paper_fidelity_enforces_grid(self, small_csv):
        with pytest.raises(ConfigError, match="paper"):
            desk_spec(small_csv, fidelity="paper", pred_lengths=[13]).validate()
        desk_spec(small_csv, fidelity="paper", pred_lengths=[24, 48]).validate()

    @pytest.mark.parametrize("pred_lengths", [[], [4, 0], [-24]])
    def test_pred_lengths_needs_a_positive_length(self, small_csv, pred_lengths):
        """An empty grid would run no cell and report nothing as "every cell failed"."""
        with pytest.raises(ConfigError, match="^pred_lengths must hold at least one length"):
            desk_spec(small_csv, pred_lengths=pred_lengths).validate()

    @pytest.mark.parametrize("block,patch,message", [
        ("model", {"l_inn": 16}, r"unknown model keys: \['l_inn'\]"),
        ("model", {"dropout": "0.1"}, "model dropout must be a number"),
        ("train", {"epochs": 2.5}, "train epochs must be an integer"),
        ("train", [], "train must be an object")])
    def test_blocks_are_checked_before_any_cell(self, small_csv, block, patch, message):
        valid = getattr(desk_spec(small_csv), block)
        spec = desk_spec(small_csv, **{block: {**valid, **patch} if isinstance(patch, dict)
                                        else patch})
        with pytest.raises(ConfigError, match=message):
            spec.validate()

    def test_bad_ablation_axis(self, small_csv):
        with pytest.raises(ConfigError):
            desk_spec(small_csv, ablation="optimizer", ablation_values=[1]).validate()

    @pytest.mark.parametrize("axis,values", [("relation", ["on", "off"]),
                                             ("relation", [1, 0]),
                                             ("relation", [True, None]),
                                             ("format", ["e2e", "supervised"]),
                                             ("format", [True]),
                                             ("input_length", [16.5, "32"]),
                                             ("input_length", ["32"]),
                                             ("input_length", [16, 0]),
                                             ("input_length", [True]),
                                             ("norm_kind", ["wn", "xx"]),
                                             ("time_mode", ["xx"])])
    def test_axis_values_that_cannot_mean_what_they_say(self, small_csv, axis, values):
        """"off" is truthy: taken as a switch, it would rerun the "on" network;
        16.5 would run l_in 16 under its own label."""
        with pytest.raises(ConfigError, match=f"^{axis} values must"):
            desk_spec(small_csv, task="multivariate", ablation=axis,
                      ablation_values=values).validate()

    def test_relation_axis_needs_a_multivariate_task(self, small_csv):
        """A univariate task has no relation matrix: both cells would train one network."""
        with pytest.raises(ConfigError, match="relation axis needs a multivariate task"):
            desk_spec(small_csv, ablation="relation", ablation_values=[True, False]).validate()

    def test_experiment_command_rejects_a_relation_value(self, small_csv, tmp_path, capsys):
        spec = write_spec(tmp_path, desk_spec(small_csv, seeds=[0], task="multivariate",
                                              ablation="relation", ablation_values=["on", "off"]))
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 1
        assert "relation values must be true or false" in capsys.readouterr().err
        assert not (out / "report.json").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
VALID_CONFIGS = (
    (ModelConfig, {"l_in": 16, "l_out": 4, "n_variates": 2, "d_channels": 4, "blocks": 2,
                   "groups": 2}),
    (TrainConfig, {"epochs": 2, "stage1_epochs": 1}),
    (ExperimentSpec, {"data_path": "x.csv", "pred_lengths": [24], "seeds": [0],
                      "task": "multivariate", "ablation": "input_length",
                      "ablation_values": [16, 32], "model": {}, "train": {}}))


class TestConfigLoader:
    @pytest.mark.parametrize("cls,valid", VALID_CONFIGS, ids=[c.__name__ for c, _ in VALID_CONFIGS])
    def test_valid_config_loads(self, cls, valid):
        assert load_config(cls, json.loads(json.dumps(valid)), "config") == cls(**valid)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(data=st.data())
    def test_any_json_value_in_any_field_loads_or_is_a_config_error(self, data):
        """Each JSON kind in each field: a config or a ConfigError, never another
        exception."""
        cls, valid = data.draw(st.sampled_from(VALID_CONFIGS))
        name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]))
        obj = json.loads(json.dumps({**valid, name: data.draw(JSON_VALUES)}))
        try:
            assert isinstance(load_config(cls, obj, "config"), cls)
        except ConfigError:
            pass

    @pytest.mark.parametrize("cls,obj,message", [
        (ModelConfig, [1], "config must be an object, got [1]"),
        (ModelConfig, {"l_in": "16"}, "config l_in must be an integer, got '16'"),
        (ModelConfig, {"l_in": 16.0}, "config l_in must be an integer, got 16.0"),
        (ModelConfig, {"dropout": True}, "config dropout must be a number, got True"),
        (ModelConfig, {"d_channels": None}, "config d_channels must be an integer, got None"),
        (TrainConfig, {"max_steps_per_epoch": "4"},
         "config max_steps_per_epoch must be int | None, got '4'"),
        (ExperimentSpec, {"seeds": [0, 1.5]}, "config seeds must be list[int], got [0, 1.5]"),
        (ExperimentSpec, {"pred_lengths": "4"}, "config pred_lengths must be list[int], got '4'"),
        (ExperimentSpec, {"use_relation": "no"}, "config use_relation must be true or false, "
                                                 "got 'no'")])
    def test_wrong_json_type_names_the_field(self, cls, obj, message):
        """A bool is never a number, nor a float an int; null only where optional."""
        with pytest.raises(ConfigError) as exc:
            load_config(cls, {**dict(VALID_CONFIGS)[cls], **obj} if isinstance(obj, dict) else obj,
                        "config")
        assert str(exc.value) == message

    def test_an_int_is_a_float_and_null_fills_an_optional_field(self):
        model = load_config(ModelConfig, {**dict(VALID_CONFIGS)[ModelConfig],
                                          "theta_degrees": 30}, "config")
        assert model.theta_degrees == 30
        train = load_config(TrainConfig, {"max_steps_per_epoch": None}, "config")
        assert train.max_steps_per_epoch is None

    @pytest.mark.parametrize("obj", [{"blocks": 10**20}, {"blocks": 5}, {"l_in": 0},
                                     {"l_in": -16}, {"n_variates": 0, "groups": 0}])
    def test_model_values_validate_refuses_without_crashing(self, obj):
        """2^blocks must fit in l_in, checked before 1 << blocks is built; zero
        groups would divide by zero."""
        with pytest.raises(ConfigError):
            load_config(ModelConfig, {**dict(VALID_CONFIGS)[ModelConfig], **obj}, "config")

    def test_missing_required_key_is_named(self):
        with pytest.raises(ConfigError, match=r"needs the keys \['seeds'\]"):
            load_config(ExperimentSpec, {"data_path": "x", "pred_lengths": [24]}, "spec")


class TestRunExperiment:
    def test_norm_ablation_structure(self, small_csv):
        spec = desk_spec(small_csv, ablation="norm_kind",
                         ablation_values=["wn", "bn", "ln"], seeds=[0, 1])
        report = run_experiment(spec)
        assert len(report.cells) == 3 * 1 * 2
        assert len(report.summary) == 3
        assert all(c.status == "ok" for c in report.cells)
        assert {row["axis_value"] for row in report.summary} == {"wn", "bn", "ln"}
        for row in report.summary:
            assert row["n_seeds"] == 2
            assert np.isfinite(row["mean_mse"])

    def test_summary_keeps_the_spec_axis_order(self, small_csv):
        spec = desk_spec(small_csv, ablation="input_length", ablation_values=[32, 8, 16],
                         pred_lengths=[4, 2], seeds=[0], train={"epochs": 1,
                                                                 "max_steps_per_epoch": 1})
        report = run_experiment(spec)
        assert [(row["axis_value"], row["pred_len"]) for row in report.summary] == [
            ("32", 4), ("32", 2), ("8", 4), ("8", 2), ("16", 4), ("16", 2)]

    def test_deterministic_per_seed(self, small_csv):
        spec = desk_spec(small_csv, seeds=[7])
        r1 = run_experiment(spec)
        r2 = run_experiment(spec)
        assert r1.cells[0].mse == r2.cells[0].mse
        assert r1.cells[0].mae == r2.cells[0].mae

    def test_failed_cell_recorded_run_continues(self, small_csv):
        spec = desk_spec(small_csv, ablation="input_length",
                         ablation_values=[16, 13], seeds=[0])
        report = run_experiment(spec)
        by_value = {c.axis_value: c for c in report.cells}
        assert by_value[16].status == "ok"
        assert by_value[13].status == "failed"
        assert "ConfigError" in by_value[13].reason
        assert not report.all_failed()

    def test_unexpected_exception_fails_only_its_cell(self, small_csv, monkeypatch):
        train = harness.train_end_to_end

        def flaky(model, train_ds, val_ds, cfg):
            if cfg.seed == 1:
                raise FloatingPointError("overflow encountered in multiply")
            return train(model, train_ds, val_ds, cfg)

        monkeypatch.setattr(harness, "train_end_to_end", flaky)
        report = run_experiment(desk_spec(small_csv, seeds=[0, 1, 2]))
        by_seed = {c.seed: c for c in report.cells}
        assert by_seed[1].status == "failed"
        assert by_seed[1].reason == "FloatingPointError: overflow encountered in multiply"
        assert by_seed[0].status == by_seed[2].status == "ok"

    def test_multivariate_relation_ablation(self, small_csv):
        spec = desk_spec(small_csv, task="multivariate", ablation="relation",
                         ablation_values=[True, False], seeds=[0])
        report = run_experiment(spec)
        assert all(c.status == "ok" for c in report.cells)
        assert len(report.cells) == 2

    def test_time_mode_ablation(self, small_csv):
        spec = desk_spec(small_csv, ablation="time_mode",
                         ablation_values=["decoupled", "input", "none"], seeds=[0])
        report = run_experiment(spec)
        assert all(c.status == "ok" for c in report.cells), \
            [c.reason for c in report.cells]


def format_spec(small_csv, **kw):
    return desk_spec(small_csv, ablation="format", ablation_values=["e2e", "contrastive"], **kw)


class TestCompareFormats:
    def test_paired_structure(self, small_csv):
        spec = format_spec(small_csv, seeds=[0, 3])
        report = run_experiment(spec)
        assert len(report.cells) == 2 * 1 * 2
        formats = {c.axis_value for c in report.cells}
        assert formats == {"e2e", "contrastive"}
        # each format column internally deterministic
        again = run_experiment(spec)
        for c1, c2 in zip(report.cells, again.cells):
            assert c1.mse == c2.mse

    def test_format_axis_picks_the_trainer(self, small_csv, monkeypatch):
        seen = []
        for name in ("train_end_to_end", "train_contrastive"):
            def spy(model, train_ds, val_ds, cfg, name=name, train=getattr(harness, name)):
                seen.append(name)
                return train(model, train_ds, val_ds, cfg)
            monkeypatch.setattr(harness, name, spy)
        report = run_experiment(format_spec(small_csv, seeds=[0], format="contrastive"))
        assert [c.status for c in report.cells] == ["ok", "ok"]
        assert seen == ["train_end_to_end", "train_contrastive"]

    def test_golden_format_axis(self, small_csv, tmp_path):
        """The format axis reproduces, bit for bit, the recorded cells and summary.
        The e2e ones come from the dedicated format-comparison runner it
        replaced; the contrastive ones were re-recorded when the overlap-limited
        sampler became one exact draw."""
        path = write_spec(tmp_path, format_spec(small_csv, seeds=[0, 3]))
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [(c["axis_value"], c["seed"], c["status"], c["mse"].hex(), c["mae"].hex())
                for c in report["cells"]] == [
            ("e2e", 0, "ok", "0x1.748340faabc85p+2", "0x1.d93f8f190ad2ap+0"),
            ("e2e", 3, "ok", "0x1.aa8ee62464f9ap+4", "0x1.0e7e8d1dbd4b3p+2"),
            ("contrastive", 0, "ok", "0x1.9a99d992afe3fp+2", "0x1.f0602b7b7d9a6p+0"),
            ("contrastive", 3, "ok", "0x1.00edb3daa3150p+5", "0x1.2a49ba84c89b4p+2")]
        assert report["summary"] == [
            {"axis_value": "e2e", "pred_len": 4, "mean_mse": 16.240199273568003,
             "std_mse": 10.419688175854604, "mean_mae": 3.0375500787049523,
             "std_mae": 1.1889239956992024, "n_seeds": 2},
            {"axis_value": "contrastive", "pred_len": 4, "mean_mse": 19.265852976489526,
             "std_mse": 12.850212724138629, "mean_mae": 3.2998587357142375,
             "std_mae": 1.3608913002121075, "n_seeds": 2}]


class TestReportFiles:
    def test_golden_schema(self, small_csv, tmp_path):
        spec = desk_spec(small_csv, seeds=[0])
        report = run_experiment(spec)
        out = tmp_path / "out"
        report.write(str(out))
        data = json.loads((out / "report.json").read_text())
        assert data["version"] == "RTNET1"
        assert set(data) == {"version", "spec", "cells", "summary"}
        assert set(data["cells"][0]) == {"axis_value", "pred_len", "seed", "status",
                                         "mse", "mae", "seconds", "reason"}
        assert set(data["summary"][0]) == {"axis_value", "pred_len", "mean_mse",
                                           "std_mse", "mean_mae", "std_mae", "n_seeds"}
        csv_text = (out / "report.csv").read_text()
        assert csv_text.splitlines()[0] == \
            "axis_value,pred_len,mean_mse,std_mse,mean_mae,std_mae,n_seeds"

    @pytest.mark.parametrize("axis,values,task", [("format", ["e2e", "contrastive"], "univariate"),
                                                  ("relation", [True, False], "multivariate")])
    def test_a_report_spec_reruns_to_the_same_cells(self, small_csv, tmp_path, axis, values,
                                                    task):
        """A report's spec leaves out the key its axis sets, so fed back to
        ``rtnet experiment`` it runs the same cells and reports the same spec."""
        spec = desk_spec(small_csv, seeds=[0], task=task, ablation=axis, ablation_values=values)
        reports = []
        path = write_spec(tmp_path, spec)
        for run in ("first", "rerun"):
            assert main(["experiment", "--spec", str(path), "--out", str(tmp_path / run)]) == 0
            reports.append(json.loads((tmp_path / run / "report.json").read_text()))
            path = tmp_path / f"{run}.json"
            path.write_text(json.dumps(reports[-1]["spec"]))
        first, rerun = reports
        assert ABLATION_AXES[axis][0] not in first["spec"]
        assert rerun["spec"] == first["spec"] == json.loads(write_spec(tmp_path, spec).read_text())
        for cells in (first["cells"], rerun["cells"]):
            for cell in cells:
                cell["seconds"] = 0.0
        assert rerun["cells"] == first["cells"]
        assert [c["status"] for c in first["cells"]] == ["ok", "ok"]

    def test_a_summary_statistic_that_overflows_is_missing(self, small_csv, tmp_path,
                                                          monkeypatch):
        """Two finite test MSEs of 1.7e308 have an infinite mean and a NaN std:
        each is null in report.json and nan in report.csv, with no warning."""
        monkeypatch.setattr(harness, "evaluate", lambda model, ds: (1.7e308, 1.0))
        report = run_experiment(desk_spec(small_csv))
        report.write(str(tmp_path))
        data = json.loads((tmp_path / "report.json").read_text())
        assert [c["mse"] for c in data["cells"]] == [1.7e308, 1.7e308]
        assert data["summary"] == [{"axis_value": "e2e", "pred_len": 4, "mean_mse": None,
                                    "std_mse": None, "mean_mae": 1.0, "std_mae": 0.0,
                                    "n_seeds": 2}]
        assert (tmp_path / "report.csv").read_text().splitlines()[1] == \
            "e2e,4,nan,nan,1.000000,0.000000,2"

    def test_rerun_reproduces_metrics(self, small_csv, tmp_path):
        spec = desk_spec(small_csv, seeds=[5])
        run_experiment(spec).write(str(tmp_path / "a"))
        run_experiment(spec).write(str(tmp_path / "b"))
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        for ca, cb in zip(a["cells"], b["cells"]):
            assert ca["mse"] == cb["mse"]


class TestWorkers:
    def test_worker_pool_reproduces_serial_results(self, small_csv, monkeypatch):
        spec = desk_spec(small_csv, ablation="norm_kind",
                         ablation_values=["wn", "bn"], seeds=[0, 1])
        serial = run_experiment(spec)
        monkeypatch.setenv("RTNET_WORKERS", "3")
        pooled = run_experiment(spec)
        key = lambda c: (str(c.axis_value), c.pred_len, c.seed)
        for c1, c2 in zip(sorted(serial.cells, key=key), sorted(pooled.cells, key=key)):
            assert (c1.mse, c1.mae) == (c2.mse, c2.mae)

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_invalid_worker_count_is_a_config_error(self, small_csv, monkeypatch, value):
        monkeypatch.setenv("RTNET_WORKERS", value)
        with pytest.raises(ConfigError, match="RTNET_WORKERS"):
            run_experiment(desk_spec(small_csv, seeds=[0]))


class TestFormatComparisonOnBenchmark:
    """Desk-scale restatement of the published end-to-end vs contrastive gap."""

    @pytest.mark.skipif(
        __import__("conftest").dataset_path("ETTh1") is None,
        reason="real ETTh1.csv not found under data/ or $RTNET_DATA_DIR")
    def test_e2e_no_worse_than_contrastive_on_etth1(self):
        from conftest import dataset_path
        spec = ExperimentSpec(
            data_path=dataset_path("ETTh1"), pred_lengths=[24], seeds=[0, 1, 2],
            task="univariate", split_mode="months", fidelity="desk",
            ablation="format", ablation_values=["e2e", "contrastive"],
            model={"l_in": 168, "d_channels": 8, "blocks": 3},
            train={"epochs": 3, "max_steps_per_epoch": 300, "lr": 1e-3})
        report = run_experiment(spec)
        means = {row["axis_value"]: row["mean_mse"] for row in report.summary}
        assert means["e2e"] <= means["contrastive"] * 1.1


class TestFidelityDefaults:
    def test_paper_mode_resolves_published_settings(self, small_csv):
        splits, _ = load_splits(small_csv, "ratio", "univariate")
        spec = desk_spec(small_csv, fidelity="paper", pred_lengths=[24], model={}, train={})
        mcfg, tcfg, relation, fmt = resolve_cell(spec, splits[0], None, 24, 0)
        assert mcfg.kernel == 3
        assert mcfg.dropout == 0.1
        assert mcfg.d_channels == 32
        assert tcfg.lr == 1e-4
        assert (tcfg.batch_size, tcfg.stage1_batch_size, tcfg.stage2_batch_size) == (16, 64, 16)
        assert tcfg.alpha == 4.0
        assert tcfg.beta == 0.2
        assert tcfg.n_augments == 3       # 4 sequences counting the original
        assert tcfg.max_steps_per_epoch is None
        assert relation is None
        assert fmt == "e2e"

    def test_desk_mode_shrinks_budget(self, small_csv):
        splits, _ = load_splits(small_csv, "ratio", "univariate")
        mcfg, tcfg, _, _ = resolve_cell(desk_spec(small_csv, model={}, train={}), splits[0],
                                        None, 4, 0)
        assert mcfg.d_channels < 32
        assert tcfg.epochs < 20
        assert tcfg.max_steps_per_epoch is not None

    def test_the_cell_sets_what_it_owns(self, small_csv):
        """The prediction length, the variate count, the grouping, the seed and
        the axis's field come from the cell; the blocks give the rest."""
        splits, _ = load_splits(small_csv, "ratio", "multivariate")
        spec = desk_spec(small_csv, task="multivariate", ablation="input_length",
                         ablation_values=[32], model={"d_channels": 6, "blocks": 2},
                         train={"epochs": 2})
        mcfg, tcfg, relation, _ = resolve_cell(spec, splits[0], 32, 8, 5)
        assert (mcfg.l_in, mcfg.l_out, mcfg.n_variates, mcfg.groups) == (32, 8, 2, 2)
        assert (mcfg.d_channels, mcfg.blocks, tcfg.epochs, tcfg.seed) == (6, 2, 2, 5)
        assert relation.shape == (2, 2)
        spec = dataclasses.replace(spec, ablation="relation", ablation_values=[True, False])
        mcfg, _, relation, _ = resolve_cell(spec, splits[0], False, 8, 5)
        assert (mcfg.l_in, mcfg.groups, relation) == (168, 1, None)


class TestPreparedData:
    def test_univariate_selects_target(self, small_csv):
        (train, val, test), _ = load_splits(small_csv, "ratio", "univariate")
        assert train.n_variates == val.n_variates == test.n_variates == 1
        assert train.variate_names == ["OT"]

    def test_standardized_from_train_only(self, small_csv):
        (train, _, test), _ = load_splits(small_csv, "ratio", "univariate")
        assert abs(train.values.mean()) < 1e-9
        assert abs(train.values.std() - 1.0) < 1e-9
        assert abs(test.values.mean()) > 1e-12  # test split keeps train stats
