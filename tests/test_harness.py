"""Experiment harness: spec parsing, cell execution, report schema, determinism."""

import json

import numpy as np
import pytest

from conftest import hourly, write_csv
from rtnet import harness
from rtnet.errors import ConfigError
from rtnet.harness import (ExperimentSpec, build_job, compare_formats, load_splits,
                           run_experiment)


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
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpecParsing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentSpec.from_json(json.dumps(
                {"data_path": "x", "pred_lengths": [24], "seeds": [0], "bogus": 1}))

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

    def test_bad_ablation_axis(self, small_csv):
        with pytest.raises(ConfigError):
            desk_spec(small_csv, ablation="optimizer", ablation_values=[1]).validate()


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


class TestCompareFormats:
    def test_paired_structure(self, small_csv):
        spec = desk_spec(small_csv, seeds=[0, 3])
        report = compare_formats(spec)
        assert len(report.cells) == 2 * 1 * 2
        formats = {c.axis_value for c in report.cells}
        assert formats == {"e2e", "contrastive"}
        # each format column internally deterministic
        again = compare_formats(spec)
        for c1, c2 in zip(report.cells, again.cells):
            assert c1.mse == c2.mse

    def test_rejects_ablation(self, small_csv):
        spec = desk_spec(small_csv, ablation="norm_kind", ablation_values=["wn"])
        with pytest.raises(ConfigError):
            compare_formats(spec)


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
            model={"l_in": 168, "d_channels": 8, "blocks": 3},
            train={"epochs": 3, "max_steps_per_epoch": 300, "lr": 1e-3})
        report = compare_formats(spec)
        means = {row["axis_value"]: row["mean_mse"] for row in report.summary}
        assert means["e2e"] <= means["contrastive"] * 1.1


class TestFidelityDefaults:
    def test_paper_mode_resolves_published_settings(self, small_csv):
        splits, _ = load_splits(small_csv, "ratio", "univariate")
        mcfg, tcfg, relation = build_job(splits[0], "univariate", True, "paper", {}, {}, 0)
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

    def test_desk_mode_shrinks_budget(self, small_csv):
        splits, _ = load_splits(small_csv, "ratio", "univariate")
        mcfg, tcfg, _ = build_job(splits[0], "univariate", True, "desk", {}, {}, 0)
        assert mcfg.d_channels < 32
        assert tcfg.epochs < 20
        assert tcfg.max_steps_per_epoch is not None


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
