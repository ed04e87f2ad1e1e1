"""CLI contract: exit codes, outputs under --out, lock file, JSON-only stdout."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rtnet
from conftest import hourly, write_csv
from rtnet import harness
from rtnet.cli import main, parse_args
from rtnet.model import RTNet


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 600
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = 0.7 * x[t - 1] + rng.normal(0, 0.5)
    aux = 0.9 * x + rng.normal(0, 0.3, n)
    path = tmp_path / "series.csv"
    write_csv(path, hourly(n), np.column_stack([aux, x]), ["aux", "OT"])
    return str(path)


@pytest.fixture
def train_config(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(json.dumps({
        "task": "univariate",
        "model": {"l_in": 16, "d_channels": 4, "blocks": 2, "l_out": 4},
        "train": {"epochs": 1, "max_steps_per_epoch": 4, "lr": 1e-3},
    }))
    return str(path)


class TestParseArgs:
    def test_train_invocation(self, data_csv, train_config, tmp_path):
        cfg = parse_args(["train", "--config", train_config, "--data", data_csv,
                          "--out", str(tmp_path / "run")])
        assert cfg.subcommand == "train"
        assert cfg.data == data_csv

    def test_missing_data_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["train", "--config", "c.json", "--out", "o"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["transmogrify"])
        assert exc.value.code == 2

    def test_seed_twice_warns_last_wins(self, capsys):
        cfg = parse_args(["relate", "--data", "d.csv", "--out", "o",
                          "--seed", "1", "--seed", "7"])
        assert cfg.seed == 7
        assert "last value wins" in capsys.readouterr().err


class TestRelate:
    def test_writes_matrices(self, data_csv, tmp_path, capsys):
        out = str(tmp_path / "rel")
        code = main(["relate", "--data", data_csv, "--out", out, "--theta", "45"])
        assert code == 0
        raw_lines = open(os.path.join(out, "relation_raw.csv")).read().splitlines()
        assert raw_lines[0] == ",aux,OT"
        processed = open(os.path.join(out, "relation_processed.csv")).read().splitlines()
        cols = np.array([[float(v) for v in line.split(",")[1:]]
                         for line in processed[1:]])
        assert np.allclose(cols.sum(axis=0), 1.0, atol=1e-6)
        assert capsys.readouterr().out == ""  # logs on stderr only


class TestTrainEval:
    def test_train_then_eval(self, data_csv, train_config, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["train", "--config", train_config, "--data", data_csv,
                     "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "checkpoint.rtnet"))
        assert os.path.exists(os.path.join(out, "history.csv"))
        assert os.path.exists(os.path.join(out, "scaler.json"))
        assert not os.path.exists(os.path.join(out, ".rtnet.lock"))
        capsys.readouterr()

        code = main(["eval", "--checkpoint", os.path.join(out, "checkpoint.rtnet"),
                     "--data", data_csv])
        assert code == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout)  # stdout is machine-readable JSON only
        assert set(payload) == {"split", "mse", "mae"}
        assert np.isfinite(payload["mse"])

    @pytest.mark.parametrize("fmt", ["e2e", "contrastive"])
    def test_eval_reproduces_the_logged_test_mse(self, data_csv, train_config, tmp_path,
                                                 capsys, fmt):
        out = tmp_path / "run"
        assert main(["train", "--config", train_config, "--data", data_csv, "--format", fmt,
                     "--out", str(out)]) == 0
        logged = re.search(r"test mse (\S+),", capsys.readouterr().err).group(1)
        assert main(["eval", "--checkpoint", str(out / "checkpoint.rtnet"),
                     "--data", data_csv]) == 0
        assert f"{json.loads(capsys.readouterr().out)['mse']:.6f}" == logged

    def test_multivariate_with_relation_round_trip(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "mv.json"
        cfg.write_text(json.dumps({
            "task": "multivariate",
            "use_relation": True,
            "model": {"l_in": 16, "d_channels": 4, "blocks": 2, "l_out": 4},
            "train": {"epochs": 1, "max_steps_per_epoch": 3, "lr": 1e-3},
        }))
        out = str(tmp_path / "mv_run")
        assert main(["train", "--config", str(cfg), "--data", data_csv,
                     "--out", out]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", os.path.join(out, "checkpoint.rtnet"),
                     "--data", data_csv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.isfinite(payload["mse"])

    def test_unknown_config_key_fails(self, data_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"task": "univariate", "optimizer": "sgd"}))
        code = main(["train", "--config", str(bad), "--data", data_csv,
                     "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("field,value,fmt", [("batch_size", 0, "e2e"),
                                                 ("stage1_batch_size", 0, "contrastive"),
                                                 ("stage2_batch_size", 0, "contrastive"),
                                                 ("stage1_epochs", 0, "contrastive"),
                                                 ("lr", 0.0, "e2e"),
                                                 ("lr", -1e-3, "e2e"),
                                                 ("lr", float("nan"), "e2e"),
                                                 ("n_augments", 0, "contrastive"),
                                                 ("beta", -1.0, "contrastive"),
                                                 ("beta", float("nan"), "contrastive"),
                                                 ("beta", float("inf"), "contrastive"),
                                                 ("beta", 1e308, "contrastive")])
    def test_bad_training_setting_fails(self, data_csv, tmp_path, capsys, field, value, fmt):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "task": "univariate",
            "model": {"l_in": 16, "d_channels": 4, "blocks": 2, "l_out": 4},
            "train": {"epochs": 1, "max_steps_per_epoch": 2, field: value},
        }))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--data", data_csv, "--format", fmt,
                     "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not (out / "checkpoint.rtnet").exists()

    def test_lock_file_blocks_second_invocation(self, data_csv, train_config, tmp_path):
        out = str(tmp_path / "locked")
        os.makedirs(out)
        open(os.path.join(out, ".rtnet.lock"), "w").close()
        code = main(["train", "--config", train_config, "--data", data_csv,
                     "--out", out])
        assert code == 1

    def test_lock_of_a_live_pid_still_blocks(self, data_csv, train_config, tmp_path):
        out = tmp_path / "live"
        out.mkdir()
        (out / ".rtnet.lock").write_text(str(os.getpid()))
        assert main(["train", "--config", train_config, "--data", data_csv,
                     "--out", str(out)]) == 1
        assert (out / ".rtnet.lock").read_text() == str(os.getpid())

    def test_lock_of_a_dead_pid_is_reclaimed(self, data_csv, train_config, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait(timeout=60) == 0  # reaped, so its PID names no process
        out = tmp_path / "stale"
        out.mkdir()
        (out / ".rtnet.lock").write_text(str(child.pid))
        assert main(["train", "--config", train_config, "--data", data_csv,
                     "--out", str(out)]) == 0
        assert (out / "checkpoint.rtnet").exists()
        assert not (out / ".rtnet.lock").exists()

    def test_eval_of_a_truncated_checkpoint_exits_1_without_traceback(
            self, data_csv, train_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", train_config, "--data", data_csv,
                     "--out", str(out)]) == 0
        ckpt = out / "checkpoint.rtnet"
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
        src = Path(rtnet.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "rtnet.cli", "eval", "--checkpoint", str(ckpt),
             "--data", data_csv],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr and proc.stdout == ""


class TestPacfCommand:
    def test_writes_csv(self, data_csv, tmp_path):
        out = str(tmp_path / "pacf")
        assert main(["pacf", "--data", data_csv, "--out", out, "--max-lag", "8"]) == 0
        lines = open(os.path.join(out, "pacf.csv")).read().splitlines()
        assert lines[0] == "lag,phi_kk,confidence_band"
        assert len(lines) == 9
        first = float(lines[1].split(",")[1])
        assert 0.3 < first < 0.95  # AR(1)-ish target


def fake_cells(monkeypatch, mse_of):
    """Replace each experiment cell's training by a recorded MSE; its MAE is half that."""
    def run_cell(spec, splits, axis_value, pred_len, seed, fmt=None):
        mse = mse_of[axis_value, seed]
        return harness.CellResult(axis_value=axis_value, pred_len=pred_len, seed=seed,
                                  mse=mse, mae=mse / 2)

    monkeypatch.setattr(harness, "run_cell", run_cell)


def write_sweep_config(tmp_path, lengths, **job):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "lengths": lengths,
        "seeds": [0],
        "task": "univariate",
        "model": {"d_channels": 4, "blocks": 2, "l_out": 4},
        "train": {"epochs": 1, "max_steps_per_epoch": 3, "lr": 1e-3},
        **job,
    }))
    return str(cfg)


class TestSweep:
    def test_golden_sweep(self, data_csv, tmp_path):
        """Recorded sweep of two seeds; rows keep the config's length order.

        600 rows split 360/120/120, so l_in=128 leaves no window in val or test.
        The tolerance only absorbs BLAS rounding, as in TestGoldenArithmetic.
        """
        out = tmp_path / "golden"
        config = write_sweep_config(tmp_path, [32, 128, 16], seeds=[0, 1])
        assert main(["sweep", "--config", config, "--data", data_csv,
                     "--out", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        expected = [
            {"length": 32, "n_seeds": 2, "mean_mse": 2.545799647147962,
             "std_mse": 0.6655281531290114, "mean_mae": 1.2798530630088272,
             "std_mae": 0.18682405279612857},
            {"length": 16, "n_seeds": 2, "mean_mse": 4.055957288269827,
             "std_mse": 0.9876657003612068, "mean_mae": 1.5656294922718361,
             "std_mae": 0.13478929523833338},
        ]
        assert len(payload["rows"]) == len(expected)
        for row, want in zip(payload["rows"], expected):
            assert list(row) == list(want)
            assert (row["length"], row["n_seeds"]) == (want["length"], want["n_seeds"])
            for key in ("mean_mse", "std_mse", "mean_mae", "std_mae"):
                assert row[key] == pytest.approx(want[key], rel=1e-10), key
        assert payload["best_length"] == 32
        assert payload["near_best"] == [32]
        assert [s["length"] for s in payload["skipped"]] == [128]

    def test_sweep_writes_csv_json_and_svg(self, data_csv, tmp_path):
        out = str(tmp_path / "sweepout")
        assert main(["sweep", "--config", write_sweep_config(tmp_path, [16, 32]),
                     "--data", data_csv, "--out", out]) == 0
        rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert rows[0].startswith("length,mean_mse")
        assert len(rows) == 3
        svg = open(os.path.join(out, "sweep.svg")).read()
        assert svg.startswith("<svg")
        assert "mean MSE" in svg and "mean MAE" in svg
        payload = json.loads(open(os.path.join(out, "sweep.json")).read())
        assert payload["best_length"] in (16, 32)

    def test_length_too_long_for_test_split_is_skipped(self, data_csv, tmp_path):
        """600 rows split 360/120/120: l_in=128 fits train but not val or test."""
        out = str(tmp_path / "sweepout")
        assert main(["sweep", "--config", write_sweep_config(tmp_path, [16, 128]),
                     "--data", data_csv, "--out", out]) == 0
        payload = json.loads(open(os.path.join(out, "sweep.json")).read())
        assert [row["length"] for row in payload["rows"]] == [16]
        assert [s["length"] for s in payload["skipped"]] == [128]

    def test_best_length_by_mean_mse(self, data_csv, tmp_path, monkeypatch):
        """Length 32 has the single best cell, but length 16 the best mean."""
        fake_cells(monkeypatch, {(8, 0): 1.0, (8, 1): 3.0, (16, 0): 1.5, (16, 1): 1.5,
                                 (32, 0): 0.5, (32, 1): 5.0})
        out = tmp_path / "best"
        config = write_sweep_config(tmp_path, [8, 16, 32], seeds=[0, 1])
        assert main(["sweep", "--config", config, "--data", data_csv,
                     "--out", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert [(r["length"], r["mean_mse"], r["std_mse"], r["mean_mae"])
                for r in payload["rows"]] == [(8, 2.0, 1.0, 1.0), (16, 1.5, 0.0, 0.75),
                                              (32, 2.75, 2.25, 1.375)]
        assert payload["best_length"] == 16
        assert payload["near_best"] == [16]
        assert payload["skipped"] == []

    def test_partial_length_reports_its_seed_count(self, data_csv, tmp_path, monkeypatch):
        """A length where one seed's cell failed keeps a row of its surviving
        seed, and says so; the CSV keeps its five columns."""
        def run_cell(spec, splits, axis_value, pred_len, seed, fmt=None):
            cell = harness.CellResult(axis_value=axis_value, pred_len=pred_len, seed=seed,
                                      mse=1.0 + seed, mae=0.5)
            if (axis_value, seed) == (32, 1):
                cell.status, cell.reason = "failed", "NumericalError: diverged"
            return cell

        monkeypatch.setattr(harness, "run_cell", run_cell)
        out = tmp_path / "partial"
        config = write_sweep_config(tmp_path, [16, 32], seeds=[0, 1])
        assert main(["sweep", "--config", config, "--data", data_csv,
                     "--out", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert [(r["length"], r["n_seeds"]) for r in payload["rows"]] == [(16, 2), (32, 1)]
        assert (out / "sweep.csv").read_text().splitlines() == [
            "length,mean_mse,std_mse,mean_mae,std_mae", "16,1.5,0.5,0.5,0.0",
            "32,1.0,0.0,0.5,0.0"]

    def test_near_best_within_5_percent(self, data_csv, tmp_path, monkeypatch):
        fake_cells(monkeypatch, {(8, 0): 1.0, (16, 0): 1.03, (32, 0): 2.0, (64, 0): 1.0501})
        out = tmp_path / "near"
        assert main(["sweep", "--config", write_sweep_config(tmp_path, [8, 16, 32, 64]),
                     "--data", data_csv, "--out", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["best_length"] == 8
        assert payload["near_best"] == [8, 16]

    def test_svg_well_formed(self, data_csv, tmp_path, monkeypatch):
        fake_cells(monkeypatch, {(16, 0): 0.5, (32, 0): 0.7})
        out = tmp_path / "svg"
        assert main(["sweep", "--config", write_sweep_config(tmp_path, [16, 32]),
                     "--data", data_csv, "--out", str(out)]) == 0
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<polyline") == 2
        assert "mean MSE" in svg and "mean MAE" in svg

    def test_inadmissible_length_skipped_with_reason(self, data_csv, tmp_path):
        out = tmp_path / "inadmissible"
        assert main(["sweep", "--config", write_sweep_config(tmp_path, [15, 16]),
                     "--data", data_csv, "--out", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert [row["length"] for row in payload["rows"]] == [16]
        assert payload["skipped"] == [
            {"length": 15, "reason": "ConfigError: l_in=15 must be divisible by 2^blocks=4"}]

    def test_all_lengths_inadmissible_exits_1(self, data_csv, tmp_path):
        out = tmp_path / "none"
        assert main(["sweep", "--config", write_sweep_config(tmp_path, [15, 128]),
                     "--data", data_csv, "--out", str(out)]) == 1
        assert not (out / "sweep.json").exists()

    def test_length_whose_cells_all_raise_is_skipped(self, data_csv, tmp_path, monkeypatch):
        """A cell that raises mid-training fails alone; the sweep goes on."""
        train = harness.train_end_to_end

        def flaky(model, train_ds, val_ds, cfg):
            if model.cfg.l_in == 32:
                raise FloatingPointError("overflow encountered in multiply")
            return train(model, train_ds, val_ds, cfg)

        monkeypatch.setattr(harness, "train_end_to_end", flaky)
        out = tmp_path / "raising"
        config = write_sweep_config(tmp_path, [16, 32], seeds=[0, 1])
        assert main(["sweep", "--config", config, "--data", data_csv,
                     "--out", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert [row["length"] for row in payload["rows"]] == [16]
        assert payload["best_length"] == 16
        assert payload["skipped"] == [
            {"length": 32, "reason": "FloatingPointError: overflow encountered in multiply"}]

    def test_multivariate_sweep_builds_the_relation_model(self, data_csv, tmp_path,
                                                          monkeypatch):
        seen = []
        init = RTNet.__init__

        def spy(self, cfg, rng, relation=None):
            seen.append((cfg.groups, relation))
            init(self, cfg, rng, relation=relation)

        monkeypatch.setattr(RTNet, "__init__", spy)
        config = write_sweep_config(tmp_path, [16], task="multivariate", use_relation=True)
        assert main(["sweep", "--config", config, "--data", data_csv,
                     "--out", str(tmp_path / "mv")]) == 0
        assert seen
        for groups, relation in seen:
            assert groups == 2
            assert relation is not None and relation.shape == (2, 2)


class TestExperimentCommand:
    def test_runs_spec(self, data_csv, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "data_path": data_csv,
            "pred_lengths": [4],
            "seeds": [0],
            "task": "univariate",
            "ablation": "norm_kind",
            "ablation_values": ["wn", "bn"],
            "model": {"l_in": 16, "d_channels": 4, "blocks": 2},
            "train": {"epochs": 1, "max_steps_per_epoch": 3, "lr": 1e-3},
        }))
        out = str(tmp_path / "exp")
        assert main(["experiment", "--spec", str(spec), "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert len(report["cells"]) == 2

    def test_all_cells_failed_nonzero_exit(self, data_csv, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "data_path": data_csv,
            "pred_lengths": [4],
            "seeds": [0],
            "task": "univariate",
            "ablation": "input_length",
            "ablation_values": [13],   # indivisible: the only cell fails
            "model": {"d_channels": 4, "blocks": 2},
            "train": {"epochs": 1, "max_steps_per_epoch": 3},
        }))
        code = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "e2")])
        assert code == 1

    def test_runtime_failure_returns_1(self, tmp_path):
        assert main(["relate", "--data", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "o")]) == 1
