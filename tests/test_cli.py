"""CLI contract: exit codes, outputs under --out, lock file, JSON-only stdout."""

import csv
import fcntl
import hashlib
import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import rtnet
from conftest import hourly, npy_bytes, rewrite_members, write_csv
from rtnet import cli, harness, training
from rtnet.cli import OutDirLock, main, parse_args
from rtnet.data import atomic_open
from rtnet.errors import RTNetError
from rtnet.model import RTNet, save_checkpoint
from rtnet.optim import Adam
from rtnet.training import TrainResult


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

    @pytest.mark.parametrize("first", [["--seed", "1"], ["--seed=1"], ["--se", "1"]])
    def test_seed_twice_warns_last_wins(self, capsys, first):
        """Every spelling argparse accepts counts as a --seed."""
        cfg = parse_args(["train", "--config", "c.json", "--data", "d.csv", "--out", "o",
                          *first, "--seed", "7"])
        assert cfg.seed == 7
        assert capsys.readouterr().err == (
            "warning: --seed given more than once; the last value wins\n")

    def test_seed_once_does_not_warn(self, capsys):
        assert parse_args(["train", "--config", "c.json", "--data", "d.csv", "--out", "o",
                           "--seed=0"]).seed == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["experiment", "--spec", "s.json", "--out", "o", "--compare-formats"],
        ["relate", "--data", "d.csv", "--out", "o", "--seed", "1"],
        ["pacf", "--data", "d.csv", "--out", "o", "--seed", "1"]])
    def test_removed_flags_are_usage_errors(self, argv):
        """`"ablation": "format"` is the format comparison; relate and pacf draw
        nothing at random."""
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2


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

    def test_golden_bytes(self, data_csv, tmp_path):
        """Recorded from the train split standardized on its own; the shared
        split loader must give the same train values."""
        out = tmp_path / "rel"
        assert main(["relate", "--data", data_csv, "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("relation_raw.csv", "relation_processed.csv")}
        assert digests == {
            "relation_raw.csv":
                "e2fccbef1cf3abdf00cf4152a2cabad7ba2128efd685a7c103d3544042f65bb0",
            "relation_processed.csv":
                "9d34b90a4c57b633e314946294a1e1fac0f6b8d9112b201635c33d445600c684"}

    def test_quoted_names_read_back_as_a_square_matrix(self, tmp_path):
        """A header may quote a name with a comma or a quote in it; both
        matrices read back under the same names, one row per column."""
        names = ["load, kW", 'say "hi"', "OT"]
        values = np.random.default_rng(1).normal(size=(100, 3))
        path = tmp_path / "quoted.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [["date", *names], *([ts.strftime("%Y-%m-%d %H:%M:%S"), *row]
                                     for ts, row in zip(hourly(100), values.tolist()))])
        out = tmp_path / "rel"
        assert main(["relate", "--data", str(path), "--out", str(out)]) == 0
        matrices = []
        for name in ("relation_raw.csv", "relation_processed.csv"):
            with open(out / name, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert header == ["", *names]
            assert [row[0] for row in rows] == names
            matrices.append(np.array([row[1:] for row in rows], dtype=float))
        raw, processed = matrices
        assert raw.shape == processed.shape == (3, 3)
        assert np.diag(raw).tolist() == [1.0] * 3
        assert np.allclose(processed.sum(axis=0), 1.0, atol=1e-5)


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
                                                 ("beta", 1e308, "contrastive"),
                                                 ("alpha", float("nan"), "contrastive"),
                                                 ("alpha", float("inf"), "contrastive"),
                                                 pytest.param("lr", 10**400, "e2e",
                                                              id="lr-int-1e400-e2e")])
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

    @pytest.mark.parametrize("fmt", ["e2e", "contrastive"])
    def test_split_without_a_window_fails_before_the_first_step(
            self, data_csv, tmp_path, capsys, monkeypatch, fmt):
        """600 rows split 360/120/120: l_in=128 fits train but not val or test.

        Both formats fail in the shared window check, with its wording."""
        steps = []
        step = Adam.step
        monkeypatch.setattr(Adam, "step", lambda self: steps.append(1) or step(self))
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({
            "task": "univariate",
            "model": {"l_in": 128, "d_channels": 4, "blocks": 2, "l_out": 4},
            "train": {"epochs": 1, "max_steps_per_epoch": 2, "stage1_batch_size": 2},
        }))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--data", data_csv, "--format", fmt,
                     "--out", str(out)]) == 1
        assert ("split of 120 rows cannot host a window; needs at least 132 rows"
                in capsys.readouterr().err)
        assert steps == []
        assert not (out / "checkpoint.rtnet").exists()

    def test_lock_file_blocks_second_invocation(self, data_csv, train_config, tmp_path,
                                                capsys):
        """A run that finds the directory's flock held, here by another open file
        of this process, ends with one error line and writes nothing."""
        out = tmp_path / "locked"
        with OutDirLock(str(out)):
            assert main(["train", "--config", train_config, "--data", data_csv,
                         "--out", str(out)]) == 1
            assert one_error_line(capsys) == f"error: another run holds the lock {out / LOCK}"
            assert sorted(p.name for p in out.iterdir()) == [LOCK]
        assert list(out.iterdir()) == []

    def test_lock_of_a_live_pid_still_blocks(self, data_csv, train_config, tmp_path, capsys):
        """A live process holding the flock refuses the run; once it ends, the
        next run goes ahead."""
        out = tmp_path / "live"
        with lock_holder(out) as holder:
            assert main(["train", "--config", train_config, "--data", data_csv,
                         "--out", str(out)]) == 1
            assert "another run holds the lock" in one_error_line(capsys)
            holder.stdin.close()
            assert holder.wait(timeout=60) == 0
        assert list(out.iterdir()) == []
        assert main(["train", "--config", train_config, "--data", data_csv,
                     "--out", str(out)]) == 0

    def test_lock_of_a_dead_pid_is_reclaimed(self, data_csv, train_config, tmp_path):
        """A holder killed with SIGKILL leaves its lock file, but the kernel has
        dropped its flock, so nothing blocks the next run."""
        out = tmp_path / "stale"
        with lock_holder(out) as holder:
            holder.kill()
            assert holder.wait(timeout=60) == -signal.SIGKILL
        assert (out / LOCK).exists()
        assert main(["train", "--config", train_config, "--data", data_csv,
                     "--out", str(out)]) == 0
        assert (out / "checkpoint.rtnet").exists()
        assert not (out / LOCK).exists()

    def test_eval_of_a_truncated_checkpoint_exits_1_without_traceback(
            self, data_csv, train_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", train_config, "--data", data_csv,
                     "--out", str(out)]) == 0
        ckpt = out / "checkpoint.rtnet"
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
        proc = subprocess.run(
            [sys.executable, "-m", "rtnet.cli", "eval", "--checkpoint", str(ckpt),
             "--data", data_csv],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr and proc.stdout == ""


LOCK = ".rtnet.lock"


def child_env():
    """The environment of a child Python that imports this rtnet."""
    return dict(os.environ, PYTHONPATH=str(Path(rtnet.__file__).resolve().parents[1]))


def one_error_line(capsys):
    """The one ``error:`` line of the captured stderr, which is its last line."""
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and err.splitlines()[-1] == errors[0], err
    assert "Traceback" not in err
    return errors[0]


@contextmanager
def lock_holder(out):
    """A child process that holds ``out``'s lock until its stdin closes; yields
    once it holds the lock."""
    code = ("import sys\nfrom rtnet.cli import OutDirLock\n"
            "with OutDirLock(sys.argv[1]):\n    print('held', flush=True)\n    sys.stdin.read()\n")
    with subprocess.Popen([sys.executable, "-c", code, str(out)], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, env=child_env()) as holder:
        try:
            assert holder.stdout.readline() == "held\n"
            yield holder
        finally:
            holder.kill()


class TestOutDirLock:
    @pytest.mark.parametrize("content", ["", "1"])
    def test_an_unheld_lock_file_does_not_block(self, data_csv, train_config, tmp_path,
                                                content):
        """A lock file that no run holds, empty (a kill right after it was made)
        or naming a live unrelated PID, is no lock."""
        out = tmp_path / "out"
        out.mkdir()
        (out / LOCK).write_text(content)
        assert main(["train", "--config", train_config, "--data", data_csv,
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.rtnet", "history.csv", "scaler.json"]

    @pytest.mark.parametrize("a_finishes", [False, True], ids=["a-holds", "a-runs-whole"])
    def test_no_interleaving_gives_two_holders(self, tmp_path, monkeypatch, a_finishes):
        """Run A takes the lock (and, with ``a_finishes``, releases it) between
        any two of run B's system calls, on a lock file left by a dead run.  At
        most one of them holds the lock, a held lock is the file at the path,
        and the path is free once both are done."""
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait(timeout=60) == 0  # reaped, so its PID names no process
        state = {"calls": 0}

        def before_each_call():
            state["calls"] += 1
            if state["calls"] == state["at"]:
                state["at"] = None  # A's own calls run straight through
                try:
                    a.__enter__()
                except RTNetError:
                    return
                state["a"] = not a_finishes
                if a_finishes:
                    a.__exit__(None, None, None)

        class Interleaved:
            def __init__(self, module):
                self.module = module

            def __getattr__(self, name):
                attr = getattr(self.module, name)
                if not callable(attr) or isinstance(attr, type):
                    return attr

                def call(*args, **kwargs):
                    before_each_call()
                    return attr(*args, **kwargs)
                return call

        monkeypatch.setattr(cli, "os", Interleaved(os))
        monkeypatch.setattr(cli, "fcntl", Interleaved(fcntl), raising=False)
        for at in itertools.count(1):
            out = tmp_path / str(at)
            state.update(at=None, a=False)
            a, b = cli.OutDirLock(str(out)), cli.OutDirLock(str(out))
            (out / LOCK).write_text(str(child.pid))
            state.update(calls=0, at=at)
            try:
                b.__enter__()
                b_holds = True
            except RTNetError:
                b_holds = False
            a_ran, state["at"] = state["at"] is None, None
            assert [state["a"], b_holds].count(True) == 1, at
            holder = a if state["a"] else b
            assert os.path.samestat(os.fstat(holder.fd), os.stat(holder.path)), at
            holder.__exit__(None, None, None)
            assert list(out.iterdir()) == [], at
            if not a_ran:
                break
        assert at > 3

    @pytest.mark.parametrize("command", ["relate", "pacf", "train", "sweep", "experiment"])
    @pytest.mark.parametrize("ok", [True, False], ids=["ok", "refused"])
    def test_no_lock_file_is_left(self, data_csv, tmp_path, capsys, command, ok):
        """The lock file is gone after every command, whether it succeeded or
        failed."""
        data = data_csv if ok else str(tmp_path / "missing.csv")
        source = ["--data", data]
        if command in ("train", "sweep", "experiment"):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(base_config(command, data)))
            source = (["--spec", str(config)] if command == "experiment"
                      else [*source, "--config", str(config)])
        out = tmp_path / "out"
        assert main([command, *source, "--out", str(out)]) == (0 if ok else 1)
        if not ok:
            assert "missing.csv" in one_error_line(capsys)
        assert not (out / LOCK).exists()
        assert ok or list(out.iterdir()) == []


    @pytest.mark.parametrize("command", ["relate", "pacf", "train", "sweep", "experiment"])
    def test_each_command_writes_the_files_it_lists(self, data_csv, tmp_path, command):
        """``cli.OUTPUTS`` names every file a command leaves under --out, so
        the partial writes cleared under the lock are all of its own."""
        source = ["--data", data_csv]
        if command in ("train", "sweep", "experiment"):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(base_config(command, data_csv)))
            source = (["--spec", str(config)] if command == "experiment"
                      else [*source, "--config", str(config)])
        out = tmp_path / "out"
        assert main([command, *source, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(cli.OUTPUTS[command])

    @pytest.mark.parametrize("ok", [True, False], ids=["ok", "refused"])
    def test_a_killed_writer_s_temporary_file_is_removed_under_the_lock(
            self, data_csv, train_config, tmp_path, capsys, ok):
        """A ``<name>.tmp`` beside a file the command writes is a killed
        writer's leftover and goes, even when the run then writes nothing;
        any other ``.tmp`` is not rtnet's and stays."""
        out = tmp_path / "run"
        out.mkdir()
        (out / "history.csv.tmp").write_text("epoch,val_mse\n0,")
        (out / "notes.tmp").write_text("mine")
        data = data_csv if ok else str(tmp_path / "missing.csv")
        assert main(["train", "--config", train_config, "--data", data,
                     "--out", str(out)]) == (0 if ok else 1)
        if not ok:
            assert "missing.csv" in one_error_line(capsys)
        assert not (out / "history.csv.tmp").exists()
        assert (out / "notes.tmp").read_text() == "mine"


class TestAtomicOutputs:
    """Every output goes through a temporary file that replaces its target only
    when the write completes."""

    @pytest.mark.parametrize("mode,payload", [("w", "a,b\r\n1,2\n"), ("wb", b"\x00\r\n")])
    def test_a_failed_write_leaves_the_old_file(self, tmp_path, mode, payload):
        path = tmp_path / "out.bin"
        with atomic_open(str(path), mode) as fh:
            fh.write(payload)
        assert path.read_bytes() == (payload.encode() if mode == "w" else payload)
        with pytest.raises(RuntimeError):
            with atomic_open(str(path), mode) as fh:
                fh.write(payload * 2)
                raise RuntimeError("killed mid-write")
        assert path.read_bytes() == (payload.encode() if mode == "w" else payload)
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @staticmethod
    def small_model():
        return RTNet(rtnet.ModelConfig(l_in=8, l_out=2, n_variates=2, d_channels=4, blocks=2,
                                       groups=2), np.random.default_rng(0), relation=np.eye(2))

    def test_a_checkpoint_save_that_fails_part_way_keeps_the_old_checkpoint(self, tmp_path):
        model = self.small_model()
        path = tmp_path / "checkpoint.rtnet"
        save_checkpoint(model, str(path))
        before = path.read_bytes()
        for p in model.parameters():
            p.data += 1.0
        model.relation = np.array([["not a number"] * 2] * 2, dtype=object)  # written last
        with pytest.raises(ValueError):
            save_checkpoint(model, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.rtnet"]

    def test_a_checkpoint_save_killed_part_way_keeps_the_old_checkpoint(self, tmp_path):
        """SIGKILL in the middle of a save, while the last array is being
        converted, leaves the old checkpoint; only its temporary file remains."""
        path = tmp_path / "checkpoint.rtnet"
        save_checkpoint(self.small_model(), str(path))
        before = path.read_bytes()
        code = ("import sys, numpy as np\n"
                "from rtnet.model import ModelConfig, RTNet, save_checkpoint\n"
                "class Stall:\n"
                "    shape = (2, 2)\n"
                "    def __array__(self, dtype=None, copy=None):\n"
                "        print('saving', flush=True)\n"
                "        sys.stdin.read()\n"
                "m = RTNet(ModelConfig(l_in=8, l_out=2, n_variates=2, d_channels=4, blocks=2,"
                " groups=2), np.random.default_rng(1), relation=np.eye(2))\n"
                "m.relation = Stall()\n"
                "save_checkpoint(m, sys.argv[1])\n")
        with subprocess.Popen([sys.executable, "-c", code, str(path)], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True, env=child_env()) as saver:
            try:
                assert saver.stdout.readline() == "saving\n"
            finally:
                saver.kill()
        assert saver.returncode == -signal.SIGKILL
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.rtnet",
                                                              "checkpoint.rtnet.tmp"]

    def test_a_history_write_that_fails_part_way_keeps_the_old_history(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("killed mid-write")

        path = tmp_path / "history.csv"
        TrainResult(history=[{"epoch": 0, "val_mse": 1.5}]).write_history_csv(str(path))
        before = path.read_bytes()
        assert before == b"epoch,val_mse\n0,1.5\n"
        rows = [{"epoch": e, "val_mse": 0.5} for e in range(500)] + [{"epoch": Unprintable()}]
        with pytest.raises(RuntimeError):
            TrainResult(history=rows).write_history_csv(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["history.csv"]


def test_every_csv_output_has_lf_line_ends_and_rectangular_rows(data_csv, tmp_path):
    runs = {"relate": ["--data", data_csv], "pacf": ["--data", data_csv, "--max-lag", "8"]}
    for command in ("train", "sweep", "experiment"):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(base_config(command, data_csv)))
        runs[command] = (["--spec", str(path)] if command == "experiment"
                         else ["--config", str(path), "--data", data_csv])
    for command, flags in runs.items():
        assert main([command, *flags, "--out", str(tmp_path / command)]) == 0
    outputs = sorted(tmp_path.glob("*/*.csv"))
    assert [f"{p.parent.name}/{p.name}" for p in outputs] == [
        "experiment/report.csv", "pacf/pacf.csv", "relate/relation_processed.csv",
        "relate/relation_raw.csv", "sweep/sweep.csv", "train/history.csv"]
    for path in outputs:
        text = path.read_bytes()
        assert b"\r" not in text, path.name
        rows = list(csv.reader(io.StringIO(text.decode("utf-8"), newline="")))
        assert len(rows) >= 2 and len({len(row) for row in rows}) == 1, path.name


def base_config(command, data_csv):
    """A valid config of each command: l_in 16, two blocks, l_out 4.  The sweep's
    lengths set its l_in, and the experiment's pred_lengths its l_out."""
    model = {"d_channels": 4, "blocks": 2}
    train = {"epochs": 1, "max_steps_per_epoch": 2}
    return {"train": {"task": "multivariate", "model": {**model, "l_in": 16, "l_out": 4},
                      "train": train},
            "sweep": {"task": "multivariate", "lengths": [16], "model": {**model, "l_out": 4},
                      "train": train},
            "experiment": {"data_path": data_csv, "pred_lengths": [4], "seeds": [0],
                           "task": "univariate", "ablation": "norm_kind",
                           "ablation_values": ["wn"], "model": {**model, "l_in": 16},
                           "train": train}}[command]


def patched(base, patch):
    """``base`` with the keys of ``patch``; a dict value is merged into base's block."""
    return {**base, **{k: {**base[k], **v} if isinstance(v, dict) else v
                       for k, v in patch.items()}}


def run_refused(capsys, tmp_path, data_csv, command, config, flags=()):
    """Run ``command`` on ``config`` (bytes, JSON text or a JSON value) and check
    that it ends before any output with exit code 1 and one last ``error:`` line,
    which it returns."""
    path = tmp_path / "config.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out"
    source = ["--spec", str(path)] if command == "experiment" else \
        ["--config", str(path), "--data", data_csv, *flags]
    assert main([command, *source, "--out", str(out)]) == 1
    error = one_error_line(capsys)
    assert list(out.iterdir()) == []
    return error


BAD_CONFIGS = [
    ("train", {"model": [1]}, ()),
    ("train", {"model": {"l_in": "abc"}}, ()),
    ("train", {"train": {"epochs": "3"}}, ()),
    ("train", {"model": {"dropout": "0.1"}}, ()),
    ("train", {"use_relation": "no"}, ()),
    ("train", {"seeds": [0]}, ()),
    ("train", "{not json", ()),
    ("train", [], ()),
    ("train", {}, ("--fidelity", "paper")),  # l_out 4 is off the published grids
    ("sweep", {"lengths": ["a"]}, ()),
    ("sweep", {"lengths": [16.5]}, ()),
    ("sweep", {"seeds": [0.5]}, ()),
    ("sweep", {"fidelity": "paper"}, ()),
    ("experiment", {"seeds": 5}, ()),
    ("experiment", {"seeds": [0.5]}, ()),
    ("experiment", {"pred_lengths": "4"}, ()),
    ("experiment", {"use_relation": "no"}, ()),
    ("experiment", {"ablation_values": "wn"}, ()),
    ("experiment", {"ablation_values": ["wn", "xx"]}, ()),
    ("experiment", {"ablation": "relation", "ablation_values": [True, False]}, ()),
]


class TestBadConfigs:
    @pytest.mark.parametrize("command,patch,flags", BAD_CONFIGS,
                             ids=[f"{c}-{json.dumps(p)}{''.join(f)}" for c, p, f in BAD_CONFIGS])
    def test_exits_1_with_one_error_line_and_no_output(self, data_csv, tmp_path, capsys,
                                                       command, patch, flags):
        """A bad config value ends the command before any output is written."""
        if isinstance(patch, dict):
            patch = patched(base_config(command, data_csv), patch)
        run_refused(capsys, tmp_path, data_csv, command, patch, flags)


OUT_OF_RANGE = [
    ("train", {"model": {"d_channels": 0}}, "d_channels"),
    ("train", {"model": {"d_channels": -4}}, "d_channels"),
    ("train", {"model": {"time_mode": "decoupled", "n_time": 7}}, "n_time"),
    ("train", {"model": {"time_mode": "input", "n_time": 50}}, "n_time"),
    ("experiment", {"pred_lengths": []}, "pred_lengths"),
    ("experiment", {"pred_lengths": [4, 0]}, "pred_lengths"),
    ("experiment", {"model": {"l_inn": 16}}, "l_inn"),
    ("experiment", {"train": {"epochs": "3"}}, "epochs"),
]


@pytest.mark.parametrize("command,patch,field", OUT_OF_RANGE,
                         ids=[f"{c}-{json.dumps(p)}" for c, p, _ in OUT_OF_RANGE])
def test_out_of_range_value_is_refused_before_any_cell(data_csv, tmp_path, capsys, command,
                                                       patch, field):
    """An empty grid, a zero width, a time branch that does not read every
    calendar feature, or a bad block key: one error naming the field, no report."""
    error = run_refused(capsys, tmp_path, data_csv, command,
                        patched(base_config(command, data_csv), patch))
    assert field in error


OWNED = [
    ("experiment", {"train": {"seed": 123}}, "train.seed", "seeds"),
    ("experiment", {"model": {"l_out": 8}}, "model.l_out", "pred_lengths"),
    ("experiment", {"model": {"groups": 1, "n_variates": 2}}, "model.groups",
     "task and use_relation"),
    ("experiment", {"model": {"n_variates": 2}}, "model.n_variates", "the data"),
    ("experiment", {"model": {"norm_kind": "bn"}}, "model.norm_kind", "the norm_kind axis"),
    ("experiment", {"ablation": "input_length", "ablation_values": [16],
                    "model": {"l_in": 32}}, "model.l_in", "the input_length axis"),
    ("experiment", {"theta_degrees": 0, "model": {"theta_degrees": 45}}, "theta_degrees",
     "model.theta_degrees"),
    ("train", {"model": {"groups": 1, "n_variates": 3}}, "model.groups",
     "task and use_relation"),
    ("train", {"train": {"seed": 5}}, "train.seed", "--seed"),
    ("sweep", {"model": {"l_in": 32}}, "model.l_in", "the input_length axis"),
]


@pytest.mark.parametrize("command,patch,key,owner", OWNED,
                         ids=[f"{c}-{json.dumps(p)}" for c, p, _, _ in OWNED])
def test_a_setting_given_outside_its_owner_is_refused(data_csv, tmp_path, capsys, command,
                                                      patch, key, owner):
    """Each setting has one source.  A block key that every cell sets itself, or
    a top-level key that lives in a block, names the key and what owns it
    instead of being overwritten."""
    error = run_refused(capsys, tmp_path, data_csv, command,
                        patched(base_config(command, data_csv), patch))
    assert key in error and owner in error, error


@pytest.mark.parametrize("key,value,axis,values", [
    ("format", "e2e", "format", ["e2e", "contrastive"]),
    ("format", "contrastive", "format", ["e2e"]),
    ("use_relation", True, "relation", [True, False]),
    ("use_relation", False, "relation", [True])])
def test_a_top_level_key_beside_its_axis_is_refused(data_csv, tmp_path, capsys, key, value,
                                                    axis, values):
    """The format and relation axes set the spec's own ``format`` and
    ``use_relation`` in every cell, so a top-level value beside them, even the
    default, would be overwritten without a word."""
    spec = patched(base_config("experiment", data_csv),
                   {"task": "multivariate", "ablation": axis, "ablation_values": values,
                    key: value})
    error = run_refused(capsys, tmp_path, data_csv, "experiment", spec)
    assert error == f"error: {key} is set by the {axis} axis, not by the spec"


def test_ablation_values_without_an_axis_are_refused(data_csv, tmp_path, capsys):
    """Values with no axis to vary would run the plain spec under the label of
    none of them."""
    spec = patched(base_config("experiment", data_csv),
                   {"ablation": None, "ablation_values": ["wn", "bn"]})
    assert "ablation_values" in run_refused(capsys, tmp_path, data_csv, "experiment", spec)


@pytest.mark.parametrize("flags", [("--seed", "9"), ("--seed=5",), ("--seed", "0")])
def test_seed_flag_beside_sweep_seeds_is_refused(data_csv, tmp_path, capsys, flags):
    """A sweep file's seeds own the seed, so --seed, even at its old default 0,
    is refused rather than ignored."""
    config = patched(base_config("sweep", data_csv), {"seeds": [0]})
    error = run_refused(capsys, tmp_path, data_csv, "sweep", config, flags)
    assert "--seed" in error and "seeds" in error.replace("--seed", ""), error


UNREACHED = [  # refusals that no other test reaches: config patch, flags, error phrase
    ({"train": {"patience": 0}}, (), "patience must be >= 1, got 0"),
    ({"train": {"epochs": 0}}, (), "epochs must be >= 1, got 0"),
    ({"train": {"max_steps_per_epoch": 0}}, (), "max_steps_per_epoch must be >= 1, got 0"),
    ({"model": {"norm_kind": "xx"}}, (), "norm_kind must be one of"),
    ({"model": {"dropout": 1.0}}, (), "dropout must lie in [0, 1), got 1.0"),
    ({"model": {"time_mode": "xx"}}, (), "time_mode must be one of"),
    ({"train": {"batch_size": 1000}}, (), "batch size 1000 exceeds the 341 available"),
    ({"model": {"time_mode": "input"}}, ("--format", "contrastive"),
     "contrastive training expects decoupled or absent time features"),
]


@pytest.mark.parametrize("patch,flags,phrase", UNREACHED,
                         ids=[f"{json.dumps(p)}{''.join(f)}" for p, f, _ in UNREACHED])
def test_train_refusal_exits_1_with_one_error_line(data_csv, tmp_path, capsys, patch, flags,
                                                   phrase):
    error = run_refused(capsys, tmp_path, data_csv, "train",
                        patched(base_config("train", data_csv), patch), flags)
    assert phrase in error, error


def test_batch_norm_trains_at_batch_size_one(data_csv, tmp_path):
    """A batch of one still gives each channel l_in values to normalize over."""
    config = patched(base_config("train", data_csv),
                     {"model": {"norm_kind": "bn"}, "train": {"batch_size": 1}})
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config))
    assert main(["train", "--config", str(path), "--data", data_csv,
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_a_non_finite_validation_mse_fails_the_run(data_csv, tmp_path, capsys, monkeypatch,
                                                  command):
    """A NaN validation MSE at epoch 1 is a NumericalError naming the stage and
    the epoch, so train exits 1 and the cell fails."""
    real, calls = training.evaluate, []

    def evaluate(model, ds):
        calls.append(1)
        return (float("nan"),) * 2 if len(calls) == 2 else real(model, ds)

    monkeypatch.setattr(training, "evaluate", evaluate)
    config = patched(base_config(command, data_csv), {"train": {"epochs": 2}})
    message = "training diverged at epoch 1: non-finite validation MSE nan"
    if command == "train":
        assert message in run_refused(capsys, tmp_path, data_csv, command, config)
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 1
        assert "every experiment cell failed" in one_error_line(capsys)
        cell, = json.loads((out / "report.json").read_text())["cells"]
        assert (cell["status"], cell["reason"]) == ("failed", f"NumericalError: {message}")
    assert len(calls) == 2


def refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_report_json_is_strict_json_with_a_failed_cell(data_csv, tmp_path):
    """A failed cell's metrics and an all-failed summary row are null, which
    every JSON reader parses; report.csv keeps its nan text."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(patched(base_config("experiment", data_csv),
                                       {"pred_lengths": [4, 1000]})))
    out = tmp_path / "out"
    assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=refuse_constant)
    assert [c["status"] for c in report["cells"]] == ["ok", "failed"]
    assert [report["cells"][1][k] for k in ("mse", "mae")] == [None, None]
    assert all(isinstance(report["cells"][0][k], float) for k in ("mse", "mae"))
    assert [report["summary"][1][k] for k in ("mean_mse", "std_mse", "mean_mae",
                                              "std_mae")] == [None] * 4
    assert (out / "report.csv").read_text().splitlines()[2] == "wn,1000,nan,nan,nan,nan,0"


def small_model():
    return RTNet(rtnet.ModelConfig(l_in=16, l_out=4, n_variates=1, d_channels=4, blocks=2,
                                   groups=1), np.random.default_rng(0))


def nan_head_bias(model):
    """Give ``model`` a NaN head bias, so that every forecast it makes is NaN."""
    dict(model.named_parameters())["head.linear.bias"].data[...] = np.nan


def poison_cells(monkeypatch, poisoned):
    """Train each cell for real, then NaN the head bias of each model that
    ``poisoned(model, seed)`` picks."""
    train_cell = harness.train_cell

    def wrapped(spec, splits, axis_value, pred_len, seed):
        model, result = train_cell(spec, splits, axis_value, pred_len, seed)
        if poisoned(model, seed):
            nan_head_bias(model)
        return model, result

    monkeypatch.setattr(harness, "train_cell", wrapped)


def test_a_train_whose_test_forecast_is_nan_exits_1_and_writes_nothing(
        data_csv, tmp_path, capsys, monkeypatch):
    poison_cells(monkeypatch, lambda model, seed: True)
    error = run_refused(capsys, tmp_path, data_csv, "train", base_config("train", data_csv))
    assert error == "error: non-finite forecast error: squared sum nan, absolute sum nan"


def test_eval_of_a_checkpoint_with_a_nan_bias_exits_1(data_csv, tmp_path, capsys):
    model = small_model()
    nan_head_bias(model)
    path = tmp_path / "checkpoint.rtnet"
    save_checkpoint(model, str(path))
    assert main(["eval", "--checkpoint", str(path), "--data", data_csv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite forecast error: squared sum nan, absolute sum nan\n"


def test_every_json_output_is_strict_with_failed_cells(data_csv, tmp_path, capsys, monkeypatch):
    """Seed 1's forecasts are NaN, and the experiment's prediction length 1000
    fits no split: each such cell fails, and every JSON file, the checkpoint's
    header and eval's stdout parse with NaN and infinity refused."""
    poison_cells(monkeypatch, lambda model, seed: seed == 1)
    configs = {"train": base_config("train", data_csv),
               "sweep": patched(base_config("sweep", data_csv), {"seeds": [0, 1]}),
               "experiment": patched(base_config("experiment", data_csv),
                                     {"seeds": [0, 1], "pred_lengths": [4, 1000]})}
    for command, config in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        source = (["--spec", str(path)] if command == "experiment"
                  else ["--config", str(path), "--data", data_csv])
        assert main([command, *source, "--out", str(tmp_path / command)]) == 0
    checkpoint = tmp_path / "train" / "checkpoint.rtnet"
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", data_csv]) == 0
    texts = {f"{p.parent.name}/{p.name}": p.read_text() for p in tmp_path.glob("*/*.json")}
    assert sorted(texts) == ["experiment/report.json", "sweep/sweep.json", "train/scaler.json"]
    with zipfile.ZipFile(checkpoint) as zf:
        texts["header.json"] = zf.read("header.json").decode()
    texts["stdout"] = capsys.readouterr().out
    parsed = {name: json.loads(text, parse_constant=refuse_constant)
              for name, text in texts.items()}
    assert parsed["sweep/sweep.json"]["skipped"] == []
    assert [r["n_seeds"] for r in parsed["sweep/sweep.json"]["rows"]] == [1]
    cells = parsed["experiment/report.json"]["cells"]
    assert [(c["pred_len"], c["seed"], c["status"]) for c in cells] == [
        (4, 0, "ok"), (4, 1, "failed"), (1000, 0, "failed"), (1000, 1, "failed")]
    assert cells[1]["reason"].startswith("NumericalError: non-finite forecast error")
    assert [(c["mse"], c["mae"]) for c in cells[1:]] == [(None, None)] * 3


def _zero_variates(members):
    header = json.loads(members[0][1])
    header["config"]["n_variates"] = 0
    members[0][1] = json.dumps(header).encode()


@pytest.mark.parametrize("edit,phrase", [
    (lambda members: members.insert(2, list(members[1])),
     "checkpoint members do not match the model "
     "(missing [], unexpected ['cpn.branch0.embed.v.npy'])"),
    (lambda members: members[2].__setitem__(1, npy_bytes(np.zeros(5))),
     "array 'cpn.branch0.embed.g' is stored as ((1, 0), (5,), False, dtype('float64')), "
     "the model needs (4,) in C order as float64"),
    (_zero_variates, "unreadable checkpoint header "
                     "(ConfigError('n_variates must be >= 1, got 0'))")],
    ids=["repeated", "shape", "zero-variates"])
def test_eval_of_a_checkpoint_whose_members_do_not_fit_its_model(
        data_csv, tmp_path, capsys, edit, phrase):
    path = tmp_path / "checkpoint.rtnet"
    save_checkpoint(RTNet(rtnet.ModelConfig(l_in=16, l_out=4, n_variates=1, d_channels=4,
                                            blocks=2, groups=1), np.random.default_rng(0)),
                    str(path))
    rewrite_members(path, edit)
    assert main(["eval", "--checkpoint", str(path), "--data", data_csv]) == 1
    assert one_error_line(capsys) == f"error: {path}: {phrase}"


@pytest.mark.parametrize("before", ["checkpoint", "junk"])
def test_eval_of_a_concatenated_or_prefixed_checkpoint_exits_1(data_csv, tmp_path, capsys,
                                                               before):
    paths = [tmp_path / "first.rtnet", tmp_path / "checkpoint.rtnet"]
    for seed, path in enumerate(paths):
        save_checkpoint(RTNet(rtnet.ModelConfig(l_in=16, l_out=4, n_variates=1, d_channels=4,
                                                blocks=2, groups=1), np.random.default_rng(seed)),
                        str(path))
    head = paths[0].read_bytes() if before == "checkpoint" else b"\x00" * 100
    paths[1].write_bytes(head + paths[1].read_bytes())
    assert main(["eval", "--checkpoint", str(paths[1]), "--data", data_csv]) == 1
    assert one_error_line(capsys) == (f"error: {paths[1]}: {len(head)} bytes precede its "
                                      f"zip (prefixed or concatenated)")


def test_eval_of_a_missing_checkpoint_exits_1(data_csv, tmp_path, capsys):
    path = tmp_path / "none.rtnet"
    assert main(["eval", "--checkpoint", str(path), "--data", data_csv]) == 1
    assert one_error_line(capsys) == f"error: [Errno 2] No such file or directory: '{path}'"


@pytest.mark.parametrize("header,phrase", [("date", "no variate columns"),
                                           ("date,OT,OT", "duplicate variate names")])
def test_a_csv_header_without_distinct_variates_exits_1(tmp_path, capsys, header, phrase):
    data = tmp_path / "bad.csv"
    data.write_text(f"{header}\n2016-07-01 00:00:00,1,2\n")
    out = tmp_path / "out"
    assert main(["relate", "--data", str(data), "--out", str(out)]) == 1
    assert one_error_line(capsys).startswith(f"error: {data}: {phrase}")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_a_config_that_is_not_utf8_exits_1(data_csv, tmp_path, capsys, command):
    """A Latin-1 "é" in the task name, which UTF-8 cannot decode."""
    config = json.dumps(base_config(command, data_csv)).encode().replace(
        b"variate", b"variat\xe9")
    what = "experiment spec" if command == "experiment" else "train config"
    assert run_refused(capsys, tmp_path, data_csv, command, config).startswith(
        f"error: {tmp_path / 'config.json'}: unreadable {what} "
        "('utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("command", ["relate", "train", "eval"])
@pytest.mark.parametrize("body,phrase", [
    (b"2016-07-01 00:00:00,\xff\n", "'utf-8' codec can't decode byte 0xff"),
    (b"2016-07-01 00:00:00," + b"1" * 131_073 + b"\n", "field larger than field limit")],
    ids=["not-utf8", "oversized-field"])
def test_a_csv_whose_bytes_do_not_parse_exits_1(tmp_path, capsys, train_config, command,
                                                body, phrase):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"date,OT\n" + body)
    out = tmp_path / "out"
    out.mkdir()
    if command == "eval":
        checkpoint = tmp_path / "checkpoint.rtnet"
        save_checkpoint(small_model(), str(checkpoint))
        argv = ["eval", "--checkpoint", str(checkpoint)]
    else:
        argv = [command, "--out", str(out)] + (["--config", train_config]
                                              if command == "train" else [])
    assert main([*argv, "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and list(out.iterdir()) == []
    assert captured.err.startswith(f"error: {data}: unreadable CSV (")
    assert phrase in captured.err and captured.err.count("\n") == 1


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
    def run_cell(spec, splits, axis_value, pred_len, seed):
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
        def run_cell(spec, splits, axis_value, pred_len, seed):
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

    def test_a_length_whose_forecasts_are_nan_is_skipped(self, data_csv, tmp_path, capsys,
                                                        monkeypatch):
        """Length 16's models forecast NaN: both its cells fail with a
        NumericalError, so the best length is 24, and sweep.json is strict."""
        poison_cells(monkeypatch, lambda model, seed: model.cfg.l_in == 16)
        out = tmp_path / "nan"
        config = write_sweep_config(tmp_path, [16, 24], seeds=[0, 1])
        assert main(["sweep", "--config", config, "--data", data_csv,
                     "--out", str(out)]) == 0
        reason = "NumericalError: non-finite forecast error: squared sum nan, absolute sum nan"
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("cell failed")] == [
            f"cell failed: length=16 seed={seed}: {reason}" for seed in (0, 1)]
        payload = json.loads((out / "sweep.json").read_text(), parse_constant=refuse_constant)
        assert [row["length"] for row in payload["rows"]] == [24]
        assert payload["best_length"] == 24
        assert payload["skipped"] == [{"length": 16, "reason": reason}]

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
