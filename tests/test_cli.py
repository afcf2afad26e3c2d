import csv
import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bandflow.cli as cli_module
from bandflow.checkpoint import save_checkpoint
from bandflow.cli import Options, _read_config, build_parser, cli_dispatch
from bandflow.errors import BandflowError, ConfigError, DataError
from bandflow.flow import MLPEstimator
from bandflow.melody import NoteSequence, load_notes, save_notes
from bandflow.metrics import REPORT_COLUMNS, expand_sixteenths
from bandflow.synth import gen_melody_grammar
from bandflow.train import ROUTE_COLUMNS


def run(argv, capsys):
    code = cli_dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(["gen-data", "--task", "flow2d", "--frobnicate"], capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_subcommand_exits_one(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 1

    def test_bad_choice_exits_one(self, capsys):
        code, _, _ = run(["train", "--model", "nope"], capsys)
        assert code == 1


class TestGenData:
    def test_flow2d_csv(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, _, _ = run(["gen-data", "--task", "flow2d", "--n", "200",
                          "--out", str(out)], capsys)
        assert code == 0
        pts = np.loadtxt(out / "flow2d.csv", delimiter=",", skiprows=1)
        assert pts.shape == (200, 2)

    def test_melody_grammar_files(self, tmp_path, capsys):
        out = tmp_path / "songs"
        code, _, _ = run(["gen-data", "--task", "melody-grammar", "--n", "5",
                          "--out", str(out)], capsys)
        assert code == 0
        assert len(list(out.glob("*.notes"))) == 5

    def test_accomp_npz(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, _, _ = run(["gen-data", "--task", "accomp-toy", "--n", "4",
                          "--out", str(out)], capsys)
        assert code == 0
        data = np.load(out / "accomp_toy.npz")
        assert data["v"].shape[0] == 4

    def test_style_toy_npz(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = run(["gen-data", "--task", "style-toy", "--n", "3",
                               "--out", str(out)], capsys)
        assert code == 0
        assert stdout == f"wrote style-toy dataset to {out}\n"
        data = np.load(out / "style_toy.npz")
        assert data["phonemes"].shape[0] == data["tag"].shape[0] == data["x1"].shape[0] == 3


class TestConfigResolution:
    def test_config_file_supplies_values_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=150\nseed=3\n")
        out = tmp_path / "a"
        code, _, _ = run(["gen-data", "--task", "flow2d", "--config", str(cfg),
                          "--out", str(out)], capsys)
        assert code == 0
        assert np.loadtxt(out / "flow2d.csv", delimiter=",", skiprows=1).shape[0] == 150
        out2 = tmp_path / "b"
        code, _, _ = run(["gen-data", "--task", "flow2d", "--config", str(cfg),
                          "--n", "250", "--out", str(out2)], capsys)
        assert code == 0
        assert np.loadtxt(out2 / "flow2d.csv", delimiter=",", skiprows=1).shape[0] == 250

    def test_bad_config_line_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        code, _, err = run(["gen-data", "--task", "flow2d", "--config", str(cfg),
                            "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert "error" in err.lower()

    def test_non_integer_config_value_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps=abc\n")
        code, out, err = run(["train", "--model", "flow2d", "--config", str(cfg),
                              "--out", str(tmp_path / "f.vbnd")], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: bad value 'abc' for 'steps' in config\n"

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfesteps=2\n")
        code, out, err = run(["train", "--model", "melody", "--config", str(cfg),
                              "--out", str(tmp_path / "m.vbnd")], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}: not UTF-8 text\n"

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_raise_only_package_errors(self, tmp_path, data):
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_bytes(data)
        try:
            _read_config(cfg)
        except BandflowError:
            pass


SEEDED = {
    "train": ["train", "--model", "flow2d", "--steps", "1"],
    "gen-data": ["gen-data", "--task", "flow2d", "--n", "100"],
    "route-trace": ["route-trace"],
    "sample": ["sample", "--ckpt", "missing.vbnd"],
}


class TestRanges:
    """A seed below 0 or a count below 1 stops the command before it runs:
    as a flag it is a usage error (exit 1), in a config file a ConfigError
    (exit 2), each with one line on stderr and nothing written."""

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_negative_seed_flag_exits_one(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code, stdout, err = run(SEEDED[command] + ["--seed", "-1", "--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        assert err == "usage error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_negative_seed_in_config_exits_two(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=-1\n")
        out = tmp_path / "out"
        code, stdout, err = run(SEEDED[command] + ["--config", str(cfg), "--out", str(out)],
                                capsys)
        assert code == 2
        assert stdout == ""
        assert err == "error: bad value -1 for 'seed' in config; must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("task", ["accomp-toy", "style-toy", "melody-grammar", "flow2d"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_gen_data_count_below_one_exits_one(self, tmp_path, capsys, task, n):
        out = tmp_path / "d"
        code, stdout, err = run(["gen-data", "--task", task, "--n", n, "--out", str(out)],
                                capsys)
        minimum = 100 if task == "flow2d" else 1
        assert code == 1
        assert stdout == ""
        assert err == f"usage error: --n must be >= {minimum}, got {n}\n"
        assert not out.exists()

    def test_gen_data_flow2d_below_its_minimum_exits_one(self, tmp_path, capsys):
        out = tmp_path / "new"
        code, stdout, err = run(["gen-data", "--task", "flow2d", "--n", "50", "--out", str(out)],
                                capsys)
        assert code == 1
        assert stdout == ""
        assert err == "usage error: --n must be >= 100, got 50\n"
        assert not out.exists()

    def test_gen_data_flow2d_minimum_in_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n=50\n")
        out = tmp_path / "new"
        code, stdout, err = run(["gen-data", "--task", "flow2d", "--config", str(cfg),
                                 "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert err == "error: bad value 50 for 'n' in config; must be >= 100\n"
        assert not out.exists()

    def test_gen_data_failed_draw_creates_no_directory(self, tmp_path, capsys, monkeypatch):
        def failing(seed, n):
            raise DataError("draw failed")

        monkeypatch.setitem(cli_module.GENERATORS, "style-toy", failing)
        out = tmp_path / "new"
        code, stdout, err = run(["gen-data", "--task", "style-toy", "--out", str(out)], capsys)
        assert code == 2
        assert (stdout, err) == ("", "error: draw failed\n")
        assert not out.exists()

    def test_gen_data_count_in_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n=0\n")
        code, _, err = run(["gen-data", "--task", "melody-grammar", "--config", str(cfg),
                            "--out", str(tmp_path / "d")], capsys)
        assert code == 2
        assert err == "error: bad value 0 for 'n' in config; must be >= 1\n"

    def test_sample_count_below_one_exits_one(self, tmp_path, capsys):
        code, _, err = run(["sample", "--ckpt", "missing.vbnd", "--n", "0"], capsys)
        assert code == 1
        assert err == "usage error: --n must be >= 1, got 0\n"

    # counts numpy refuses before it allocates anything: 10**20 exceeds its
    # largest dimension, and 10**13 samples (146 TiB) the x86-64 address space
    @pytest.mark.parametrize("argv,n,message", [
        (["gen-data", "--task", "flow2d"], 10**20, "cannot hold {n} points in one array"),
        (["sample"], 10**20, "cannot hold {n} points in one array"),
        (["sample"], 10**13, "not enough memory for {n} points"),
    ])
    def test_oversize_count_exits_two(self, tmp_path, capsys, argv, n, message):
        if argv == ["sample"]:
            ck = tmp_path / "f.vbnd"
            save_checkpoint(MLPEstimator(2, 64, np.random.default_rng(0)).params, ck)
            argv = argv + ["--ckpt", str(ck)]
        out = tmp_path / "out"
        code, stdout, err = run(argv + ["--n", str(n), "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: {message.format(n=n)}\n"
        assert not out.exists()

    def test_gradcheck_zero_trials_exits_one(self, capsys):
        code, stdout, err = run(["gradcheck", "--trials", "0"], capsys)
        assert code == 1
        assert stdout == ""
        assert err == "usage error: --trials must be >= 1, got 0\n"

    @pytest.mark.parametrize("flag,value,minimum", [
        ("--steps", "0", 1), ("--steps", "-3", 1), ("--warmup", "-1", 0)])
    def test_train_steps_below_minimum_exits_one(self, tmp_path, capsys, flag, value,
                                                 minimum):
        ck = tmp_path / "s.vbnd"
        code, stdout, err = run(["train", "--model", "style", flag, value, "--out", str(ck)],
                                capsys)
        assert code == 1
        assert stdout == ""
        assert err == f"usage error: {flag} must be >= {minimum}, got {value}\n"
        assert not ck.exists()
        assert not ck.with_suffix(".losses.csv").exists()

    @pytest.mark.parametrize("key,value,minimum", [("steps", "0", 1), ("warmup", "-1", 0)])
    def test_train_steps_in_config_below_minimum_exits_two(self, tmp_path, capsys, key,
                                                          value, minimum):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key}={value}\n")
        ck = tmp_path / "s.vbnd"
        code, stdout, err = run(["train", "--model", "style", "--config", str(cfg),
                                 "--out", str(ck)], capsys)
        assert code == 2
        assert stdout == ""
        assert err == f"error: bad value {value} for {key!r} in config; must be >= {minimum}\n"
        assert not ck.exists()

    @pytest.mark.parametrize("gamma", ["-1", "nan", "inf"])
    def test_bad_gamma_exits_two_before_training(self, tmp_path, capsys, gamma):
        ck = tmp_path / "a.vbnd"
        code, stdout, err = run(["train", "--model", "accomp", "--gamma", gamma,
                                 "--out", str(ck)], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: cfg_scale must be finite and >= 0")
        assert err.count("\n") == 1
        assert not ck.exists()

    def test_zero_seed_is_accepted(self, tmp_path, capsys):
        code, _, _ = run(SEEDED["gen-data"] + ["--seed", "0", "--out", str(tmp_path)], capsys)
        assert code == 0


class TestUnreadOptions:
    """An option the command does not read stops it before it writes
    anything: a flag is a usage error (exit 1), a config key a ConfigError
    (exit 2), each with one line on stderr naming it."""

    @pytest.mark.parametrize("model,flags,named", [
        ("melody", ["--gamma", "-1", "--warmup", "-5", "--trace"], "--gamma, --trace, --warmup"),
        ("flow2d", ["--trace"], "--trace"),
        ("style", ["--gamma", "2"], "--gamma"),
        ("accomp", ["--warmup", "3"], "--warmup"),
    ])
    def test_train_flag_for_another_model_exits_one(self, tmp_path, capsys, model, flags, named):
        ck = tmp_path / "m.vbnd"
        code, stdout, err = run(["train", "--model", model, "--steps", "1", "--out", str(ck)]
                                + flags, capsys)
        assert code == 1
        assert stdout == ""
        assert err == f"usage error: {named} not used by train --model {model}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,key,user", [
        (["train", "--model", "flow2d"], "stpes", "train --model flow2d"),
        (["train", "--model", "flow2d"], "gamma", "train --model flow2d"),
        (["train", "--model", "melody"], "warmup", "train --model melody"),
        (["gen-data", "--task", "flow2d"], "steps", "gen-data"),
        (["sample", "--ckpt", "missing.vbnd"], "gamma", "sample"),
        (["route-trace"], "steps", "route-trace"),
        (["gradcheck"], "seed", "gradcheck"),
    ])
    def test_unread_config_key_exits_two(self, tmp_path, capsys, argv, key, user):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key}=2\n")
        out = tmp_path / "out"
        extra = [] if argv[0] == "gradcheck" else ["--out", str(out)]
        code, stdout, err = run(argv + ["--config", str(cfg)] + extra, capsys)
        assert code == 2
        assert stdout == ""
        assert err == f"error: config key {key!r} not used by {user}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]

    def test_eval_melody_takes_no_config(self, tmp_path, capsys):
        song = tmp_path / "a.notes"
        save_notes(NoteSequence(pitches=[60, 62, 64], durations=[1.0] * 3, tempo=120.0), song)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"out={tmp_path / 'r.csv'}\n")
        code, stdout, err = run(["eval-melody", str(song), str(song), "--config", str(cfg)],
                                capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith("usage error: unrecognized arguments: --config")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.notes", "c.cfg"]

    def test_reading_an_unlisted_option_fails_at_once(self):
        opt = Options(build_parser().parse_args(["train", "--model", "flow2d"]))
        with pytest.raises(KeyError, match="warmup"):
            opt.get("warmup", 0, int)


class TestConfigBooleans:
    def _options(self, tmp_path, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        args = build_parser().parse_args(["sample", "--ckpt", "x.vbnd", "--config", str(cfg)])
        return Options(args)

    @pytest.mark.parametrize("text,value", [
        ("true", True), ("True", True), ("1", True), ("yes", True),
        ("false", False), ("FALSE", False), ("0", False), ("no", False),
    ])
    def test_spellings(self, tmp_path, text, value):
        assert self._options(tmp_path, f"trace={text}\n").get("trace", None, bool) is value

    def test_other_value_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="maybe"):
            self._options(tmp_path, "trace=maybe\n").get("trace", False, bool)

    def test_trace_false_writes_no_trace(self, tmp_path, capsys):
        ck = tmp_path / "a.vbnd"
        code, _, _ = run(["train", "--model", "flow2d", "--steps", "2", "--out", str(ck)],
                         capsys)
        assert code == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("trace=false\nn=5\n")
        samples = tmp_path / "s.csv"
        code, _, _ = run(["sample", "--ckpt", str(ck), "--config", str(cfg),
                          "--out", str(samples)], capsys)
        assert code == 0
        assert samples.exists()
        assert not samples.with_suffix(".trace.csv").exists()

    def test_bad_boolean_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("trace=sometimes\n")
        code, _, err = run(["sample", "--ckpt", str(tmp_path / "none.vbnd"),
                            "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error:") and "sometimes" in err


class TestTrainAndSample:
    def test_flow2d_train_deterministic_and_sample(self, tmp_path, capsys):
        ck1 = tmp_path / "a.vbnd"
        ck2 = tmp_path / "b.vbnd"
        for ck in (ck1, ck2):
            code, _, _ = run(["train", "--model", "flow2d", "--steps", "30",
                              "--seed", "5", "--out", str(ck)], capsys)
            assert code == 0
        assert ck1.read_bytes() == ck2.read_bytes()
        assert ck1.with_suffix(".losses.csv").exists()

        samples = tmp_path / "s.csv"
        code, out, _ = run(["sample", "--ckpt", str(ck1), "--n", "50",
                            "--out", str(samples), "--trace"], capsys)
        assert code == 0
        pts = np.loadtxt(samples, delimiter=",", skiprows=1)
        assert pts.shape == (50, 2)
        with open(samples.with_suffix(".trace.csv")) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "t", "mean_abs_x", "mean_abs_v"]
        assert len(rows) == 1 + 25

    def test_accomp_train_deterministic(self, tmp_path, capsys):
        ck1 = tmp_path / "a.vbnd"
        ck2 = tmp_path / "b.vbnd"
        for ck in (ck1, ck2):
            code, _, _ = run(["train", "--model", "accomp", "--steps", "3",
                              "--seed", "7", "--out", str(ck)], capsys)
            assert code == 0
        assert ck1.read_bytes() == ck2.read_bytes()

    def test_accomp_trace_and_route_trace_share_header(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("steps=2\n")
        ck = tmp_path / "a.vbnd"
        code, _, _ = run(["train", "--model", "accomp", "--config", str(cfg),
                          "--trace", "--out", str(ck)], capsys)
        assert code == 0
        route = tmp_path / "route.csv"
        code, _, _ = run(["route-trace", "--out", str(route)], capsys)
        assert code == 0
        headers = [p.read_text().splitlines()[0]
                   for p in (ck.with_suffix(".route.csv"), route)]
        assert headers == [",".join(ROUTE_COLUMNS)] * 2

    @pytest.mark.parametrize("model", ["style", "melody"])
    def test_train_from_config_writes_outputs(self, tmp_path, capsys, model):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("steps=2\n")
        ck = tmp_path / f"{model}.vbnd"
        code, out, err = run(["train", "--model", model, "--config", str(cfg),
                              "--out", str(ck)], capsys)
        assert code == 0
        assert err == ""
        assert ck.exists()
        assert len(ck.with_suffix(".losses.csv").read_text().splitlines()) == 1 + 2
        lines = out.splitlines()
        assert lines[-1] == f"checkpoint: {ck}"
        if model == "melody":
            assert ck.with_suffix(".report.csv").exists()
            assert len(lines) == 3
            assert lines[0].startswith("held-out pitch accuracy: ")
            assert lines[1].startswith("mean report: KA=")
        else:
            assert len(lines) == 1

    # train --model melody's report, which scores each held-out song in its
    # given key (eval-melody searches the reference's key instead)
    MELODY_GOLDEN = ["held-out pitch accuracy: 0.3156",
                     "mean report: KA=0.3142, APD=1.8781, TD=2.7324, PD=0.4313, DD=0.1437, "
                     "MD=90.6386"]

    def test_melody_report_golden_stdout(self, tmp_path, capsys):
        ck = tmp_path / "m.vbnd"
        code, out, err = run(["train", "--model", "melody", "--steps", "30",
                              "--out", str(ck)], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == self.MELODY_GOLDEN + [f"checkpoint: {ck}"]

    def test_sample_missing_checkpoint_exits_two(self, tmp_path, capsys):
        code, _, err = run(["sample", "--ckpt", str(tmp_path / "none.vbnd")], capsys)
        assert code == 2

    def test_sample_truncated_checkpoint_exits_two(self, tmp_path, capsys):
        ck = tmp_path / "cut.vbnd"
        save_checkpoint(MLPEstimator(2, 64, np.random.default_rng(0)).params, ck)
        ck.write_bytes(ck.read_bytes()[:-7])
        code, out, err = run(["sample", "--ckpt", str(ck), "--n", "4",
                              "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {ck}: truncated payload")

    def test_sample_checkpoint_with_a_repeated_name_exits_two(self, tmp_path, capsys):
        ck = tmp_path / "dup.vbnd"
        save_checkpoint(MLPEstimator(2, 64, np.random.default_rng(0)).params, ck)
        blob = ck.read_bytes()
        (count,) = struct.unpack_from("<I", blob, 8)
        name = b"mlp.b0"
        ck.write_bytes(blob[:8] + struct.pack("<I", count + 1) + blob[12:]
                       + struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, 64)
                       + np.ones(64, dtype="<f4").tobytes())
        out_csv = tmp_path / "s.csv"
        code, out, err = run(["sample", "--ckpt", str(ck), "--n", "3", "--out", str(out_csv)],
                             capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "'mlp.b0'" in err and "repeats" in err
        assert not out_csv.exists()

    def test_sample_checkpoint_with_an_extra_tensor_exits_two(self, tmp_path, capsys):
        store = MLPEstimator(2, 64, np.random.default_rng(0)).params
        store.add("extra", np.ones(3))
        ck = tmp_path / "extra.vbnd"
        save_checkpoint(store, ck)
        out_csv = tmp_path / "s.csv"
        code, out, err = run(["sample", "--ckpt", str(ck), "--n", "3", "--out", str(out_csv)],
                             capsys)
        assert (code, out) == (2, "")
        assert err == "error: checkpoint holds tensor 'extra', which the store lacks\n"
        assert not out_csv.exists()


class TestEvalMelody:
    def _write_songs(self, directory, seed=0):
        directory.mkdir()
        rng = np.random.default_rng(seed)
        for i in range(3):
            pitches = (60 + rng.integers(0, 12, size=8)).tolist()
            ns = NoteSequence(pitches=pitches, durations=[1.0] * 8, tempo=120.0)
            save_notes(ns, directory / f"song{i:04d}.notes")

    def test_same_directory_perfect_scores(self, tmp_path, capsys):
        d = tmp_path / "songs"
        self._write_songs(d)
        out_csv = tmp_path / "report.csv"
        code, out, _ = run(["eval-melody", str(d), str(d), "--out", str(out_csv)],
                           capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(REPORT_COLUMNS)
        summary = [float(v) for v in rows[-1]]
        by = dict(zip(REPORT_COLUMNS, summary))
        assert by["KA"] == pytest.approx(1.0)
        assert by["APD"] == pytest.approx(0.0)
        assert by["TD"] == pytest.approx(0.0)
        assert by["PD"] == pytest.approx(1.0)
        assert by["DD"] == pytest.approx(1.0)
        assert by["MD"] == pytest.approx(0.0)
        assert out_csv.exists()

    def test_count_mismatch_exits_two(self, tmp_path, capsys):
        d = tmp_path / "a"
        self._write_songs(d)
        single = tmp_path / "one.notes"
        save_notes(NoteSequence(pitches=[60], durations=[1.0], tempo=120.0), single)
        code, _, err = run(["eval-melody", str(d), str(single)], capsys)
        assert code == 2

    def test_malformed_notes_line_exits_two(self, tmp_path, capsys):
        d = tmp_path / "songs"
        self._write_songs(d)
        bad = d / "song0001.notes"
        bad.write_text(bad.read_text() + "bogus\n")
        line = len(bad.read_text().splitlines())
        code, out, err = run(["eval-melody", str(d), str(d)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {bad}:{line}: malformed line 'bogus'")


    def _pair(self, tmp_path, line):
        ref = tmp_path / "ref.notes"
        save_notes(NoteSequence(pitches=[60, 64, 67], durations=[1.0, 1.0, 2.0],
                                tempo=120.0), ref)
        gen = tmp_path / "gen.notes"
        gen.write_text(f"tempo=120\n60,1\n{line}\n")
        return gen, ref

    @pytest.mark.filterwarnings("error")   # a warning would be a second stderr line
    @pytest.mark.parametrize("line", ["62,1e300", "62,1e308", "62,1e8"])
    def test_overlong_note_exits_two(self, tmp_path, capsys, line):
        gen, ref = self._pair(tmp_path, line)
        for argv in ([str(gen), str(ref)], [str(ref), str(gen)]):
            code, out, err = run(["eval-melody", *argv], capsys)
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1
            assert err.startswith(f"error: {argv[0]} vs {argv[1]}: ")

    @pytest.mark.parametrize("slow", [("gen",), ("gen", "ref")])
    def test_overflowing_song_length_exits_two(self, tmp_path, capsys, slow):
        # a positive tempo so small that the song's length in seconds is inf
        paths = {}
        for side in ("gen", "ref"):
            paths[side] = tmp_path / f"{side}.notes"
            tempo = "1e-320" if side in slow else "120"
            paths[side].write_text(f"tempo={tempo}\n60,1\n64,1\n67,2\n")
        code, out, err = run(["eval-melody", str(paths["gen"]), str(paths["ref"])], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {paths['gen']} vs {paths['ref']}: "
                       "song length overflows at tempo 1e-320\n")

    def test_overflowing_song_length_in_directory_exits_two(self, tmp_path, capsys):
        gen, ref = tmp_path / "gen", tmp_path / "ref"
        self._write_songs(gen)
        self._write_songs(ref, seed=1)
        slow = gen / "song0001.notes"
        slow.write_text(slow.read_text().replace("tempo=120", "tempo=1e-320"))
        code, out, err = run(["eval-melody", str(gen), str(ref)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {slow} vs {ref / 'song0001.notes'}: "
                       "song length overflows at tempo 1e-320\n")

    def test_negative_pitch_exits_two(self, tmp_path, capsys):
        gen, ref = self._pair(tmp_path, "-1,1")
        code, out, err = run(["eval-melody", str(gen), str(ref)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {gen}: line 3: pitch -1 outside [0, 127]; a rest is written R\n"

    def test_no_valid_pairs_exits_two(self, tmp_path, capsys):
        # a flat pitch-class histogram (all twelve classes, equal durations)
        # has no key correlation, so every pair is skipped
        d = tmp_path / "flat"
        d.mkdir()
        for i in range(2):
            save_notes(NoteSequence(pitches=list(range(60 + i, 72 + i)), durations=[1.0] * 12,
                                    tempo=120.0), d / f"song{i}.notes")
        code, out, err = run(["eval-melody", str(d), str(d)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: no valid song pairs\n"


class TestEvalMelodyDirectories:
    """Two directories pair their songs by file name; the scores of a
    directory are those of its pairs run one at a time."""

    @staticmethod
    def _song(path, pitches, beats=1.0):
        save_notes(NoteSequence(pitches=list(pitches), durations=[beats] * len(pitches),
                                tempo=120.0), path)

    def _dirs(self, tmp_path, gen_names, ref_names):
        rng = np.random.default_rng(5)
        for side, names in (("gen", gen_names), ("ref", ref_names)):
            (tmp_path / side).mkdir()
            for i, name in enumerate(names):
                self._song(tmp_path / side / name, 60 + rng.integers(0, 12, size=4 + 3 * i))
        return str(tmp_path / "gen"), str(tmp_path / "ref")

    @pytest.mark.parametrize("gen_names,ref_names,missing", [
        (["a.notes", "b.notes"], ["b.notes", "c.notes"], "gen/a.notes"),
        (["a.notes", "c.notes"], ["a.notes", "b.notes", "c.notes"], "ref/b.notes"),
        ([], ["a.notes"], "ref/a.notes"),
    ])
    def test_unmatched_name_exits_two(self, tmp_path, capsys, gen_names, ref_names, missing):
        gen, ref = self._dirs(tmp_path, gen_names, ref_names)
        code, out, err = run(["eval-melody", gen, ref], capsys)
        assert (code, out) == (2, "")
        other = ref if missing.startswith("gen") else gen
        assert err == f"error: {tmp_path / missing}: no song of that name in {other}\n"

    def _scored(self, argv, capsys):
        code, out, err = run(["eval-melody", *argv], capsys)
        assert (code, err) == (0, "")
        return out.splitlines()

    def test_rows_equal_each_pair_alone(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        (tmp_path / "gen").mkdir()
        (tmp_path / "ref").mkdir()
        # one pair has a flat pitch-class histogram, so it is left out
        for i, n in enumerate([5, 23, 9, 40, 14]):
            ref = 55 + rng.integers(0, 24, size=n)
            gen = np.clip(ref + rng.integers(-2, 3, size=n), 0, 127)
            self._song(tmp_path / "gen" / f"s{i}.notes", gen, beats=0.5)
            self._song(tmp_path / "ref" / f"s{i}.notes",
                       range(60, 72) if i == 2 else ref, beats=0.5)
        lines = self._scored([str(tmp_path / "gen"), str(tmp_path / "ref")], capsys)
        alone = []
        for i in range(5):
            argv = [str(tmp_path / side / f"s{i}.notes") for side in ("gen", "ref")]
            if i == 2:
                assert run(["eval-melody", *argv], capsys)[0] == 2
                continue
            single = self._scored(argv, capsys)
            assert len(single) == 3 and single[0] == lines[0]
            alone.append(single[1])
        assert lines[1:-1] == alone
        rows = np.array([row.split(",") for row in alone], dtype=float)
        summary = np.array(lines[-1].split(","), dtype=float)
        np.testing.assert_allclose(summary, rows.mean(axis=0), rtol=0, atol=1e-6)

    def test_directory_runs_the_longest_pairs_diagonals_once(self, tmp_path, capsys,
                                                               monkeypatch):
        """The DTWs of a directory advance together: two in-place np.minimum
        passes per diagonal step, so the calls follow the most diagonals of
        one pair, max(n + m - 1), not the sum a loop per pair would make."""
        gen, ref = self._dirs(tmp_path, [f"s{i}.notes" for i in range(4)],
                              [f"s{i}.notes" for i in range(4)])
        diagonals = []
        for i in range(4):
            a, b = (expand_sixteenths(load_notes(Path(d) / f"s{i}.notes")) for d in (gen, ref))
            diagonals.append(a.size + b.size - 1)
        calls = [0]
        minimum = np.minimum

        def counting(*args, **kwargs):
            calls[0] += "out" in kwargs        # the DTW's in-place passes
            return minimum(*args, **kwargs)

        monkeypatch.setattr(np, "minimum", counting)
        self._scored([gen, ref], capsys)
        assert 2 * (max(diagonals) - 1) <= calls[0] <= 2 * max(diagonals)
        assert 2 * max(diagonals) < 2 * sum(d - 1 for d in diagonals)

    # eval-melody's stdout on _golden_dirs, byte for byte (csv writes \r\n)
    GOLDEN = ("KA,APD,TD,PD,DD,MD\r\n"
              "0.413512,0.375000,0.750000,0.625000,0.750000,18.777778\r\n"
              "0.103432,0.375000,1.000000,0.625000,0.750000,24.243636\r\n"
              "0.402064,0.375000,1.000000,0.625000,0.750000,20.830144\r\n"
              "0.306336,0.375000,0.916667,0.625000,0.750000,21.283853\r\n")

    @staticmethod
    def _golden_dirs(tmp_path):
        """Three grammar songs as references; each generated song raises
        every third pitch a semitone and stretches every fourth note by half."""
        for side in ("gen", "ref"):
            (tmp_path / side).mkdir()
        for i, song in enumerate(gen_melody_grammar(5, 3)):
            ref = song.notes
            gen = NoteSequence(
                pitches=[p + (k % 3 == 0) for k, p in enumerate(ref.pitches)],
                durations=[d * (1.5 if k % 4 == 0 else 1.0) for k, d in enumerate(ref.durations)],
                tempo=ref.tempo)
            save_notes(gen, tmp_path / "gen" / f"song{i}.notes")
            save_notes(ref, tmp_path / "ref" / f"song{i}.notes")
        return str(tmp_path / "gen"), str(tmp_path / "ref")

    def test_golden_stdout(self, tmp_path, capsys):
        gen, ref = self._golden_dirs(tmp_path)
        assert run(["eval-melody", gen, ref], capsys) == (0, self.GOLDEN, "")

    def test_song_without_tempo_names_the_pair(self, tmp_path, capsys):
        gen, ref = self._dirs(tmp_path, ["a.notes", "b.notes"], ["a.notes", "b.notes"])
        lost = Path(ref) / "b.notes"
        lost.write_text(lost.read_text().replace("tempo=120\n", ""))
        code, out, err = run(["eval-melody", gen, ref], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {Path(gen) / 'b.notes'} vs {lost}: "
                       "tempo required to convert beats to seconds\n")

    def test_failed_out_write_prints_nothing(self, tmp_path, capsys):
        gen, ref = self._dirs(tmp_path, ["a.notes"], ["a.notes"])
        out_csv = tmp_path / "nodir" / "x.csv"
        code, out, err = run(["eval-melody", gen, ref, "--out", str(out_csv)], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(out_csv) in err


class TestParserReuse:
    """cli_dispatch builds its parser once per process; a run of calls in one
    process behaves as each call in a fresh process."""

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")   # argparse wraps usage to the terminal width
        songs = tmp_path / "songs"
        songs.mkdir()
        save_notes(NoteSequence(pitches=[60, 64, 67, 62], durations=[1.0, 0.5, 0.5, 2.0],
                                tempo=120.0), songs / "a.notes")
        calls = [
            ["train", "--model", "nope"],
            ["eval-melody", str(songs), str(songs)],
            ["train", "--model", "flow2d", "--steps", "1", "--out", str(tmp_path / "f.vbnd")],
            ["gen-data", "--task", "flow2d", "--n", "100", "--out", str(tmp_path / "d")],
        ]
        env = dict(os.environ, COLUMNS="80",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        fresh = []
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "bandflow.cli", *argv],
                                  capture_output=True, text=True, env=env, cwd=tmp_path)
            fresh.append((proc.returncode, proc.stdout.replace("\r\n", "\n"), proc.stderr))
        monkeypatch.chdir(tmp_path)
        in_process = []
        for argv in calls:
            code, out, err = run(argv, capsys)
            in_process.append((code, out.replace("\r\n", "\n"), err))
        assert [c for c, _, _ in in_process] == [1, 0, 0, 0]
        assert in_process == fresh

    def test_no_flag_leaks_into_a_later_parse(self):
        fresh = build_parser.__wrapped__
        for argv in (["train", "--model", "style", "--warmup", "3", "--seed", "2"],
                     ["sample", "--ckpt", "x.vbnd", "--trace", "--n", "4"],
                     ["gen-data", "--task", "flow2d", "--out", "elsewhere"]):
            build_parser().parse_args(argv)
        for argv in (["train", "--model", "flow2d"], ["sample", "--ckpt", "y.vbnd"],
                     ["gen-data", "--task", "style-toy"], ["eval-melody", "g", "r"]):
            assert vars(build_parser().parse_args(argv)) == vars(fresh().parse_args(argv))
        assert build_parser() is build_parser()


class TestEvalF0:
    def test_reports_error_fraction(self, tmp_path, capsys):
        t = np.arange(5)
        gt = np.stack([t, [100.0, 100.0, 0.0, 200.0, 50.0]], axis=1)
        gen = np.stack([t, [100.0, 130.0, 10.0, 0.0, 55.0]], axis=1)
        g_path, r_path = tmp_path / "g.csv", tmp_path / "r.csv"
        np.savetxt(g_path, gen, delimiter=",")
        np.savetxt(r_path, gt, delimiter=",")
        code, out, _ = run(["eval-f0", str(g_path), str(r_path)], capsys)
        assert code == 0
        assert out.strip() == "FFE=0.600000"

    @pytest.mark.parametrize("text", ["100.0\n0.0\n", "0,abc\n1,100\n"],
                             ids=["one_column", "non_numeric"])
    def test_unreadable_track_exits_two(self, tmp_path, capsys, text):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("0,100\n1,100\n")
        bad.write_text(text)
        for argv in ([str(bad), str(good)], [str(good), str(bad)]):
            code, out, err = run(["eval-f0", *argv], capsys)
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and err.startswith(f"error: {bad}: ")


    @pytest.mark.filterwarnings("error")   # a warning would be a second stderr line
    @pytest.mark.parametrize("text", ["", "\n", "# frame,f0\n"],
                             ids=["empty", "blank_line", "comment_only"])
    def test_track_without_data_exits_two(self, tmp_path, capsys, text):
        good, empty = tmp_path / "good.csv", tmp_path / "empty.csv"
        good.write_text("0,100\n1,100\n")
        empty.write_text(text)
        code, out, err = run(["eval-f0", str(empty), str(good)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {empty}: no data\n"

    @pytest.mark.filterwarnings("error")   # a warning would be a second stderr line
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_f0_exits_two(self, tmp_path, capsys, value):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("0,100\n1,100\n2,200\n")
        bad.write_text(f"0,100\n1,{value}\n2,200\n")
        for argv in ([str(bad), str(good)], [str(good), str(bad)]):
            code, out, err = run(["eval-f0", *argv], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: {bad}: row 2: F0 {value} is not finite\n"

    @pytest.mark.filterwarnings("error")   # a warning would be a second stderr line
    def test_negative_f0_exits_two(self, tmp_path, capsys):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("0,100\n1,100\n2,200\n")
        bad.write_text("0,100\n1,-50\n2,200\n")
        for argv in ([str(bad), str(good)], [str(good), str(bad)]):
            code, out, err = run(["eval-f0", *argv], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: {bad}: row 2: F0 -50.0 is negative\n"


class TestGradcheckCommand:
    def test_passes_with_small_trial_count(self, capsys):
        code, out, _ = run(["gradcheck", "--trials", "2"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "matmul" in out
