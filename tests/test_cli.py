import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bandflow.checkpoint import save_checkpoint
from bandflow.cli import Options, _read_config, build_parser, cli_dispatch
from bandflow.errors import BandflowError, ConfigError
from bandflow.flow import MLPEstimator
from bandflow.melody import NoteSequence, save_notes
from bandflow.metrics import REPORT_COLUMNS
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
        assert code == 1
        assert stdout == ""
        assert err == f"usage error: --n must be >= 1, got {n}\n"
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
        code, _, _ = run(["route-trace", "--config", str(cfg), "--out", str(route)], capsys)
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


class TestGradcheckCommand:
    def test_passes_with_small_trial_count(self, capsys):
        code, out, _ = run(["gradcheck", "--trials", "2"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "matmul" in out
