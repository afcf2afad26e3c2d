"""Command-line surface: data generation, training, sampling, evaluation.

Config files are plain ``key=value`` lines; explicit flags override file
values.  Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import warnings
from pathlib import Path

import numpy as np

from . import train as tr
from .checkpoint import load_into, save_checkpoint
from .errors import BandflowError, ConfigError, DataError
from .flow import TRACE_COLUMNS, FlowConfig, MLPEstimator
from .gradcheck import gradcheck_all
from .melody import load_notes, save_notes
from .metrics import REPORT_COLUMNS, evaluate_pairs, f0_frame_error
from .synth import (FLOW2D_MIN_POINTS, gen_flow2d, gen_melody_grammar, gen_style_toy,
                    gen_toy_pairs)

# task -> the number of items it writes by default
TASKS = {"flow2d": tr.FLOW2D_DATA_N, "accomp-toy": tr.ACCOMP_PAIRS,
         "melody-grammar": tr.MELODY_SONGS, "style-toy": tr.STYLE_SAMPLES}
# task -> its generator, called as gen(seed, n)
GENERATORS = {
    "flow2d": gen_flow2d,
    "accomp-toy": functools.partial(gen_toy_pairs, n_tags=tr.ACCOMP_TAGS),
    "melody-grammar": gen_melody_grammar,
    "style-toy": functools.partial(gen_style_toy, n_tags=tr.STYLE_TAGS),
}
# model -> the number of training steps it takes by default
MODELS = {"flow2d": 1500, "style": 200, "accomp": 300, "melody": 400}
# command -> the options it reads, from a flag or from the config file
READS = {
    "gen-data": ("seed", "n", "out"),
    "train": ("seed", "steps", "out"),
    "sample": ("seed", "n", "out", "trace"),
    "route-trace": ("seed", "out"),
    "gradcheck": ("trials",),
}
# model -> the train options it reads besides READS["train"]
MODEL_READS = {"flow2d": (), "style": ("warmup",), "accomp": ("gamma", "trace"), "melody": ()}


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _read_config(path):
    try:
        with open(path, encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    cfg = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}; expected key=value")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(text):
    try:
        return _BOOLS[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected true/false/1/0/yes/no, got {text!r}") from None


class Options:
    """Flag > config-file > default resolution over the options a command
    reads (READS, and MODEL_READS for train).

    A train flag the chosen model does not read is a usage error and a
    config key the command does not read a ConfigError, both raised here,
    before the command writes anything.
    """

    def __init__(self, args):
        self._args = vars(args)
        self._reads, user = READS[args.command], args.command
        if user == "train":
            self._reads += MODEL_READS[args.model]
            user = f"train --model {args.model}"
            others = {k for keys in MODEL_READS.values() for k in keys} - set(self._reads)
            stray = [f"--{k}" for k in sorted(others) if self._args[k] is not None]
            if stray:
                raise _Usage(f"{', '.join(stray)} not used by {user}")
        self._cfg = _read_config(args.config) if args.config else {}
        for key in self._cfg:
            if key not in self._reads:
                raise ConfigError(f"config key {key!r} not used by {user}")

    def get(self, key, default, cast=str):
        if key not in self._reads:
            raise KeyError(f"option {key!r} is read but not listed in READS/MODEL_READS")
        v = self._args.get(key)
        if v is not None:
            return v
        if key in self._cfg:
            text = self._cfg[key]
            if cast is bool:
                return _parse_bool(text)
            try:
                return cast(text)
            except ValueError:
                raise ConfigError(f"bad value {text!r} for {key!r} in config") from None
        return default

    def at_least(self, key, default, minimum):
        """An integer that must be >= minimum: a flag below it is a usage
        error, a config value below it a ConfigError."""
        value = self.get(key, default, int)
        if value < minimum:
            if self._args.get(key) is not None:
                raise _Usage(f"--{key} must be >= {minimum}, got {value}")
            raise ConfigError(f"bad value {value} for {key!r} in config; must be >= {minimum}")
        return value


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing keeps no
    state between calls, and building it costs more than a small command."""
    parser = _Parser(prog="bandflow")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    common(p)
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--n", type=int)

    p = sub.add_parser("train", help="run a toy training pipeline")
    common(p)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--trace", action="store_true", default=None,
                   help="also write a routing/sampling trace CSV")
    p.add_argument("--warmup", type=int)

    p = sub.add_parser("sample", help="Euler-sample a trained 2-D flow model")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--trace", action="store_true", default=None)

    p = sub.add_parser("eval-melody", help="melody metrics for files or directories")
    p.add_argument("generated")
    p.add_argument("reference")
    p.add_argument("--out")

    p = sub.add_parser("eval-f0", help="F0 frame error between two CSV tracks")
    p.add_argument("generated")
    p.add_argument("reference")

    p = sub.add_parser("route-trace", help="dump expert-routing decisions")
    common(p)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--config")
    p.add_argument("--trials", type=int)
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_gen_data(args):
    opt = Options(args)
    seed = opt.at_least("seed", 0, 0)
    task = args.task
    n = opt.at_least("n", TASKS[task], FLOW2D_MIN_POINTS if task == "flow2d" else 1)
    out = Path(opt.get("out", "data", str))
    data = GENERATORS[task](seed, n)      # before mkdir: a failed draw writes nothing
    out.mkdir(parents=True, exist_ok=True)
    if task == "flow2d":
        np.savetxt(out / "flow2d.csv", data, delimiter=",", header="x,y", comments="")
    elif task == "accomp-toy":
        np.savez(out / "accomp_toy.npz",
                 v=np.stack([p.v for p in data]),
                 a=np.stack([p.a for p in data]),
                 tag=np.array([p.tag for p in data]))
    elif task == "melody-grammar":
        for i, song in enumerate(data):
            save_notes(song.notes, out / f"song{i:04d}.notes")
    else:
        np.savez(out / "style_toy.npz",
                 phonemes=np.stack([s.phonemes for s in data]),
                 tag=np.array([s.tag for s in data]),
                 x1=np.stack([s.x1 for s in data]))
    print(f"wrote {task} dataset to {out}")
    return 0


def _cmd_train(args):
    opt = Options(args)
    seed = opt.at_least("seed", 0, 0)
    steps = opt.at_least("steps", MODELS[args.model], 1)
    out = opt.get("out", f"{args.model}.vbnd", str)
    if args.model == "flow2d":
        model, losses, _ = tr.train_flow2d(seed=seed, steps=steps)
    elif args.model == "style":
        warmup = opt.at_least("warmup", 0, 0)
        model, losses, _ = tr.train_style_predictor(seed=seed, steps=steps,
                                                    warmup_steps=warmup)
    elif args.model == "accomp":
        gamma = opt.get("gamma", 1.0, float)
        FlowConfig(cfg_scale=gamma)      # reject a bad --gamma before training, not after
        trace = opt.get("trace", False, bool)
        model, losses, _, (_, held) = tr.train_accomp(seed=seed, steps=steps)
    else:
        model, losses, (_, held) = tr.train_melody(seed=seed, steps=steps)
    save_checkpoint(model.params, out)
    tr.write_csv(str(Path(out).with_suffix(".losses.csv")), ["step", "loss"],
                 list(enumerate(losses)))
    if args.model == "accomp":
        corr, _ = tr.eval_accomp(model, held, n_tags=model.n_tags, seed=seed, gamma=gamma)
        print(f"held-out correlation (gamma={gamma:g}): {corr:.4f}")
        if trace:
            rows = tr.route_trace_rows(model, held[0])
            tr.write_csv(str(Path(out).with_suffix(".route.csv")), tr.ROUTE_COLUMNS, rows)
    elif args.model == "melody":
        acc, mean_row, rows = tr.melody_report(model, held)
        report_csv = str(Path(out).with_suffix(".report.csv"))
        tr.write_csv(report_csv, list(REPORT_COLUMNS), rows + [mean_row])
        print(f"held-out pitch accuracy: {acc:.4f}")
        print("mean report: " + ", ".join(
            f"{c}={v:.4f}" for c, v in zip(REPORT_COLUMNS, mean_row)))
    print(f"checkpoint: {out}")
    return 0


def _cmd_sample(args):
    opt = Options(args)
    seed = opt.at_least("seed", 0, 0)
    n = opt.at_least("n", 2000, 1)
    out = opt.get("out", "samples.csv", str)
    trace = [] if opt.get("trace", False, bool) else None
    est = MLPEstimator(2, tr.FLOW2D_HIDDEN, np.random.default_rng(0))
    load_into(est.params, args.ckpt)
    samples = tr.sample_flow2d(est, n, seed=seed, trace=trace)
    np.savetxt(out, samples, delimiter=",", header="x,y", comments="")
    if trace is not None:
        tr.write_csv(str(Path(out).with_suffix(".trace.csv")), TRACE_COLUMNS, trace)
    print(f"wrote {n} samples to {out}")
    return 0


def _note_files(path):
    p = Path(path)
    if p.is_dir():
        return sorted(p.glob("*.notes"))
    return [p]


def _song_pairs(generated, reference):
    """(generated, reference) song files: two directories pair by file name,
    anything else by sorted position."""
    gen_files, ref_files = _note_files(generated), _note_files(reference)
    if Path(generated).is_dir() and Path(reference).is_dir():
        gen_names = {f.name for f in gen_files}
        lone = sorted(gen_names ^ {f.name for f in ref_files})
        if lone:
            side, other = ((generated, reference) if lone[0] in gen_names
                           else (reference, generated))
            raise BandflowError(f"{Path(side) / lone[0]}: no song of that name in {other}")
    elif len(gen_files) != len(ref_files):
        raise BandflowError(
            f"{len(gen_files)} generated vs {len(ref_files)} reference songs")
    return list(zip(gen_files, ref_files))


def _cmd_eval_melody(args):
    pairs = _song_pairs(args.generated, args.reference)
    loaded = ((load_notes(g), load_notes(r), None, f"{g} vs {r}") for g, r in pairs)
    rows = [report.row() for report in evaluate_pairs(loaded)]
    if not rows:
        raise BandflowError("no valid song pairs")
    summary = np.asarray(rows).mean(axis=0).tolist()
    table = [[f"{v:.6f}" for v in row] for row in rows + [summary]]
    if args.out:
        tr.write_csv(args.out, list(REPORT_COLUMNS), table)
    writer = csv.writer(sys.stdout)
    writer.writerow(REPORT_COLUMNS)
    writer.writerows(table)
    return 0


def _read_f0(path):
    """The second column of a numeric CSV: F0 per frame, 0 when unvoiced;
    a non-finite or negative F0 is a DataError naming the file and row."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # empty input, reported below
            track = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as e:
        raise DataError(f"{path}: not a numeric CSV: {e}") from None
    if track.size == 0:
        raise DataError(f"{path}: no data")
    if track.shape[1] < 2:
        raise DataError(f"{path}: expected at least 2 columns, got {track.shape[1]}")
    f0 = track[:, 1]
    bad = np.flatnonzero(~np.isfinite(f0))
    if bad.size:
        raise DataError(f"{path}: row {bad[0] + 1}: F0 {f0[bad[0]]} is not finite")
    bad = np.flatnonzero(f0 < 0)
    if bad.size:
        raise DataError(f"{path}: row {bad[0] + 1}: F0 {f0[bad[0]]} is negative")
    return f0


def _cmd_eval_f0(args):
    ffe = f0_frame_error(_read_f0(args.generated), _read_f0(args.reference))
    print(f"FFE={ffe:.6f}")
    return 0


def _cmd_route_trace(args):
    opt = Options(args)
    seed = opt.at_least("seed", 0, 0)
    out = opt.get("out", "route.csv", str)
    model, _, _, (_, held) = tr.train_accomp(seed=seed, steps=5)
    rows = tr.route_trace_rows(model, held[0])
    tr.write_csv(out, tr.ROUTE_COLUMNS, rows)
    print(f"wrote routing trace to {out}")
    return 0


def _cmd_gradcheck(args):
    opt = Options(args)
    trials = opt.at_least("trials", 20, 1)
    worst = gradcheck_all(trials=trials)
    failed = False
    for name in sorted(worst):
        status = "ok" if worst[name] < 1e-4 else "FAIL"
        failed |= status == "FAIL"
        print(f"{name:20s} worst rel err {worst[name]:.3e}  {status}")
    return 2 if failed else 0


COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "sample": _cmd_sample,
    "eval-melody": _cmd_eval_melody,
    "eval-f0": _cmd_eval_f0,
    "route-trace": _cmd_route_trace,
    "gradcheck": _cmd_gradcheck,
}


def cli_dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](args)
    except _Usage as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except BandflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
