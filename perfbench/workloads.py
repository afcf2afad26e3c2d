"""The three closed-loop workloads: train, generate and eval-melody.

Each workload is driven by one client in one process.  Requests come in
cycles: a cycle holds a fixed set of requests, and the seed decides their
order and their inputs.  Runs are made of whole cycles, so every run of a
workload times the same mix of request sizes, whatever the seed.

Every bandflow function is looked up on its module at call time, so the
traced run's wrappers see the calls and the plain run calls the originals.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import layers
import refdtw


def derive_seed(*keys):
    """A 31-bit seed that is a pure function of the workload seed and keys."""
    return int(np.random.default_rng([int(k) for k in keys]).integers(2 ** 31))


class Workload:
    """One request mix.  Subclasses define the requests and their checks."""

    name = ""
    unit = ""               # what one unit of `work` is
    setup_repeats = 9       # set-up runs this often; setup_s is the median
    min_cycles = 1          # a plain run measures at least this many cycles
    trace_cycles = 1        # a traced run measures this many, untraced then traced
    tail_pct = 90.0
    # the host probe's parts (see run.host_probe): the kinds of work the
    # requests do, so that the probe slows down with the host as they do
    probe = ("python", "numpy_small", "arrays")
    # how closely request times follow the probe: reference time is wall time
    # times host speed to this power.  Fitted on the reference host; train
    # and generate spend much of their time in numpy kernels and BLAS
    # threads, which a slow host slows less than plain Python
    speed_exponent = 0.5

    def __init__(self, seed, workdir):
        import bandflow.checkpoint
        import bandflow.cli
        import bandflow.models
        import bandflow.synth
        import bandflow.train
        self.bf = bandflow
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def setup(self):
        """Build what the requests need; returns a list of problems."""
        return []

    def cycle(self, c):
        """The request specs of cycle `c`, in their seeded order."""
        raise NotImplementedError

    def request(self, spec):
        """(call, check, work): the timed call, its output check, work units."""
        raise NotImplementedError

    def named_metrics(self, records):
        """The workload's own end-to-end metrics: name -> (value, unit)."""
        return {}

    def trace_problems(self, table, metrics):
        """Checks on a traced run's spans; returns a list of problems."""
        return []


# ---------------------------------------------------------------------------
# train

class Train(Workload):
    name = "train"
    # a call, not a step, is the unit: steps differ in cost by 70x between
    # pipelines, and a call of each takes about the same time
    unit = "train calls"
    min_cycles = 12
    trace_cycles = 3
    tail_pct = 75.0
    # (label, function in bandflow.train, steps per call); steps are sized so
    # that every call takes a similar time on a 2-core x86 host
    PIPELINES = (("accomp", "train_accomp", 2),
                 ("style", "train_style_predictor", 32),
                 ("melody", "train_melody", 11),
                 ("flow2d", "train_flow2d", 100))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.digests = {}

    def _train(self, label, fn_name, steps, seed):
        out = getattr(self.bf.train, fn_name)(seed=seed, steps=steps)
        path = self.workdir / f"{label}.vbnd"
        self.bf.checkpoint.save_checkpoint(out[0].params, path)
        return out[1], path

    def setup(self):
        # one short call of every pipeline: data generation, model init, the
        # first tape and the first checkpoint write
        for label, fn_name, _ in self.PIPELINES:
            self._train(label, fn_name, 1, derive_seed(self.seed, 99))
        return []

    def cycle(self, c):
        return [{"cycle": c, "kind": label, "fn": fn_name, "steps": steps,
                 "seed": derive_seed(self.seed, i, c % 2)}
                for i, (label, fn_name, steps) in enumerate(self.PIPELINES)]

    def request(self, spec):
        def call():
            return self._train(spec["kind"], spec["fn"], spec["steps"], spec["seed"])

        def check(result):
            losses, path = result
            problems = []
            if len(losses) != spec["steps"] or not np.all(np.isfinite(losses)):
                problems.append(f"{spec['kind']}: non-finite or missing losses")
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            key = (spec["kind"], spec["seed"], spec["steps"])
            if self.digests.setdefault(key, digest) != digest:
                problems.append(f"{spec['kind']} seed {spec['seed']}: checkpoint "
                                "differs from an earlier call with the same seed")
            return problems

        return call, check, 1

    def named_metrics(self, records):
        out = {}
        for label, _, _ in self.PIPELINES:
            rates = [r.spec["steps"] / r.dur for r in records if r.spec["kind"] == label]
            out[f"{label}_train_steps_per_s"] = (float(np.median(rates)), "1/s")
        return out


# ---------------------------------------------------------------------------
# generate

class Generate(Workload):
    name = "generate"
    unit = "clips"
    setup_repeats = 3       # each set-up trains a model for about 4 s
    min_cycles = 8
    trace_cycles = 2
    # the middle of the share of requests that k=8 T=256 gamma=1 takes up
    # (the 12th of 13 by cost), not an edge between two request sizes
    tail_pct = 88.5
    N_TAGS = 3
    EXPERTS = 4
    MODEL_SEED = 0
    MODEL_STEPS = 24
    INFER_STEPS = 3
    # every (k, T, gamma), plus a second k=1, T=256, gamma=3 request: the cycle
    # has an odd size, and its median falls mid-way through the three requests
    # of about equal cost (k=1 T=256 gamma=3 twice, k=8 T=16 gamma=1), not on
    # the edge between two request sizes
    COMBOS = tuple((k, T, g) for k in (1, 8) for T in (16, 64, 256)
                   for g in (1.0, 3.0)) + ((1, 256, 3.0),)
    # the setup model clears this mean held-out correlation on every request
    CORR_FLOOR = 0.0

    def setup(self):
        bf = self.bf
        model = bf.train.train_accomp(seed=self.MODEL_SEED, steps=self.MODEL_STEPS)[0]
        path = self.workdir / "accomp.vbnd"
        bf.checkpoint.save_checkpoint(model.params, path)
        fresh = bf.models.AccompFlowModel(np.random.default_rng(self.MODEL_SEED),
                                          self.N_TAGS, experts=self.EXPERTS)
        bf.checkpoint.load_into(fresh.params, path)
        self.model = fresh
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if getattr(self, "digest", digest) != digest:
            return ["setup checkpoint differs between repeats"]
        self.digest = digest
        return []

    def cycle(self, c):
        order = np.random.default_rng([self.seed, c]).permutation(len(self.COMBOS))
        return [{"cycle": c, "kind": f"k{k}-T{T}-g{g:g}", "k": k, "T": T, "gamma": g,
                 "pairs_seed": derive_seed(self.seed, c, slot, 1),
                 "eval_seed": derive_seed(self.seed, c, slot, 2)}
                for slot, (k, T, g) in ((int(i), self.COMBOS[i]) for i in order)]

    def request(self, spec):
        pairs = self.bf.synth.gen_toy_pairs(spec["pairs_seed"], spec["k"], self.N_TAGS,
                                            T=spec["T"])

        def call():
            return self.bf.train.eval_accomp(self.model, pairs, self.N_TAGS,
                                             seed=spec["eval_seed"], gamma=spec["gamma"],
                                             infer_steps=self.INFER_STEPS)

        def check(result):
            mean, corrs = result
            if len(corrs) != spec["k"] or not np.all(np.isfinite(corrs)):
                return [f"{spec['kind']}: missing or non-finite clip"]
            if not mean > self.CORR_FLOOR:
                return [f"{spec['kind']}: mean correlation {mean:.4f} below floor"]
            return []

        return call, check, spec["k"]

    def trace_problems(self, table, metrics):
        return layers.routing_check(table, metrics, self.EXPERTS)

    def named_metrics(self, records):
        durs = np.array([r.dur for r in records])
        return {
            "gen_clips_per_s": (sum(r.work for r in records) / durs.sum(), "1/s"),
            "gen_latency_p50_ms": (float(np.median(durs) * 1e3), "ms"),
            "gen_latency_tail_ms": (float(np.percentile(durs, self.tail_pct) * 1e3), "ms"),
        }


# ---------------------------------------------------------------------------
# eval-melody

MAJOR = (0, 2, 4, 5, 7, 9, 11)


def make_song(rng, n_notes):
    """A major-scale random-walk song; half its notes last a half beat and
    half a beat, so its sixteenth-grid length is exactly 3 * n_notes."""
    while True:
        tonic = int(rng.integers(12))
        steps = rng.integers(-2, 3, size=n_notes)
        degrees = np.clip(7 + np.cumsum(steps), 0, 13)
        pitches = [55 + tonic + 12 * (d // 7) + MAJOR[d % 7] for d in degrees.tolist()]
        if len({p % 12 for p in pitches}) >= 3:
            break
    durations = rng.permutation([0.5] * (n_notes // 2) + [1.0] * (n_notes - n_notes // 2))
    tempo = float(rng.choice([90.0, 120.0]))
    return pitches, durations.tolist(), tempo


def perturb(rng, song):
    """Shift about a quarter of the pitches by 1-2 semitones and swap a few
    neighbouring durations (the sixteenth-grid length is unchanged)."""
    pitches, durations, tempo = list(song[0]), list(song[1]), song[2]
    for i in np.flatnonzero(rng.uniform(size=len(pitches)) < 0.25).tolist():
        pitches[i] = min(127, max(0, pitches[i] + int(rng.choice([-2, -1, 1, 2]))))
    for i in np.flatnonzero(rng.uniform(size=len(pitches) - 1) < 0.1).tolist():
        durations[i], durations[i + 1] = durations[i + 1], durations[i]
    return pitches, durations, tempo


def write_song(path, song):
    pitches, durations, tempo = song
    lines = [f"tempo={tempo:g}"] + [f"{p},{d:g}" for p, d in zip(pitches, durations)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class EvalMelody(Workload):
    name = "eval-melody"
    unit = "song pairs"
    min_cycles = 8
    trace_cycles = 2
    tail_pct = 88.5
    # the requests are interpreter-bound: plain Python and numpy scalars,
    # and their times follow the probe's in full
    probe = ("python", "numpy_small")
    speed_exponent = 1.0
    # notes per song of the single-pair requests, and of each directory's
    # pairs.  Sorted by cost, the 7th of the 13 requests (the median) is the
    # 96-note single pair and the 12th the 144-note one, each well apart
    # from its neighbours, so neither the median nor the tail (the middle of
    # the 12th request's share) depends on pool scheduling
    SINGLES = (16, 24, 32, 48, 96, 144, 200)
    DIRS = ((16, 24), (16, 32, 48), (24, 16, 96, 32, 48), (16, 48, 24, 32, 16, 96),
            (32, 16, 24, 96, 16, 48), (16, 24, 32, 48, 16, 24, 32, 16, 64))
    SHORT = 32     # pairs up to this many notes are checked against refdtw

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.first_output = {}

    def setup(self):
        self.requests = []
        slots = [("single", (n,)) for n in self.SINGLES] + [("dir", d) for d in self.DIRS]
        for slot, (kind, lengths) in enumerate(slots):
            base = self.workdir / f"r{slot:02d}"
            expected = []
            for i, n in enumerate(lengths):
                rng = np.random.default_rng([self.seed, slot, i])
                ref = make_song(rng, n)
                gen = perturb(rng, ref)
                if kind == "dir":
                    gen_path = base / "gen" / f"pair{i:02d}.notes"
                    ref_path = base / "ref" / f"pair{i:02d}.notes"
                else:
                    gen_path, ref_path = base / "gen.notes", base / "ref.notes"
                gen_path.parent.mkdir(parents=True, exist_ok=True)
                ref_path.parent.mkdir(parents=True, exist_ok=True)
                write_song(gen_path, gen)
                write_song(ref_path, ref)
                md = refdtw.melody_distance(gen[:2], ref[:2]) if n <= self.SHORT else None
                expected.append(md)
            if kind == "dir":
                args = [str(base / "gen"), str(base / "ref")]
            else:
                args = [str(base / "gen.notes"), str(base / "ref.notes")]
            label = (f"single-n{lengths[0]}" if kind == "single"
                     else f"dir-{len(lengths)}pairs-n{sum(lengths)}")
            self.requests.append({"slot": slot, "kind": kind, "label": label, "args": args,
                                  "pairs": len(lengths), "expected_md": expected})
        code, _ = self._eval(self.requests[0]["args"])
        return [] if code == 0 else [f"warm-up eval-melody exited {code}"]

    def _eval(self, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.bf.cli.cli_dispatch(["eval-melody", *args])
        return code, out.getvalue()

    def cycle(self, c):
        order = np.random.default_rng([self.seed, c]).permutation(len(self.requests))
        return [dict(self.requests[int(i)], cycle=c) for i in order]

    def request(self, spec):
        def call():
            return self._eval(spec["args"])

        def check(result):
            code, text = result
            if code != 0:
                return [f"request {spec['slot']}: exit code {code}"]
            problems = check_report(text, spec["pairs"], spec["expected_md"])
            if self.first_output.setdefault(spec["slot"], text) != text:
                problems.append(f"request {spec['slot']}: output changed between repeats")
            return [f"request {spec['slot']}: {p}" for p in problems]

        return call, check, spec["pairs"]

    def named_metrics(self, records):
        durs = np.array([r.dur for r in records])
        return {
            "eval_pairs_per_s": (sum(r.work for r in records) / durs.sum(), "1/s"),
            "eval_latency_p50_ms": (float(np.median(durs) * 1e3), "ms"),
            "eval_latency_tail_ms": (float(np.percentile(durs, self.tail_pct) * 1e3), "ms"),
        }


REPORT_COLUMNS = ["KA", "APD", "TD", "PD", "DD", "MD"]


def check_report(text, pairs, expected_md, tol=2e-6):
    """Problems with one eval-melody report: header, one row per pair, the
    summary row equal to the mean of the rows, and MD equal to the reference
    wherever one was computed."""
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != REPORT_COLUMNS:
        return ["missing report header"]
    try:
        rows = np.array(lines[1:], dtype=np.float64)
    except ValueError:
        return ["unparsable report row"]
    if rows.ndim != 2 or rows.shape != (pairs + 1, len(REPORT_COLUMNS)):
        return [f"expected {pairs} rows and a summary, got {len(lines) - 1} lines"]
    body, summary = rows[:-1], rows[-1]
    problems = []
    if not np.allclose(body.mean(axis=0), summary, rtol=0, atol=tol):
        problems.append("summary row is not the mean of the rows")
    md = REPORT_COLUMNS.index("MD")
    for i, want in enumerate(expected_md):
        if want is not None and not math.isclose(body[i, md], want, rel_tol=0, abs_tol=tol):
            problems.append(f"pair {i}: MD {body[i, md]} != reference {want:.6f}")
    return problems


WORKLOADS = {w.name: w for w in (Train, Generate, EvalMelody)}
