"""Toy training pipelines: 2-D flow, style predictor, accompaniment, melody.

Each run is a pure function of (seed, config): data generation, parameter
init, noise draws, and routing noise all come from generators derived from
the seed, so repeated runs produce bitwise-identical checkpoints.
"""

from __future__ import annotations

import csv
import functools

import numpy as np

from . import tensor as tt
from .errors import DimensionError, NumericError
from .flow import (FlowConfig, FlowSample, MLPEstimator, cfm_loss, euler_sample,
                   make_flow_sample, stack_flow_samples)
from .melody import MelodyModel, melody_loss
from .metrics import evaluate_pairs
from .models import AccompFlowModel, StylePredictorModel
from .moe import RouterState, TAU_LOW, gate_entropy, tau_schedule
from .optim import Adam
from .synth import (GRAMMAR_TONICS, MAJOR_SCALE, STYLE_TOY_VOCAB, gen_flow2d, gen_melody_grammar,
                    gen_style_toy, gen_toy_pairs, tag_transform)
from .tensor import Tape, Tensor, backward

ROUTE_COLUMNS = ("group", "unit", "expert", "entropy", "tau", "t")
ROUTE_TRACE_T = 0.5          # flow time of the routing-trace pass

FLOW2D_DATA_N = 10000        # points in the 2-D mixture dataset
FLOW2D_HIDDEN = 64           # hidden width of the 2-D flow's MLP estimator
FLOW2D_TIMESTEPS = 100       # training-time grid of the 2-D flow

STYLE_BATCH = 4
STYLE_SAMPLES = 64           # style-toy dataset size
STYLE_TAGS = 4
STYLE_VOCAL_DROP = 0.2       # chance a sample trains with the vocal prompt dropped
STYLE_TEXT_DROP = 0.1        # chance a sample trains with the null tag
STYLE_TIMESTEPS = 100

ACCOMP_PAIRS = 96            # accomp-toy dataset size
ACCOMP_TAGS = 3              # style tags of the accomp-toy pairs
ACCOMP_COND_DROP = 0.2       # chance a sample trains with the null tag
ACCOMP_TIMESTEPS = 1000

MELODY_SONGS = 120           # melody-grammar dataset size


def _check_finite(value, step):
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss at step {step}")


def fit(opt, steps, draws, skip=None):
    """The training loop shared by every pipeline; returns per-step losses.

    `draws(step)` yields zero-argument loss functions.  Each runs under its own
    Tape and is backpropagated; their gradients accumulate into one
    `opt.step` per step, and the step's loss is the mean of theirs.  So a
    pipeline that yields one loss per sample (train_accomp) steps on the sum
    of the per-sample gradients, not their mean: Adam is nearly invariant to
    that scale, and averaging would move every accomp checkpoint.  The
    generator is consumed lazily, so draws made inside a forward (routing
    noise) stay interleaved with the data draws.  `skip(step)` may return a
    parameter-name predicate to freeze on that step.
    """
    losses = []
    for step in range(steps):
        total, n = 0.0, 0
        for build in draws(step):
            with Tape():
                loss = build()
                _check_finite(loss.item(), step)
                backward(loss)
            total += loss.item()
            n += 1
        opt.step(skip=None if skip is None else skip(step))
        opt.zero_grad()
        losses.append(total / n)
    return losses


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# 2-D mixture flow

def train_flow2d(seed, steps, batch=256, lr=2e-3):
    data = gen_flow2d(seed, FLOW2D_DATA_N)
    rng = np.random.default_rng(seed + 1)
    est = MLPEstimator(2, FLOW2D_HIDDEN, rng)

    def draws(step):
        idx = rng.integers(len(data), size=batch)
        x1 = data[idx]
        x0 = rng.standard_normal((batch, 2))
        t = rng.integers(FLOW2D_TIMESTEPS, size=batch) / FLOW2D_TIMESTEPS
        s = FlowSample(x0, x1, t[:, None])
        yield lambda: cfm_loss(est, s)

    return est, fit(Adam(est.params, lr=lr), steps, draws)


def sample_flow2d(est, n, seed, trace):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    return euler_sample(est, x, None, FlowConfig(cfg_scale=1.0), trace=trace).data


# ---------------------------------------------------------------------------
# style predictor

def train_style_predictor(seed, steps, warmup_steps=0):
    data = gen_style_toy(seed, STYLE_SAMPLES, n_tags=STYLE_TAGS)
    rng = np.random.default_rng(seed + 1)
    model = StylePredictorModel(rng, n_tags=STYLE_TAGS, n_phonemes=STYLE_TOY_VOCAB,
                                channels=data[0].x1.shape[0])

    def draws(step):
        # per sample: index, text drop, vocal drop, then its noise and time
        samples, phonemes, tags, vocal = [], [], [], []
        for _ in range(STYLE_BATCH):
            s = data[int(rng.integers(len(data)))]
            tags.append(STYLE_TAGS if rng.uniform() < STYLE_TEXT_DROP else s.tag)
            vocal.append(rng.uniform() >= STYLE_VOCAL_DROP)
            samples.append(make_flow_sample(s.x1, rng, STYLE_TIMESTEPS))
            phonemes.append(s.phonemes)
        sample = stack_flow_samples(samples)
        cond = (np.stack(phonemes), np.array(tags), np.array(vocal))
        yield lambda: cfm_loss(model, sample, cond)

    def frozen(name):
        return name.startswith("wavenet")

    return model, fit(Adam(model.params, lr=3e-3), steps, draws,
                      skip=lambda step: frozen if step < warmup_steps else None)


# ---------------------------------------------------------------------------
# accompaniment flow with the expert groups

def train_accomp(seed, steps, batch=4, n_pairs=ACCOMP_PAIRS, n_tags=ACCOMP_TAGS,
                 T=64, data_dim=16, width=64, experts=4, blocks=2,
                 holdout=16):
    pairs = gen_toy_pairs(seed, n_pairs, n_tags, T=T, d=data_dim)
    train_pairs, held = pairs[:-holdout], pairs[-holdout:]
    rng = np.random.default_rng(seed + 1)
    model = AccompFlowModel(rng, n_tags, data_dim=data_dim, width=width,
                            experts=experts, blocks=blocks)

    def loss_with_balance(sample, cond):
        return tt.add(cfm_loss(model, sample, cond), model.balance())

    def draws(step):
        # dense routing draws its Gumbel noise from `rng` during each forward
        tau = tau_schedule(step / max(1, steps - 1))
        model.state = RouterState(tau=tau, mode="dense", rng=rng)
        for _ in range(batch):
            pair = train_pairs[int(rng.integers(len(train_pairs)))]
            tag = n_tags if rng.uniform() < ACCOMP_COND_DROP else pair.tag
            sample = make_flow_sample(pair.a, rng, ACCOMP_TIMESTEPS)
            yield functools.partial(loss_with_balance, sample, (pair.v, tag))

    return model, fit(Adam(model.params, lr=2e-3), steps, draws), (train_pairs, held)


def eval_accomp(model, held_pairs, n_tags, seed, gamma, infer_steps=25):
    """Mean Pearson correlation of generated output with the tag-true target,
    and the per-clip correlations.

    All clips (of one shape) are sampled together: one `euler_sample` over a
    [clips, T, d] batch, whose guided steps are one stacked cond+null pass.
    Each clip's start noise is drawn in clip order, as one draw per clip.
    """
    cfg = FlowConfig(infer_steps=infer_steps, cfg_scale=gamma)
    rng = np.random.default_rng(seed)
    model.state = RouterState(tau=TAU_LOW, mode="hard", rng=None)
    if len({pair.a.shape for pair in held_pairs}) != 1:
        raise DimensionError("eval_accomp needs one or more clips of one shape")
    x0 = np.stack([rng.standard_normal(pair.a.shape) for pair in held_pairs])
    v = np.stack([pair.v for pair in held_pairs])
    tags = np.array([pair.tag for pair in held_pairs])
    gen = euler_sample(model, x0, (v, tags), cfg,
                       null_cond=(v, np.full(len(tags), model.n_tags)))
    corrs = []
    for g, pair in zip(gen.data, held_pairs):
        target = tag_transform(pair.v, pair.tag, n_tags)
        corrs.append(float(np.corrcoef(g.ravel(), target.ravel())[0, 1]))
    return float(np.mean(corrs)), corrs


def route_trace_rows(model, pair):
    """(group, unit, chosen expert, gate entropy, tau, t) rows from one
    hard-routed pass at t = ROUTE_TRACE_T."""
    model.state = RouterState(tau=TAU_LOW, mode="hard", rng=None)
    x = np.zeros(pair.a.shape)
    model(Tensor(x), ROUTE_TRACE_T, (pair.v, pair.tag))
    rows = []
    for b, moe in enumerate(model.moes):
        for group, gates in sorted(moe.last_gates.items()):
            g = gates.data
            ent = gate_entropy(g)
            for unit in range(g.shape[0]):
                rows.append((f"b{b}.{group}", unit, int(g[unit].argmax()), ent,
                             TAU_LOW, ROUTE_TRACE_T))
    return rows


# ---------------------------------------------------------------------------
# melody model

def melody_batch_loss(model, songs):
    """Mean over songs of each song's melody_loss divided by its length.

    Songs of one length share one forward over a [songs, n] batch, the
    lengths taken in the order they first appear.
    """
    by_length = {}
    for s in songs:
        by_length.setdefault(len(s.phonemes), []).append(s)
    loss = None
    for n, group in by_length.items():
        logits, durs = model.forward(np.stack([s.phonemes for s in group]),
                                     np.array([s.tag for s in group]))
        term = tt.mul(melody_loss(logits, durs, [s.notes for s in group]), 1.0 / n)
        loss = term if loss is None else tt.add(loss, term)
    return tt.mul(loss, 1.0 / len(songs))


def train_melody(seed, steps, batch=8, n_songs=MELODY_SONGS, holdout=20,
                 width=64, layers=2):
    songs = gen_melody_grammar(seed, n_songs)
    train_songs, held = songs[:-holdout], songs[-holdout:]
    rng = np.random.default_rng(seed + 1)
    model = MelodyModel(n_phonemes=len(MAJOR_SCALE), n_tags=GRAMMAR_TONICS, rng=rng,
                        width=width, layers=layers)

    def batch_loss():
        picked = [train_songs[int(rng.integers(len(train_songs)))] for _ in range(batch)]
        return melody_batch_loss(model, picked)

    losses = fit(Adam(model.params, lr=3e-3), steps, lambda step: [batch_loss])
    return model, losses, (train_songs, held)


def melody_report(model, songs):
    """One held-out pass, one forward per song: the pitch accuracy, the mean
    metric row in the standard column order, and the per-song rows."""
    preds = [model.predict(s.phonemes, s.tag, s.notes.tempo) for s in songs]
    correct = sum(p == q for pred, s in zip(preds, songs)
                  for p, q in zip(pred.pitches, s.notes.pitches))
    accuracy = correct / sum(len(s.notes) for s in songs)
    rows = [rep.row() for rep in evaluate_pairs(
        (pred, s.notes, (s.tag, "major"), None) for pred, s in zip(preds, songs))]
    mean_row = np.asarray(rows).mean(axis=0).tolist()
    return accuracy, mean_row, rows


__all__ = [name for name in dir() if not name.startswith("_")]
