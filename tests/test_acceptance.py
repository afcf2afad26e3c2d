"""End-to-end acceptance gate: ten criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

import bandflow.tensor as tt
from acceptance_helpers import flow2d_mode_stats, random_melody_baseline
from bandflow.checkpoint import load_checkpoint, save_checkpoint
from bandflow.flow import FlowConfig, cfg_field, euler_sample
from bandflow.gradcheck import gradcheck_all
from bandflow.melody import NoteSequence
from bandflow.metrics import dtw_distance, evaluate_pair, f0_frame_error
from bandflow.moe import (
    RouterState,
    balance_loss,
    gate_entropy,
    gumbel_gate,
)
from bandflow.models import AccompFlowModel
from bandflow.rq import RQCodebook, rq_encode
from bandflow.synth import gen_melody_grammar
from bandflow.tensor import Tensor
from bandflow.train import (
    eval_accomp,
    melody_report,
    sample_flow2d,
    train_accomp,
    train_flow2d,
    train_melody,
)


def _verdict(num, name, ok, detail):
    print(f"[acceptance {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_gradient_integrity():
    t0 = time.time()
    worst = gradcheck_all(trials=20, seed=0)
    elapsed = time.time() - t0
    worst_err = max(worst.values())
    ok = worst_err < 1e-4 and elapsed < 60.0
    _verdict(1, "gradient integrity", ok,
             f"worst rel err {worst_err:.2e} over {len(worst)} ops, {elapsed:.1f}s")


def test_02_flow_correctness():
    # (a) oracle constant field reaches x1 exactly for any step count
    x0 = np.array([0.25, -1.5])
    x1 = np.array([1.75, 2.0])
    max_err = 0.0
    for steps in (1, 3, 25, 100):
        out = euler_sample(lambda x, t, c: Tensor(np.broadcast_to(x1 - x0, x.shape)),
                           x0, None, FlowConfig(infer_steps=steps, cfg_scale=1.0))
        max_err = max(max_err, float(np.abs(out.data - x1).max()))
    # (b) trained 2-D mixture model
    t0 = time.time()
    est, _, _ = train_flow2d(seed=0, steps=1500)
    elapsed = time.time() - t0
    stats = flow2d_mode_stats(sample_flow2d(est, 2000, seed=1))
    mean_err = max(float(np.abs(stats["mean_left"] - [-2.0, 0.0]).max()),
                   float(np.abs(stats["mean_right"] - [2.0, 0.0]).max()))
    weight_err = abs(stats["weight_left"] - 0.5)
    ok = (max_err < 1e-10 and mean_err < 0.15 and weight_err < 0.1
          and elapsed < 300.0)
    _verdict(2, "flow correctness", ok,
             f"oracle err {max_err:.1e}, mode-mean err {mean_err:.3f}, "
             f"weight err {weight_err:.3f}, train {elapsed:.1f}s")


def test_03_cfg_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        cond = Tensor(rng.standard_normal(shape))
        uncond = Tensor(rng.standard_normal(shape))
        out = cfg_field(cond, uncond, 1.0).data
        worst = max(worst, float(np.abs(out - cond.data).max()))
    ok = worst <= 1e-15
    _verdict(3, "guidance identity at scale 1", ok, f"worst deviation {worst:.1e}")


def test_04_router_properties():
    rng = np.random.default_rng(0)
    norm_err = 0.0
    argmax_ok = True
    for _ in range(10):
        logits = Tensor(rng.standard_normal((100, 4)))
        dense = gumbel_gate(logits, tau=0.9, rng=rng, mode="dense")
        hard = gumbel_gate(logits, tau=0.9, mode="hard")
        norm_err = max(norm_err,
                       float(np.abs(dense.data.sum(axis=1) - 1.0).max()),
                       float(np.abs(hard.data.sum(axis=1) - 1.0).max()))
        argmax_ok &= bool(
            (hard.data.argmax(axis=1) == logits.data.argmax(axis=1)).all())
    fixed = Tensor(rng.standard_normal((1000, 4)))
    ent_hi = gate_entropy(gumbel_gate(fixed, 2.0, np.random.default_rng(1), "dense"))
    ent_lo = gate_entropy(gumbel_gate(fixed, 0.3, np.random.default_rng(1), "dense"))
    ok = norm_err < 1e-12 and argmax_ok and ent_lo < ent_hi
    _verdict(4, "router properties", ok,
             f"norm err {norm_err:.1e}, entropy {ent_lo:.3f} (tau 0.3) < "
             f"{ent_hi:.3f} (tau 2.0)")


def test_05_balance_loss_forms():
    alpha, num, n = 0.1, 4, 20
    uniform = Tensor(np.full((n, num), 1.0 / num))
    v_uniform = balance_loss(uniform, alpha, form="switch").item()
    concentrated = np.zeros((n, num))
    concentrated[:, 1] = 1.0
    v_conc = balance_loss(Tensor(concentrated), alpha, form="switch").item()
    rng = np.random.default_rng(0)
    literal_dev = 0.0
    for _ in range(20):
        gates = gumbel_gate(Tensor(rng.standard_normal((12, num))), tau=0.7,
                            rng=rng, mode="dense")
        literal_dev = max(literal_dev, abs(
            balance_loss(gates, alpha, form="literal").item() - alpha * num))
    ok = (abs(v_uniform - alpha) < 1e-12 and abs(v_conc - alpha * num) < 1e-12
          and literal_dev < 1e-10)
    _verdict(5, "balance loss closed forms", ok,
             f"uniform {v_uniform:.4f}=alpha, concentrated {v_conc:.4f}=alpha*N, "
             f"literal dev {literal_dev:.1e}")


def test_06_rq_properties():
    rng = np.random.default_rng(0)
    book = RQCodebook.create(depth=4, size=8, dim=3, rng=rng)
    z = rng.standard_normal((1000, 3))
    code = rq_encode(z, book)
    errs = np.stack([((z - code.prefixes[d]) ** 2).sum(axis=1)
                     for d in range(book.depth)])
    monotone = bool((np.diff(errs, axis=0) <= 1e-12).all())
    # greedy indices equal the per-depth nearest-neighbor brute force
    brute_ok = True
    for trial in range(30):
        b = RQCodebook.create(depth=3, size=8, dim=2,
                              rng=np.random.default_rng(100 + trial), scale=1.0)
        x = np.random.default_rng(trial).standard_normal((5, 2))
        c = rq_encode(x, b)
        residual = x.copy()
        for d in range(b.depth):
            d2 = ((residual[:, None, :] - b.codes[d][None]) ** 2).sum(axis=2)
            brute_ok &= bool((c.indices[d] == d2.argmin(axis=1)).all())
            residual = residual - b.codes[d][c.indices[d]]
    ok = monotone and brute_ok
    _verdict(6, "residual quantization properties", ok,
             f"monotone prefixes on 1000 inputs: {monotone}, "
             f"nearest-neighbor oracle: {brute_ok}")


def test_07_metric_oracles():
    @lru_cache(maxsize=None)
    def oracle(a, b, i, j):
        c = abs(a[i] - b[j])
        if i == 0 and j == 0:
            return c
        opts = []
        if i > 0:
            opts.append(oracle(a, b, i - 1, j))
        if j > 0:
            opts.append(oracle(a, b, i, j - 1))
        if i > 0 and j > 0:
            opts.append(oracle(a, b, i - 1, j - 1))
        return c + min(opts)

    rng = np.random.default_rng(0)
    dtw_dev = 0.0
    for _ in range(200):
        la, lb = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        a = tuple(float(v) for v in rng.integers(0, 12, size=la))
        b = tuple(float(v) for v in rng.integers(0, 12, size=lb))
        dtw_dev = max(dtw_dev,
                      abs(dtw_distance(a, b) - oracle(a, b, la - 1, lb - 1)))
    seq = NoteSequence(pitches=[60, 62, 64, 65, 67, 69, 71, 72],
                       durations=[1.0] * 8, tempo=120.0)
    rep = evaluate_pair(seq, seq)
    identical_ok = (abs(rep.KA - 1.0) < 1e-12 and rep.APD == 0.0 and rep.TD == 0.0
                    and abs(rep.PD - 1.0) < 1e-12 and abs(rep.DD - 1.0) < 1e-12
                    and rep.MD == 0.0)
    gt = np.array([100.0, 100.0, 0.0, 200.0, 50.0])
    gen = np.array([100.0, 130.0, 10.0, 0.0, 55.0])
    ffe_ok = f0_frame_error(gen, gt) == 3 / 5
    ok = dtw_dev == 0.0 and identical_ok and ffe_ok
    _verdict(7, "metric oracles", ok,
             f"warping-distance dev {dtw_dev:.1e} over 200 pairs, "
             f"identical-pair report: {identical_ok}, frame-error exact: {ffe_ok}")


def test_08_toy_accompaniment():
    t0 = time.time()
    model, _, _, (_, held) = train_accomp(seed=0, steps=300)
    corr, _ = eval_accomp(model, held, n_tags=3, seed=0, gamma=1.0)
    elapsed = time.time() - t0
    # single-expert reduction is bitwise identical to the plain composition
    small = AccompFlowModel(np.random.default_rng(0), n_tags=3, data_dim=8,
                            width=16, heads=2, blocks=2, experts=1)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((12, 8))
    v = rng.standard_normal((12, 8))
    small.state = RouterState(tau=0.5, mode="dense", rng=None)
    moe_out = small(Tensor(x), 0.3, (v, 1)).data
    small.use_plain_ffn()
    small.state = RouterState(tau=0.5, mode="dense", rng=None)
    plain_out = small(Tensor(x), 0.3, (v, 1)).data
    bitwise = bool(np.array_equal(moe_out, plain_out))
    ok = corr > 0.5 and bitwise and elapsed < 900.0
    _verdict(8, "toy accompaniment", ok,
             f"held-out correlation {corr:.3f}, single-expert reduction "
             f"bitwise: {bitwise}, {elapsed:.0f}s")


def test_09_toy_melody():
    t0 = time.time()
    model, _, (_, held) = train_melody(seed=0, steps=400)
    acc, mean_row, _ = melody_report(model, held)
    ka_model = mean_row[0]
    baseline = random_melody_baseline(held, seed=0)
    ka_base = []
    for gen, s in zip(baseline, held):
        rep = evaluate_pair(gen, s.notes, gt_key=(s.tag, "major"))
        ka_base.append(rep.KA)
    ka_base = float(np.mean(ka_base))
    elapsed = time.time() - t0
    ok = acc > 0.9 and ka_model > ka_base and elapsed < 600.0
    _verdict(9, "toy melody", ok,
             f"pitch accuracy {acc:.3f}, key accuracy {ka_model:.3f} > "
             f"random baseline {ka_base:.3f}, {elapsed:.0f}s")


def test_10_determinism_and_serialization(tmp_path):
    p1, p2 = tmp_path / "a.vbnd", tmp_path / "b.vbnd"
    for p in (p1, p2):
        est, _, _ = train_flow2d(seed=7, steps=80, batch=64)
        save_checkpoint(est.params, p)
    identical = p1.read_bytes() == p2.read_bytes()
    rng = np.random.default_rng(0)
    arrays = {"w": rng.standard_normal((5, 3)), "b": rng.standard_normal(4)}
    p3 = tmp_path / "c.vbnd"
    save_checkpoint(arrays, p3)
    loaded = load_checkpoint(p3)
    exact = all(
        np.array_equal(loaded[k], arrays[k].astype(np.float32).astype(np.float64))
        for k in arrays)
    ok = identical and exact
    _verdict(10, "determinism and serialization", ok,
             f"identical checkpoints: {identical}, value-exact at f32: {exact}")
