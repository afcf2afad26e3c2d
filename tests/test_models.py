"""The batched accompaniment path: a B-row forward against B one-clip calls,
the stacked guided sampler against the per-clip loop it replaced."""

import numpy as np
import pytest

import bandflow.tensor as tt
from bandflow.errors import DimensionError
from bandflow.flow import FlowConfig, cfg_field, euler_sample
from bandflow.models import ACCOMP_CHUNK_TOKENS, AccompFlowModel
from bandflow.moe import TAU_LOW, RouterState
from bandflow.synth import gen_toy_pairs, tag_transform
from bandflow.tensor import Tensor
from bandflow.train import eval_accomp

N_TAGS = 3


def _model(seed=0, experts=2, data_dim=8, width=16):
    """A small model with every parameter drawn at random, so that no
    zero-initialized branch hides a difference."""
    model = AccompFlowModel(np.random.default_rng(seed), N_TAGS, data_dim=data_dim,
                            width=width, heads=2, blocks=2, experts=experts)
    rng = np.random.default_rng(seed + 100)
    for _, p in model.params.items():
        p.data[...] = rng.standard_normal(p.shape) * 0.4
    return model


def _rows(model, x, t, v, tags, state):
    """The one-clip calls a batched forward must reproduce."""
    out = []
    for xi, vi, tag in zip(x, v, tags):
        model.state = state()
        out.append(model(Tensor(xi), t, (vi, int(tag))).data)
    return np.stack(out)


def test_cases_straddle_the_chunk():
    assert 2 * 5 * 16 <= ACCOMP_CHUNK_TOKENS < 9 * 64
    assert 6 * 16 <= ACCOMP_CHUNK_TOKENS < 11 * 64


# 6 x 16 tokens fit in one chunk; 11 x 64 run as chunks of 8 and 3 rows
@pytest.mark.parametrize("B,T", [(6, 16), (11, 64)], ids=["one_chunk", "two_chunks"])
class TestBatchedForward:
    def _inputs(self, B, T, seed=1):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((B, T, 8))
        v = rng.standard_normal((B, T, 8))
        tags = np.array([(0, N_TAGS, 2, 1, N_TAGS, 0)[i % 6] for i in range(B)])
        return x, v, tags

    def test_hard_routing_bitwise(self, B, T):
        model = _model()
        x, v, tags = self._inputs(B, T)

        def state():
            return RouterState(tau=TAU_LOW, mode="hard", rng=None)

        model.state = state()
        batched = model(Tensor(x), 0.4, (v, tags)).data
        np.testing.assert_array_equal(batched, _rows(model, x, 0.4, v, tags, state))

    def test_dense_routing_close(self, B, T):
        model = _model(seed=2, experts=3)
        x, v, tags = self._inputs(B, T, seed=3)

        def state():
            return RouterState(tau=0.7, mode="dense", rng=None)

        model.state = state()
        batched = model(Tensor(x), 0.25, (v, tags)).data
        single = _rows(model, x, 0.25, v, tags, state)
        np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12)

    def test_single_expert_reduction_bitwise(self, B, T):
        model = _model(seed=4, experts=1)
        x, v, tags = self._inputs(B, T, seed=5)
        outs = []
        for _ in range(2):
            model.state = RouterState(tau=0.5, mode="dense", rng=None)
            outs.append(model(Tensor(x), 0.3, (v, tags)).data)
            model.use_plain_ffn()
        np.testing.assert_array_equal(outs[0], outs[1])


def test_batched_call_needs_one_tag_per_row():
    model = _model()
    x = np.zeros((3, 4, 8))
    with pytest.raises(DimensionError, match="one tag per row"):
        model(Tensor(x), 0.0, (x, np.array([0, 1])))


# ---------------------------------------------------------------------------
# guided sampling

def _per_clip_eval(model, held_pairs, n_tags, seed, gamma, infer_steps):
    """The per-clip sampling loop eval_accomp ran before it batched its clips:
    one Euler integration per clip, two estimator calls per guided step."""
    cfg = FlowConfig(infer_steps=infer_steps, cfg_scale=gamma)
    rng = np.random.default_rng(seed)
    model.state = RouterState(tau=TAU_LOW, mode="hard", rng=None)
    corrs = []
    for pair in held_pairs:
        x = Tensor(rng.standard_normal(pair.a.shape))
        eps = 1.0 / cfg.infer_steps
        for i in range(cfg.infer_steps):
            t = i * eps
            v = model(x, t, (pair.v, pair.tag))
            if cfg.cfg_scale != 1.0:
                v = cfg_field(v, model(x, t, (pair.v, model.n_tags)), cfg.cfg_scale)
            x = tt.add(x, tt.mul(v, eps))
        target = tag_transform(pair.v, pair.tag, n_tags)
        corrs.append(float(np.corrcoef(x.data.ravel(), target.ravel())[0, 1]))
    return float(np.mean(corrs)), corrs


# 2 x 5 x 16 tokens fit in one chunk; 9 and 18 rows of 64 tokens do not
@pytest.mark.parametrize("k,T", [(5, 16), (9, 64)], ids=["one_chunk", "chunked"])
@pytest.mark.parametrize("gamma", [1.0, 3.0])
def test_eval_accomp_equals_per_clip_loop(k, T, gamma):
    model = _model(seed=6, data_dim=16)
    pairs = gen_toy_pairs(7, k, N_TAGS, T=T)
    got = eval_accomp(model, pairs, N_TAGS, seed=8, gamma=gamma, infer_steps=3)
    want = _per_clip_eval(model, pairs, N_TAGS, seed=8, gamma=gamma, infer_steps=3)
    assert got == want


def test_eval_accomp_rejects_mixed_clip_shapes():
    model = _model(data_dim=16)
    pairs = gen_toy_pairs(0, 1, N_TAGS, T=16) + gen_toy_pairs(0, 1, N_TAGS, T=32)
    with pytest.raises(DimensionError):
        eval_accomp(model, pairs, N_TAGS, infer_steps=1)


class _Recorder:
    """A field of 0.5 x on every row, tag t's rows shifted by t; records calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, x, t, cond):
        self.calls.append((x.shape, np.asarray(cond[0]).tolist()))
        shift = np.asarray(cond[0], dtype=float)[:, None]
        return Tensor(0.5 * x.data + shift)


@pytest.mark.parametrize("gamma", [0.0, 2.5])
def test_guided_step_is_one_stacked_call(gamma):
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((3, 4))
    cfg = FlowConfig(infer_steps=4, cfg_scale=gamma)
    est = _Recorder()
    out = euler_sample(est, x0, ([1, 2, 0],), cfg, null_cond=([5, 5, 5],)).data
    assert est.calls == [((6, 4), [1, 2, 0, 5, 5, 5])] * 4
    x = x0
    for _ in range(4):
        cond = 0.5 * x + np.array([[1.0], [2.0], [0.0]])
        null = 0.5 * x + 5.0
        x = x + (gamma * cond + (1.0 - gamma) * null) * 0.25
    np.testing.assert_allclose(out, x, rtol=1e-14, atol=1e-14)


def test_unguided_step_ignores_null_cond():
    est = _Recorder()
    euler_sample(est, np.zeros((2, 3)), ([0, 1],), FlowConfig(infer_steps=2, cfg_scale=1.0),
                 null_cond=([7, 7],))
    assert est.calls == [((2, 3), [0, 1])] * 2
