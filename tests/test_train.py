import numpy as np
import pytest

import bandflow.tensor as tt

from bandflow.checkpoint import load_checkpoint, load_into, save_checkpoint
from bandflow.errors import NumericError
from bandflow.flow import FlowConfig, FlowSample, cfm_loss
from bandflow.models import StylePredictorModel
from bandflow.optim import Adam
from bandflow.synth import gen_style_toy
from bandflow.tensor import ParameterStore
from bandflow.train import (
    fit,
    flow2d_mode_stats,
    melody_pitch_accuracy,
    random_melody_baseline,
    route_trace_rows,
    sample_flow2d,
    train_accomp,
    train_flow2d,
    train_melody,
    train_style_predictor,
    write_csv,
)


class _RecordingOpt:
    """Stands in for Adam: records the gradient and skip predicate per step."""

    def __init__(self, store):
        self.store = store
        self.steps = []

    def step(self, skip=None):
        self.steps.append((self.store["w"].grad.copy(), skip))

    def zero_grad(self):
        self.store.zero_grad()


class TestFit:
    def test_tapes_accumulate_into_one_step(self):
        store = ParameterStore()
        w = store.add("w", [1.0, -2.0])
        opt = _RecordingOpt(store)

        def draws(step):
            yield lambda: tt.sum_(tt.mul(w, 2.0))     # grad 2
            yield lambda: tt.sum_(tt.mul(w, w))       # grad 2w

        losses = fit(opt, 2, draws)
        assert len(opt.steps) == 2
        np.testing.assert_array_equal(opt.steps[0][0], [4.0, -2.0])
        assert losses == [((2.0 - 4.0) + (1.0 + 4.0)) / 2] * 2
        np.testing.assert_array_equal(w.grad, [0.0, 0.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_step_and_skips_update(self):
        store = ParameterStore()
        w = store.add("w", [1.0])
        opt = _RecordingOpt(store)

        def draws(step):
            scale = np.inf if step == 3 else 1.0
            yield lambda: tt.sum_(tt.mul(w, 1.0))
            yield lambda: tt.sum_(tt.mul(w, scale))

        with pytest.raises(NumericError, match="step 3"):
            fit(opt, 5, draws)
        assert len(opt.steps) == 3

    def test_skip_freezes_only_on_returned_steps(self):
        def run(steps):
            store = ParameterStore()
            a = store.add("a", [1.0])
            b = store.add("b", [1.0])
            fit(Adam(store, lr=0.1), steps,
                lambda step: [lambda: tt.sum_(tt.add(a, b))],
                skip=lambda step: (lambda name: name == "a") if step == 0 else None)
            return a.data[0], b.data[0]

        a1, b1 = run(1)
        assert a1 == 1.0 and b1 != 1.0
        a2, b2 = run(2)
        assert a2 != 1.0 and b2 < b1


class TestFlow2dPipeline:
    def test_loss_decreases_and_deterministic(self):
        est1, losses1, _ = train_flow2d(seed=0, steps=60, batch=64)
        est2, losses2, _ = train_flow2d(seed=0, steps=60, batch=64)
        assert losses1 == losses2
        assert np.mean(losses1[-10:]) < np.mean(losses1[:10])
        for n1, n2 in zip(est1.params.names(), est2.params.names()):
            np.testing.assert_array_equal(est1.params[n1].data, est2.params[n2].data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_step(self):
        with pytest.raises(NumericError, match="step"):
            train_flow2d(seed=0, steps=200, batch=16, lr=1e160)

    def test_mode_stats_shape(self):
        est, _, cfg = train_flow2d(seed=0, steps=5, batch=32)
        stats = flow2d_mode_stats(sample_flow2d(est, 100, seed=1, flow_cfg=cfg))
        assert stats["weight_left"] + stats["weight_right"] == pytest.approx(1.0)


class TestStylePredictorPipeline:
    def test_loss_halves(self):
        _, losses, _ = train_style_predictor(seed=0, steps=400)
        assert np.mean(losses[-10:]) < 0.5 * losses[0]

    def test_warmup_freezes_estimator(self):
        # model init inside the trainer uses default_rng(seed + 1)
        init = StylePredictorModel(np.random.default_rng(1 + 1), n_tags=4,
                                   n_phonemes=8, channels=8)
        frozen, _, _ = train_style_predictor(seed=1, steps=5, warmup_steps=5)
        for name in frozen.params.names():
            if name.startswith("wavenet"):
                np.testing.assert_array_equal(frozen.params[name].data,
                                              init.params[name].data)
        # past the warm-up the estimator does move
        trained, _, _ = train_style_predictor(seed=1, steps=10, warmup_steps=5)
        moved = any(
            not np.array_equal(trained.params[n].data, init.params[n].data)
            for n in trained.params.names() if n.startswith("wavenet"))
        assert moved

    def test_checkpoint_reproduces_loss_at_f32(self, tmp_path):
        model, _, cfg = train_style_predictor(seed=3, steps=20)
        path = tmp_path / "style.vbnd"
        save_checkpoint(model.params, path)
        # quantize the trained model to f32 and reload into a fresh one
        for name in model.params.names():
            t = model.params[name]
            t.data[...] = t.data.astype(np.float32).astype(np.float64)
        fresh = StylePredictorModel(np.random.default_rng(99), n_tags=4,
                                    n_phonemes=8, channels=8)
        load_into(fresh.params, path)
        data = gen_style_toy(3, 4)
        rng = np.random.default_rng(0)
        samples = [FlowSample(x0=rng.standard_normal(s.x1.shape), x1=s.x1, t=0.25)
                   for s in data]
        conds = [(s.phonemes, s.tag, True) for s in data]
        a = cfm_loss(model, samples, conds).item()
        b = cfm_loss(fresh, samples, conds).item()
        assert a == b


class TestAccompPipeline:
    def test_short_run_and_route_trace(self, tmp_path):
        model, losses, cfg, (train_pairs, held) = train_accomp(
            seed=0, steps=3, batch=2, n_pairs=12, n_tags=3, T=16, data_dim=8,
            width=16, experts=2, blocks=1, holdout=4)
        assert len(losses) == 3
        rows = route_trace_rows(model, held[0])
        assert rows, "expected routing rows"
        groups = {r[0] for r in rows}
        assert {"b0.aligned", "b0.controlled", "b0.acoustic", "b0.global"} <= groups
        for _, unit, expert, entropy, tau, t in rows:
            assert 0 <= expert < 2
            assert entropy >= 0
        out = tmp_path / "route.csv"
        write_csv(out, ["group", "unit", "expert", "entropy", "tau", "t"], rows)
        assert out.read_text().splitlines()[0] == "group,unit,expert,entropy,tau,t"


class TestMelodyPipeline:
    def test_short_run_monotone_improvement(self):
        model, losses, (train_songs, held) = train_melody(
            seed=0, steps=40, batch=4, n_songs=30, holdout=5, width=32, layers=1)
        assert np.mean(losses[-5:]) < np.mean(losses[:5])
        acc = melody_pitch_accuracy(model, held)
        assert 0.0 <= acc <= 1.0

    def test_random_baseline_matches_durations(self):
        from bandflow.synth import gen_melody_grammar
        songs = gen_melody_grammar(0, 3)
        base = random_melody_baseline(songs, seed=0)
        for b, s in zip(base, songs):
            assert b.durations == s.notes.durations
            assert b.tempo == s.notes.tempo
