import numpy as np
import pytest

import bandflow.tensor as tt
import bandflow.train as train_module

from bandflow.checkpoint import load_into, save_checkpoint
from bandflow.errors import NumericError
from bandflow.flow import FlowSample, MLPEstimator, cfm_loss, stack_flow_samples
from bandflow.melody import MelodyModel, NoteSequence, melody_loss
from bandflow.models import AccompFlowModel, StylePredictorModel
from bandflow.optim import ADAM_BETAS, ADAM_EPS, Adam
from bandflow.synth import MelodySample, gen_melody_grammar, gen_style_toy
from bandflow.tensor import ParameterStore, Tape, Tensor, backward
from acceptance_helpers import flow2d_mode_stats, random_melody_baseline
from bandflow.train import (
    eval_accomp,
    fit,
    melody_batch_loss,
    melody_report,
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
        est1, losses1 = train_flow2d(seed=0, steps=60, batch=64)
        est2, losses2 = train_flow2d(seed=0, steps=60, batch=64)
        assert losses1 == losses2
        assert np.mean(losses1[-10:]) < np.mean(losses1[:10])
        for n1, n2 in zip(est1.params.names(), est2.params.names()):
            np.testing.assert_array_equal(est1.params[n1].data, est2.params[n2].data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_step(self):
        with pytest.raises(NumericError, match="step"):
            train_flow2d(seed=0, steps=200, batch=16, lr=1e160)

    def test_mode_stats_shape(self):
        est, _ = train_flow2d(seed=0, steps=5, batch=32)
        stats = flow2d_mode_stats(sample_flow2d(est, 100, seed=1, trace=None))
        assert stats["weight_left"] + stats["weight_right"] == pytest.approx(1.0)


class TestStylePredictorPipeline:
    def test_loss_halves(self):
        _, losses = train_style_predictor(seed=0, steps=400)
        assert np.mean(losses[-10:]) < 0.5 * losses[0]

    def test_warmup_freezes_estimator(self):
        # model init inside the trainer uses default_rng(seed + 1)
        init = StylePredictorModel(np.random.default_rng(1 + 1), n_tags=4,
                                   n_phonemes=8, channels=8)
        frozen, _ = train_style_predictor(seed=1, steps=5, warmup_steps=5)
        for name in frozen.params.names():
            if name.startswith("wavenet"):
                np.testing.assert_array_equal(frozen.params[name].data,
                                              init.params[name].data)
        # past the warm-up the estimator does move
        trained, _ = train_style_predictor(seed=1, steps=10, warmup_steps=5)
        moved = any(
            not np.array_equal(trained.params[n].data, init.params[n].data)
            for n in trained.params.names() if n.startswith("wavenet"))
        assert moved

    def test_checkpoint_reproduces_loss_at_f32(self, tmp_path):
        model, _ = train_style_predictor(seed=3, steps=20)
        path = tmp_path / "style.vbnd"
        save_checkpoint(model.params, path)
        # quantize the trained model to f32 and reload into a fresh one
        for name in model.params.names():
            t = model.params[name]
            t.data[...] = t.data.astype(np.float32).astype(np.float64)
        fresh = StylePredictorModel(np.random.default_rng(99), n_tags=4,
                                    n_phonemes=8, channels=8)
        load_into(fresh.params, path)
        data = gen_style_toy(3, 4, n_tags=4)
        rng = np.random.default_rng(0)
        samples = stack_flow_samples(
            [FlowSample(x0=rng.standard_normal(s.x1.shape), x1=s.x1, t=0.25) for s in data])
        conds = (np.stack([s.phonemes for s in data]), np.array([s.tag for s in data]),
                 np.ones(len(data), dtype=bool))
        a = cfm_loss(model, samples, conds).item()
        b = cfm_loss(fresh, samples, conds).item()
        assert a == b


class _PerNameAdam:
    """The per-name Adam loop that the packed segments replaced: the oracle
    for every bit of the packed update."""

    def __init__(self, store, lr):
        self.store = store
        self.lr = lr
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in store.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in store.items()}

    def step(self, skip):
        self.t += 1
        b1, b2 = ADAM_BETAS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.store.items():
            if skip is not None and skip(name):
                continue
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * p.grad * p.grad
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    def zero_grad(self):
        for _, p in self.store.items():
            p.grad[...] = 0.0


@pytest.mark.parametrize("frozen", [
    None,
    lambda name: name.startswith("wavenet"),     # the style warm-up
    lambda name: name == "cond.tag_emb",         # splits a segment in two runs
], ids=["none", "warmup", "mid_name"])
def test_packed_adam_matches_the_per_name_loop_bitwise(monkeypatch, frozen):
    """40 style steps, `frozen` held for the first 20, give the same float64
    parameters and losses with the packed Adam as with the per-name loop."""
    real_fit = train_module.fit

    def run(opt_class):
        monkeypatch.setattr(train_module, "Adam", opt_class)
        monkeypatch.setattr(train_module, "fit", lambda opt, steps, draws, skip: real_fit(
            opt, steps, draws, skip=lambda step: frozen if step < 20 else None))
        model, losses = train_style_predictor(seed=0, steps=40)
        return [x.hex() for x in losses], {n: p.data.tobytes() for n, p in model.params.items()}

    assert run(Adam) == run(_PerNameAdam)


def _stores_and_leaves(obj, seen, stores, leaves):
    """Every ParameterStore and trainable Tensor reachable from `obj` through
    the attributes of bandflow objects, lists, tuples and dicts."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, ParameterStore):
        stores.append(obj)
    elif isinstance(obj, Tensor):
        if obj.requires_grad:
            leaves.append(obj)
    elif isinstance(obj, (list, tuple, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            _stores_and_leaves(item, seen, stores, leaves)
    elif type(obj).__module__.startswith("bandflow."):
        for item in vars(obj).values():
            _stores_and_leaves(item, seen, stores, leaves)


@pytest.mark.parametrize("make", [
    lambda rng: MLPEstimator(2, 8, rng),
    lambda rng: AccompFlowModel(rng, 3, data_dim=4, width=8, blocks=2, experts=2),
    lambda rng: StylePredictorModel(rng, n_tags=4, n_phonemes=8, channels=8),
    lambda rng: MelodyModel(n_phonemes=7, n_tags=12, rng=rng, width=8, layers=2),
], ids=["flow2d", "accomp", "style", "melody"])
def test_a_model_is_one_store_its_submodules_build_into(make):
    model = make(np.random.default_rng(0))
    stores, leaves = [], []
    _stores_and_leaves(model, set(), stores, leaves)
    assert stores == [model.params]
    owned = {id(model.params[name]) for name in model.params.names()}
    assert leaves and all(id(t) in owned for t in leaves)


def test_accomp_segments_stay_under_128_kib():
    store = AccompFlowModel(np.random.default_rng(0), 3, experts=4).params
    names = store.names()
    segments = store.pack()
    assert [n for seg in segments for n in seg.names] == names
    for seg in segments:
        assert seg.data.nbytes < 128 * 1024 or len(seg.names) == 1


class TestAccompPipeline:
    def test_short_run_and_route_trace(self, tmp_path):
        model, losses, (train_pairs, held) = train_accomp(
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


class TestAccompGradientSum:
    """train_accomp sums the gradients of its `batch` tapes into one step and
    logs the mean of their losses."""

    KW = dict(seed=0, steps=1, batch=3, n_pairs=12, n_tags=3, T=16, data_dim=8,
              width=16, experts=2, blocks=1, holdout=4)

    def test_step_gradient_is_sum_and_loss_is_mean(self, monkeypatch):
        stepped = {}

        class Recorder:
            def __init__(self, params, lr):
                self.params = params

            def step(self, skip=None):
                stepped.update((n, t.grad.copy()) for n, t in self.params.items())

            def zero_grad(self):
                self.params.zero_grad()

        monkeypatch.setattr(train_module, "Adam", Recorder)
        _, losses, _ = train_accomp(**self.KW)

        per_sample = []

        def fit_per_sample(opt, steps, draws, skip=None):
            # the same draws in the same order, one gradient snapshot per tape
            for build in draws(0):
                with Tape():
                    loss = build()
                    backward(loss)
                per_sample.append((loss.item(), {n: t.grad.copy() for n, t in opt.params.items()}))
                opt.zero_grad()
            return []

        monkeypatch.setattr(train_module, "fit", fit_per_sample)
        train_accomp(**self.KW)
        assert len(per_sample) == 3
        assert losses == [sum(loss for loss, _ in per_sample) / 3]
        for name, grad in stepped.items():
            total = per_sample[0][1][name] + per_sample[1][1][name] + per_sample[2][1][name]
            np.testing.assert_allclose(grad, total, rtol=1e-12, atol=1e-14, err_msg=name)
        assert max(np.abs(g).max() for g in stepped.values()) > 0


def _op_counter(monkeypatch):
    """A one-element list that counts the tensor ops made, at tensor._make."""
    made = [0]
    make = tt._make

    def counting(out, pairs):
        made[0] += 1
        return make(out, pairs)

    monkeypatch.setattr(tt, "_make", counting)
    return made


def test_accomp_op_counts_stay_at_most_the_fused_counts(monkeypatch):
    """Tensor ops, counted at tensor._make, of one 4-sample dense accomp
    training step and of a guided eval_accomp (gamma 3, 16 held-out clips,
    25 Euler steps).  The bounds are the counts with every expert stage and
    the global mix fused (ffn and gated_sum), the attention heads split and
    merged in one op each, the guided eval's condition-free stem run once
    per clip, and its hard-routed acoustic groups running only the experts
    some channel picks; an op chain that comes back in their place, or an
    unpicked expert run again, raises them."""
    made = _op_counter(monkeypatch)
    model, _, (_, held) = train_accomp(seed=0, steps=1)
    assert made[0] <= 764
    made[0] = 0
    assert len(held) == 16
    eval_accomp(model, held, n_tags=model.n_tags, seed=0, gamma=3.0, infer_steps=25)
    assert made[0] <= 14500


def test_flow2d_op_count_stays_at_most_the_ffn_count(monkeypatch):
    """Tensor ops of one flow2d training step; the bound is the count with
    the MLP's hidden layers as one ffn (the per-layer chain took 14)."""
    made = _op_counter(monkeypatch)
    train_flow2d(seed=0, steps=1)
    assert made[0] <= 10


class _Recorder:
    """Stands in for Adam: keeps each parameter's gradient at the step."""

    stepped = {}

    def __init__(self, params, lr):
        self.params = params

    def step(self, skip=None):
        self.stepped.update((n, t.grad.copy()) for n, t in self.params.items())

    def zero_grad(self):
        self.params.zero_grad()


def _one_step(monkeypatch, run):
    """The logged loss and the parameter gradients of one training step."""
    monkeypatch.setattr(_Recorder, "stepped", {})
    monkeypatch.setattr(train_module, "Adam", _Recorder)
    losses = run()[1]
    assert len(losses) == 1
    return losses[0], _Recorder.stepped


def _assert_same_step(batched, oracle):
    (loss, grads), (ref_loss, ref_grads) = batched, oracle
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-12,
                                   atol=1e-12 * np.abs(ref_grads[name]).max(), err_msg=name)
    assert max(np.abs(g).max() for g in grads.values()) > 0


def _per_sample_cfm_loss(estimator, sample, cond):
    """The oracle: the loop the batched cfm_loss replaced, the mean of one
    batch-of-one loss per sample."""
    total = None
    n = sample.x0.shape[0]
    for i in range(n):
        row = FlowSample(x0=sample.x0[i:i + 1], x1=sample.x1[i:i + 1], t=sample.t[i:i + 1])
        term = cfm_loss(estimator, row, tuple(c[i:i + 1] for c in cond))
        total = term if total is None else tt.add(total, term)
    return tt.mul(total, 1.0 / n)


def _per_song_loss(model, songs):
    """The oracle: the loop melody_batch_loss replaced, one forward per song."""
    total = None
    for s in songs:
        logits, durs = model.forward(s.phonemes[None], [s.tag])
        term = tt.mul(melody_loss(logits, durs, [s.notes]), 1.0 / len(s.notes))
        total = term if total is None else tt.add(total, term)
    return tt.mul(total, 1.0 / len(songs))


def _randomized(model_class, scale=0.3):
    """model_class with every parameter redrawn at random after init."""
    class Randomized(model_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rng = np.random.default_rng(7)
            for _, p in self.params.items():
                p.data[...] = rng.standard_normal(p.shape) * scale

    return Randomized


@pytest.mark.parametrize("model,scale,run", [
    ("MLPEstimator", 0.3, lambda: train_flow2d(seed=2, steps=1)),
    ("StylePredictorModel", 0.3, lambda: train_style_predictor(seed=2, steps=1)),
    # 0.3 overflows the wider accomp model's activations
    ("AccompFlowModel", 0.1, lambda: train_accomp(seed=2, steps=1)),
    ("MelodyModel", 0.3, lambda: train_melody(seed=2, steps=1)),
])
def test_every_parameter_gets_a_gradient(monkeypatch, model, scale, run):
    """One training step of each model, with every parameter drawn at
    random: a parameter whose gradient is exactly zero does not reach the
    loss, so it is dead weight."""
    monkeypatch.setattr(train_module, model,
                        _randomized(getattr(train_module, model), scale))
    _, grads = _one_step(monkeypatch, run)
    assert [name for name, g in grads.items() if not g.any()] == []


class TestBatchedStepsMatchPerSampleLoops:
    """One batched forward per style and melody step: its gradient and logged
    loss equal those of the per-sample loop it replaced, to 1e-12."""

    def test_style_step(self, monkeypatch):
        # the zero-initialized WaveNet output would zero most gradients
        monkeypatch.setattr(train_module, "StylePredictorModel",
                            _randomized(StylePredictorModel))

        def run():
            return train_style_predictor(seed=2, steps=1)

        batched = _one_step(monkeypatch, run)
        monkeypatch.setattr(train_module, "cfm_loss", _per_sample_cfm_loss)
        _assert_same_step(batched, _one_step(monkeypatch, run))

    def test_melody_step(self, monkeypatch):
        def run():
            return train_melody(seed=2, steps=1)

        batched = _one_step(monkeypatch, run)
        monkeypatch.setattr(train_module, "melody_batch_loss", _per_song_loss)
        _assert_same_step(batched, _one_step(monkeypatch, run))

    def test_melody_loss_over_mixed_lengths(self):
        songs = gen_melody_grammar(3, 7)
        cut = [3, 16, 1, 3, 9, 16, 1]
        songs = [MelodySample(phonemes=s.phonemes[:k], tag=s.tag,
                              notes=NoteSequence(pitches=s.notes.pitches[:k],
                                                 durations=s.notes.durations[:k]))
                 for s, k in zip(songs, cut)]
        results = []
        for loss_fn in (melody_batch_loss, _per_song_loss):
            model = MelodyModel(n_phonemes=7, n_tags=12, rng=np.random.default_rng(5),
                                width=16, layers=1)
            with Tape():
                loss = loss_fn(model, songs)
                backward(loss)
            results.append((loss.item(), {n: t.grad.copy() for n, t in model.params.items()}))
        _assert_same_step(*results)


def test_style_and_melody_op_counts_stay_at_most_the_batched_counts(monkeypatch):
    """Tensor ops, counted at tensor._make, of one style and one melody
    training step.  The bounds are the counts of one batched forward per
    step (the per-sample loops took 248 and 344), with no residual product
    in the WaveNet's last layer; a loop that comes back raises them."""
    made = _op_counter(monkeypatch)
    train_style_predictor(seed=0, steps=1)
    assert made[0] <= 59
    made[0] = 0
    train_melody(seed=0, steps=1)
    assert made[0] <= 44


class TestMelodyPipeline:
    def test_short_run_monotone_improvement(self):
        model, losses, (train_songs, held) = train_melody(
            seed=0, steps=40, batch=4, n_songs=30, holdout=5, width=32, layers=1)
        assert np.mean(losses[-5:]) < np.mean(losses[:5])
        acc, _, _ = melody_report(model, held)
        assert 0.0 <= acc <= 1.0

    def test_random_baseline_matches_durations(self):
        from bandflow.synth import gen_melody_grammar
        songs = gen_melody_grammar(0, 3)
        base = random_melody_baseline(songs, seed=0)
        for b, s in zip(base, songs):
            assert b.durations == s.notes.durations
            assert b.tempo == s.notes.tempo
