"""Batch axes of the training paths: conv1d, the WaveNet estimator, the style
stack and model, and the note model.  A forward over B rows must equal the
stack of its B one-row calls bit for bit, and its gradients must match
theirs to 1e-12 relative: input gradients row by row, parameter gradients
as the sum over rows."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bandflow.tensor as tt
from bandflow.blocks import style_alignment_stack
from bandflow.flow import WaveNetEstimator
from bandflow.melody import MelodyModel
from bandflow.models import StylePredictorModel
from bandflow.tensor import ParameterStore, Tape, Tensor, backward

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
ROWS = st.integers(1, 5)
LENGTHS = st.integers(1, 9)
SEEDS = st.integers(0, 2 ** 16)


def _randomized(params, seed):
    """Draw every parameter, so that no zero-initialized output hides a
    difference."""
    rng = np.random.default_rng(seed)
    for _, p in params.items():
        p.data[...] = rng.standard_normal(p.shape) * 0.4


def _run(fn, inputs, weights, params):
    """fn's outputs on fresh leaves holding `inputs`, and the gradients of
    sum_k(outputs[k] * weights[k]) for the leaves and the parameters."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in inputs]
    params.zero_grad()
    with Tape():
        outs = fn(*leaves)
        total = None
        for o, w in zip(outs, weights, strict=True):
            term = tt.sum_(tt.mul(o, w))
            total = term if total is None else tt.add(total, term)
        backward(total)
    return ([o.data for o in outs], [leaf.grad for leaf in leaves],
            {name: p.grad.copy() for name, p in params.items()})


def _assert_rel(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def _check(batched, one_row, n, inputs=(), params=None):
    """batched(*inputs) over n rows against one_row(i, *row i of inputs)."""
    params = ParameterStore() if params is None else params
    probe = batched(*[Tensor(a) for a in inputs])
    weights = [np.sin(np.arange(o.size) + 0.5).reshape(o.shape) for o in probe]
    outs, in_grads, p_grads = _run(batched, inputs, weights, params)
    per_row = [_run(lambda *xs, i=i: one_row(i, *xs), [a[i] for a in inputs],
                    [w[i] for w in weights], params) for i in range(n)]
    for k, out in enumerate(outs):
        np.testing.assert_array_equal(out, np.stack([r[0][k] for r in per_row]))
    for k, grad in enumerate(in_grads):
        _assert_rel(grad, np.stack([r[1][k] for r in per_row]))
    for name, grad in p_grads.items():
        _assert_rel(grad, sum(r[2][name] for r in per_row))


@PROPERTY
@given(B=ROWS, T=LENGTHS, c_in=st.integers(1, 4), c_out=st.integers(1, 4),
       dilation=st.integers(1, 3), seed=SEEDS)
@example(B=3, T=1, c_in=2, c_out=3, dilation=2, seed=0)
def test_conv1d(B, T, c_in, c_out, dilation, seed):
    rng = np.random.default_rng(seed)
    params = ParameterStore()
    w = params.add("w", rng.standard_normal((c_out, c_in, 3)))
    b = params.add("b", rng.standard_normal(c_out))

    def conv(i, x):
        return (tt.conv1d(x, w, dilation=dilation, bias=b),)

    _check(lambda x: conv(None, x), conv, B, [rng.standard_normal((B, c_in, T))], params)


@PROPERTY
@given(B=ROWS, T=LENGTHS, channels=st.integers(1, 3), seed=SEEDS)
@example(B=2, T=1, channels=2, seed=0)
def test_wavenet_estimator(B, T, channels, seed):
    rng = np.random.default_rng(seed)
    params = ParameterStore()
    est = WaveNetEstimator(channels, 3, rng, params, residual_channels=4, layers=2)
    _randomized(params, seed + 1)
    times = rng.integers(100, size=B) / 100.0
    _check(lambda x, c: (est(x, times, c),),
           lambda i, x, c: (est(x, float(times[i]), c),),
           B, [rng.standard_normal((B, channels, T)), rng.standard_normal((B, 3, T))],
           params)


@PROPERTY
@given(B=ROWS, P=LENGTHS, prompt=st.integers(1, 4), layers=st.integers(0, 2), seed=SEEDS)
@example(B=4, P=1, prompt=1, layers=2, seed=0)
def test_style_alignment_stack(B, P, prompt, layers, seed):
    rng = np.random.default_rng(seed)

    def stack(i, z_ct, z_p):
        return (style_alignment_stack(z_ct, z_p, layers),)

    _check(lambda z_ct, z_p: stack(None, z_ct, z_p), stack, B,
           [rng.standard_normal((B, P, 4)), rng.standard_normal((B, prompt, 4))])


@PROPERTY
@given(B=ROWS, P=LENGTHS, seed=SEEDS)
@example(B=3, P=1, seed=0)
def test_style_predictor(B, P, seed):
    rng = np.random.default_rng(seed)
    model = StylePredictorModel(rng, n_tags=3, n_phonemes=5, channels=2)
    _randomized(model.params, seed + 1)
    phonemes = rng.integers(5, size=(B, P))
    tags = rng.integers(4, size=B)             # 3 is the null tag
    vocal = rng.uniform(size=B) < 0.5
    times = rng.integers(100, size=B) / 100.0

    def one_clip(i, x):
        # the batch of one, without its batch axis
        cond = (phonemes[i:i + 1], tags[i:i + 1], vocal[i:i + 1])
        out = model(tt.reshape(x, (1,) + x.shape), times[i:i + 1], cond)
        return (tt.reshape(out, x.shape),)

    _check(lambda x: (model(x, times, (phonemes, tags, vocal)),), one_clip, B,
           [rng.standard_normal((B, 2, P))], model.params)


@PROPERTY
@given(B=ROWS, n=LENGTHS, seed=SEEDS)
@example(B=5, n=1, seed=0)
@example(B=2, n=3, seed=1)
def test_melody_model(B, n, seed):
    rng = np.random.default_rng(seed)
    model = MelodyModel(n_phonemes=5, n_tags=3, rng=rng, n_pitches=8, width=8, layers=2)
    _randomized(model.params, seed + 1)
    phonemes = rng.integers(5, size=(B, n))
    tags = rng.integers(3, size=B)
    _check(lambda: model.forward(phonemes, tags),
           lambda i: model.forward(phonemes[i], tags[i]), B, params=model.params)
