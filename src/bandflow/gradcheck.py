"""Finite-difference verification of every differentiable operation.

For each op a random scalar functional of its output is built; the analytic
gradient from the tape is compared against central differences (step 1e-5,
float64) elementwise.  Relative error uses max(1, |a|, |n|) in the
denominator.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tensor as tt
from .blocks import rope_rotate, sdp_attention
from .moe import _channel_column, _token_column
from .tensor import Tape, Tensor, backward

FD_STEP = 1e-5


def numeric_grad(fn, inputs):
    """Central-difference gradients of scalar fn(*inputs) w.r.t. each input."""
    grads = []
    for t in inputs:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = fn(*inputs)
            flat[i] = orig - FD_STEP
            lo = fn(*inputs)
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def analytic_grad(fn_t, inputs):
    for t in inputs:
        t.requires_grad = True
        t.zero_grad()
    with Tape():
        loss = fn_t(*inputs)
        backward(loss)
    return [t.grad.copy() for t in inputs]


def rel_error(a, n):
    return float(np.max(np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))))


def check_op(fn_t, inputs, rng):
    """Worst relative error of analytic vs numeric gradient for one case.

    fn_t maps Tensors to a Tensor; the scalar functional contracts the
    output with fixed random weights.
    """
    probe = fn_t(*inputs)
    w = rng.standard_normal(probe.shape)

    def scalar_t(*args):
        return tt.sum_(tt.mul(fn_t(*args), w))

    def scalar_n(*args):
        return float((fn_t(*args).data * w).sum())

    ana = analytic_grad(scalar_t, inputs)
    num = numeric_grad(scalar_n, inputs)
    return max(rel_error(a, n) for a, n in zip(ana, num))


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _cases(rng):
    """op name -> (fn_t, inputs) builders with freshly randomized shapes."""
    m, k, n = (int(rng.integers(2, 5)) for _ in range(3))
    T = int(rng.integers(3, 6))
    d2 = 2 * int(rng.integers(1, 4))
    cin, cout, width = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 3
    classes = int(rng.integers(3, 7))
    rows = int(rng.integers(2, 5))
    targets = rng.integers(classes, size=rows)
    gidx = rng.integers(m, size=int(rng.integers(2, 6)))
    dilation = int(rng.integers(1, 3))
    heads = int(rng.integers(2, 4))
    positions = rng.uniform(-3.0, 20.0, size=T)

    def ffn_inputs(*lead):
        return [_t(rng, *lead, k), _t(rng, k, n), _t(rng, n), _t(rng, n, m), _t(rng, m)]

    def gated_sum(key):
        return lambda gates, *outs: tt.gated_sum(outs, gates, key)

    return {
        "add": (lambda a, b: tt.add(a, b), [_t(rng, m, n), _t(rng, m, n)]),
        "sub": (lambda a, b: tt.sub(a, b), [_t(rng, m, n), _t(rng, m, n)]),
        "mul": (lambda a, b: tt.mul(a, b), [_t(rng, m, n), _t(rng, m, n)]),
        "mul_broadcast": (lambda a, b: tt.mul(a, b), [_t(rng, m, n), _t(rng, n)]),
        "matmul": (lambda a, b: tt.matmul(a, b), [_t(rng, m, k), _t(rng, k, n)]),
        "matmul_batched": (lambda a, b: tt.matmul(a, b), [_t(rng, heads, m, k), _t(rng, k, n)]),
        "matmul_stacked": (lambda a, b: tt.matmul(a, b),
                           [_t(rng, heads, m, k), _t(rng, heads, k, n)]),
        "matmul_broadcast": (lambda a, b: tt.matmul(a, b),
                             [_t(rng, 1, m, k), _t(rng, heads, k, n)]),
        "swapaxes": (lambda a: tt.swapaxes(a, 0, -1), [_t(rng, heads, m, n)]),
        "reshape": (lambda a: tt.reshape(a, (n, m)), [_t(rng, m, n)]),
        "getitem": (lambda a: a[1:, ::2], [_t(rng, m + 1, 2 * n)]),
        "concat": (lambda a, b: tt.concat([a, b], axis=0), [_t(rng, m, n), _t(rng, k, n)]),
        "tanh": (lambda a: tt.tanh(a), [_t(rng, m, n)]),
        "sigmoid": (lambda a: tt.sigmoid(a), [_t(rng, m, n)]),
        "silu": (lambda a: tt.silu(a), [_t(rng, m, n)]),
        "softplus": (lambda a: tt.softplus(a), [_t(rng, m, n)]),
        "sum": (lambda a: tt.sum_(a, axis=0), [_t(rng, m, n)]),
        "mean": (lambda a: tt.mean(a, axis=1), [_t(rng, m, n)]),
        "softmax": (lambda a: tt.softmax(a, axis=-1), [_t(rng, m, classes)]),
        "rmsnorm": (lambda a, g: tt.rmsnorm(a, g), [_t(rng, m, n), _t(rng, n)]),
        "rmsnorm_3d": (lambda a, g: tt.rmsnorm(a, g), [_t(rng, heads, m, n), _t(rng, n)]),
        "layernorm": (lambda a: tt.layernorm(a), [_t(rng, m, n)]),
        "layernorm_3d": (lambda a: tt.layernorm(a), [_t(rng, heads, m, n)]),
        "adaln": (lambda a, s, b: tt.adaln(a, s, b),
                  [_t(rng, m, n), _t(rng, n), _t(rng, n)]),
        "conv1d": (lambda x, w, b: tt.conv1d(x, w, dilation=dilation, bias=b),
                   [_t(rng, cin, T + 2), _t(rng, cout, cin, width), _t(rng, cout)]),
        "cross_entropy": (lambda a: tt.cross_entropy(a, targets), [_t(rng, rows, classes)]),
        "mse": (lambda a, b: tt.mse(a, b), [_t(rng, m, n), _t(rng, m, n)]),
        "gather": (lambda a: tt.gather(a, gidx), [_t(rng, m, n)]),
        "rope_rotate": (lambda a: rope_rotate(a), [_t(rng, T, d2)]),
        "rope_rotate_heads": (lambda a: rope_rotate(a, heads=heads), [_t(rng, T, heads * d2)]),
        "rope_rotate_pos": (lambda a: rope_rotate(a, positions=positions, heads=heads),
                            [_t(rng, T, heads * d2)]),
        "sdp_attention": (lambda q, k_, v: sdp_attention(q, k_, v),
                          [_t(rng, m, d2), _t(rng, k, d2), _t(rng, k, n)]),
        "sdp_attention_heads": (lambda q, k_, v: sdp_attention(q, k_, v),
                                [_t(rng, heads, m, d2), _t(rng, heads, k, d2),
                                 _t(rng, heads, k, n)]),
        "sdp_shared_kv": (lambda q, k_, v: sdp_attention(q, k_, v),
                          [_t(rng, heads, m, d2), _t(rng, k, d2), _t(rng, k, n)]),
        "matmul_batched_rows": (lambda a, b: tt.matmul(a, b),
                                [_t(rng, heads, 1, k), _t(rng, k, n)]),
        "rope_rotate_batched": (lambda a: rope_rotate(a, heads=heads),
                                [_t(rng, rows, T, heads * d2)]),
        "sdp_attention_4d": (lambda q, k_, v: sdp_attention(q, k_, v),
                             [_t(rng, rows, heads, m, d2), _t(rng, rows, heads, k, d2),
                              _t(rng, rows, heads, k, n)]),
        "ffn": (tt.ffn, ffn_inputs(m)),
        "ffn_batched": (tt.ffn, ffn_inputs(rows, T)),
        "ffn_lone_row": (tt.ffn, ffn_inputs(rows, 1)),
        "gated_sum_tokens": (gated_sum(_token_column),
                             [_t(rng, m, heads)] + [_t(rng, m, n) for _ in range(heads)]),
        "gated_sum_channels": (gated_sum(_channel_column),
                               [_t(rng, rows, n, heads)]
                               + [_t(rng, rows, T, n) for _ in range(heads)]),
        "gated_sum_lone_row": (gated_sum(_channel_column),
                               [_t(rng, rows, n, heads)]
                               + [_t(rng, rows, 1, n) for _ in range(heads)]),
        "conv1d_batched": (lambda x, w, b: tt.conv1d(x, w, dilation=2, bias=b),
                           [_t(rng, rows, cin, T + 2), _t(rng, cout, cin, width),
                            _t(rng, cout)]),
        "gather_2d": (functools.partial(tt.gather, indices=rng.integers(m, size=(rows, T))),
                      [_t(rng, m, n)]),
    }


def gradcheck_all(trials, seed=0):
    """Worst relative error per op over `trials` randomized shapes."""
    rng = np.random.default_rng(seed)
    worst = {}
    for _ in range(trials):
        for name, (fn, inputs) in _cases(rng).items():
            err = check_op(fn, inputs, rng)
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
