"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: operations executed inside a ``with Tape():`` block record
their local gradient rules onto that tape; ``backward(loss)`` replays the
tape in reverse append order.  Outside a tape every op is forward-only.

Gradients are accumulated in ``Tensor.grad`` (same shape as the tensor,
allocated lazily, zeros for leaves that never participate).  Data is
float64, so finite-difference checks are meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BoundsError,
    ConfigError,
    DimensionError,
    NumericError,
    StateError,
)

__all__ = [
    "Tensor",
    "Tape",
    "ParameterStore",
    "backward",
    "add",
    "sub",
    "mul",
    "matmul",
    "ffn",
    "gated_sum",
    "swapaxes",
    "rotate_pairs",
    "reshape",
    "getitem",
    "concat",
    "tanh",
    "sigmoid",
    "silu",
    "softplus",
    "sum_",
    "mean",
    "softmax",
    "attention",
    "rmsnorm",
    "layernorm",
    "adaln",
    "conv1d",
    "cross_entropy",
    "mse",
    "gather",
]

RMSNORM_EPS = 1e-6
LAYERNORM_EPS = 1e-5


class Tensor:
    """A dense n-dimensional array that can carry a gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad=False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.size != 1:
            raise DimensionError(f"expected scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0
        elif self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return getitem(self, key)


class _Node:
    __slots__ = ("out", "pairs")

    def __init__(self, out, pairs):
        self.out = out
        self.pairs = pairs


class Tape:
    """Append-only record of operations; replayed backwards exactly once."""

    def __init__(self):
        self.nodes = []
        self._used = False
        self._prev = None

    def __enter__(self):
        global _TAPE
        self._prev = _TAPE
        _TAPE = self
        return self

    def __exit__(self, *exc):
        global _TAPE
        _TAPE = self._prev
        return False

    def backward(self, loss):
        if self._used:
            raise StateError("backward already ran on this tape")
        if loss.size != 1:
            raise DimensionError(f"loss must be scalar, got shape {loss.shape}")
        self._used = True
        loss.accumulate(np.ones_like(loss.data))
        for node in reversed(self.nodes):
            g = node.out.grad
            if g is not None:
                for inp, fn in node.pairs:
                    if inp.requires_grad:
                        inp.accumulate(fn(g))
            # break the tape -> node -> output -> tape cycle so intermediates
            # (and the inputs their closures captured) die by refcount
            node.out = node.pairs = None


_TAPE = None


def _make(out_data, pairs):
    """Wrap op output; record on the active tape when gradients are needed."""
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = False
    out.grad = None
    out.tape = None
    if _TAPE is None:
        return out
    kept = [(t, f) for t, f in pairs if t.requires_grad]
    if kept:
        out.requires_grad = True
        _TAPE.nodes.append(_Node(out, kept))
        out.tape = _TAPE
    return out


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def backward(loss):
    """Run reverse-mode accumulation from a scalar loss."""
    if not isinstance(loss, Tensor) or loss.tape is None:
        raise StateError("loss is not attached to a tape; run it inside `with Tape():`")
    loss.tape.backward(loss)


# ---------------------------------------------------------------------------
# broadcasting discipline: shapes must be equal, or one operand must
# broadcast against the other's trailing axes (scalars included); anything
# that would produce a brand-new shape is a DimensionError.

def _check_broadcast(a, b):
    sa, sb = a.shape, b.shape
    if sa == sb:
        return sa
    # np.broadcast_shapes in plain Python: it is called on every elementwise
    # op, where its generic path costs more than the arithmetic
    n = max(len(sa), len(sb))
    out_shape = []
    for x, y in zip((1,) * (n - len(sa)) + sa, (1,) * (n - len(sb)) + sb):
        if x != y and x != 1 and y != 1:
            raise DimensionError(f"incompatible shapes {sa} and {sb}")
        out_shape.append(x if y == 1 else y)
    out_shape = tuple(out_shape)
    if out_shape != sa and out_shape != sb:
        raise DimensionError(
            f"broadcast of {sa} and {sb} would create new shape {out_shape}"
        )
    return out_shape


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b)
    out = a.data + b.data
    return _make(out, [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ])


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b)
    out = a.data - b.data
    return _make(out, [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(-g, b.shape)),
    ])


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b)
    out = a.data * b.data
    return _make(out, [
        (a, lambda g: _unbroadcast(g * b.data, a.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.shape)),
    ])


def tanh(a):
    a = _as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, [(a, lambda g: g * (1.0 - out * out))])


def _sigmoid(x):
    """1 / (1 + exp(-x)) as a new array: negate, exp, +1 and reciprocal, in
    place.  Below about -709 exp(-x) overflows to inf and the result is the
    exact 0, so that overflow is not warned about."""
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def sigmoid(a):
    a = _as_tensor(a)
    out = _sigmoid(a.data)
    return _make(out, [(a, lambda g: g * out * (1.0 - out))])


def silu(a):
    a = _as_tensor(a)
    s = _sigmoid(a.data)
    out = a.data * s
    return _make(out, [(a, lambda g: g * (s + a.data * s * (1.0 - s)))])


def softplus(a):
    a = _as_tensor(a)
    out = np.logaddexp(0.0, a.data)
    s = _sigmoid(a.data)
    return _make(out, [(a, lambda g: g * s)])


# ---------------------------------------------------------------------------
# linear algebra / shape ops

def _fold(x, y):
    """x @ y for x [..., rows, k] and y [k, n], as one GEMM over the folded
    rows, so each row's bits are those of the 2-D product.

    A lone row with leading axes ([..., 1, k]) stays a stack: numpy
    multiplies a [1, k] matrix with gemv, which rounds differently from a
    GEMM over the folded rows.  So does a one-column y ([k, 1]): gemv's
    rows round differently with the row count unless it is a multiple of 4.
    """
    if x.ndim == 2 or x.shape[-2] == 1 or y.shape[1] == 1:
        return x @ y
    return (x.reshape(-1, x.shape[-1]) @ y).reshape(x.shape[:-1] + y.shape[1:])


def _fold_grad(x, g):
    """The weight gradient x^T @ g of _fold(x, w), g [..., rows, n]; a lone
    row's stack is summed over its leading axes."""
    if x.ndim == 2:
        return x.T @ g
    if x.shape[-2] == 1:
        return _unbroadcast(np.swapaxes(x, -1, -2) @ g, (x.shape[-1], g.shape[-1]))
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a, b):
    """Matrix product; leading batch axes broadcast as in np.matmul."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul expects operands of rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    if b.ndim == 2:
        return _make(_fold(a.data, b.data), [
            (a, lambda g: _fold(g, b.data.T)),
            (b, lambda g: _fold_grad(a.data, g)),
        ])
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise DimensionError(f"matmul batch axes differ: {a.shape} vs {b.shape}") from None
    out = a.data @ b.data
    return _make(out, [
        (a, lambda g: _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)),
        (b, lambda g: _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)),
    ])


def ffn(h, w1, b1, w2, b2):
    """silu(h @ w1 + b1) @ w2 + b2 as one op, bitwise the chain of matmul,
    add, silu, matmul and add it replaces.

    h: [..., rows, d], w1: [d, hidden], b1: [hidden], w2: [hidden, n],
    b2: [n].  The bias adds run in place and the sigmoid is silu's
    (_sigmoid); the sigmoid and the activation are the arrays kept for the
    backward, whose closures share one d(pre-activation).
    """
    h, w1, b1, w2, b2 = (_as_tensor(x) for x in (h, w1, b1, w2, b2))
    if h.ndim < 2 or w1.ndim != 2 or w2.ndim != 2:
        raise DimensionError(
            f"ffn expects h[..., rows, d] and 2-D weights, got {h.shape}, {w1.shape}, {w2.shape}")
    if h.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise DimensionError(f"ffn inner extents differ: {h.shape}, {w1.shape}, {w2.shape}")
    if b1.shape != w1.shape[1:] or b2.shape != w2.shape[1:]:
        raise DimensionError(f"ffn bias shapes {b1.shape}, {b2.shape} do not match "
                             f"weights {w1.shape}, {w2.shape}")
    act = _fold(h.data, w1.data)
    act += b1.data
    sig = _sigmoid(act)
    act *= sig
    out = _fold(act, w2.data)
    out += b2.data

    memo = []

    def grad_pre(g):
        # g @ w2^T times silu's derivative sig + act * (1 - sig)
        if not memo or memo[0] is not g:
            d = np.subtract(1.0, sig)
            d *= act
            d += sig
            d *= _fold(g, w2.data.T)
            memo[:] = [g, d]
        return memo[1]

    return _make(out, [
        (h, lambda g: _fold(grad_pre(g), w1.data.T)),
        (w1, lambda g: _fold_grad(h.data, grad_pre(g))),
        (b1, lambda g: _unbroadcast(grad_pre(g), b1.shape)),
        (w2, lambda g: _fold_grad(act, g)),
        (b2, lambda g: _unbroadcast(g, b2.shape)),
    ])


def gated_sum(outs, gates, key):
    """sum_i outs[i] * gates[key(i)] as one op, the terms added in order.

    `key(i)` indexes the gate column of term i (basic indexing only), which
    broadcasts against outs[i].  The backward writes every column's
    gradient into one zero buffer, as getitem's backward does.
    """
    outs, gates = [_as_tensor(o) for o in outs], _as_tensor(gates)
    if not outs:
        raise DimensionError("gated_sum needs at least one term")
    cols = [gates.data[key(i)] for i in range(len(outs))]
    for o, c in zip(outs, cols):
        if o.shape != outs[0].shape or _check_broadcast(o, c) != o.shape:
            raise DimensionError(f"gated_sum term {o.shape} and gate column {c.shape} "
                                 f"do not give {outs[0].shape}")
    out = outs[0].data * cols[0]
    term = np.empty_like(out)
    for o, c in zip(outs[1:], cols[1:]):
        np.multiply(o.data, c, out=term)
        out += term

    def grad_gates(g):
        buf = np.zeros_like(gates.data)
        for i, (o, c) in enumerate(zip(outs, cols)):
            buf[key(i)] += _unbroadcast(g * o.data, c.shape)
        return buf

    return _make(out, [(o, lambda g, c=c: g * c) for o, c in zip(outs, cols)]
                 + [(gates, grad_gates)])


def swapaxes(a, axis1, axis2):
    a = _as_tensor(a)
    try:
        out = np.swapaxes(a.data, axis1, axis2).copy()
    except ValueError:
        raise DimensionError(f"cannot swap axes {axis1} and {axis2} of shape {a.shape}") from None
    return _make(out, [(a, lambda g: np.swapaxes(g, axis1, axis2))])


def reshape(a, shape):
    a = _as_tensor(a)
    out = a.data.reshape(shape).copy()
    return _make(out, [(a, lambda g: g.reshape(a.shape))])


def getitem(a, key):
    a = _as_tensor(a)
    out = a.data[key]
    out = np.array(out, copy=True)

    parts = key if isinstance(key, tuple) else (key,)
    fancy = any(isinstance(p, (np.ndarray, list)) for p in parts)

    def grad_fn(g):
        buf = np.zeros_like(a.data)
        if fancy:
            np.add.at(buf, key, g)
        else:
            buf[key] += g
        return buf

    return _make(out, [(a, grad_fn)])


def concat(parts, axis=0):
    parts = [_as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def make_fn(i):
        lo, hi = offsets[i], offsets[i + 1]

        def fn(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        return fn

    return _make(out, [(p, make_fn(i)) for i, p in enumerate(parts)])


# ---------------------------------------------------------------------------
# reductions

def sum_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    out = np.asarray(out)

    def grad_fn(g):
        if axis is None:
            return np.full_like(a.data, float(g))
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.shape).copy()

    return _make(out, [(a, grad_fn)])


def mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# normalization and activation composites with bespoke gradients

def softmax(a, axis=-1):
    a = _as_tensor(a)
    if not np.isfinite(a.data).all():
        raise NumericError("softmax input contains non-finite values")
    # shift, exp and normalise in one buffer
    out = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return _make(out, [(a, grad_fn)])


def attention(q, k, v, scale):
    """softmax(scale * q k^T) v over the last two axes, as one op.

    q: [..., Tq, d], k: [..., Tk, d], v: [..., Tk, dv]; leading axes
    broadcast as in matmul.  One [..., Tq, Tk] buffer holds the scores and
    then the probabilities, the only array kept for the backward: at a few
    hundred tokens each extra temporary of that size costs page faults.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if min(q.ndim, k.ndim, v.ndim) < 2:
        raise DimensionError(
            f"attention expects operands of rank >= 2, got {q.shape}, {k.shape}, {v.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"key/value counts differ: {k.shape[-2]} vs {v.shape[-2]}")
    if k.shape[-2] == 0:
        raise DimensionError(f"attention over zero keys: {k.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise DimensionError(f"query width {q.shape[-1]} != key width {k.shape[-1]}")
    try:
        np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    except ValueError:
        raise DimensionError(
            f"attention batch axes differ: {q.shape}, {k.shape}, {v.shape}") from None
    qs = q.data * scale
    p = qs @ np.swapaxes(k.data, -1, -2).copy()
    if not np.isfinite(p).all():
        raise NumericError("attention scores contain non-finite values")
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = p @ v.data

    memo = []

    def grad_scores(g):
        # d loss / d scores, shared by the q and k closures of one backward
        if not memo or memo[0] is not g:
            ds = g @ np.swapaxes(v.data, -1, -2)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            memo[:] = [g, ds]
        return memo[1]

    return _make(out, [
        (q, lambda g: _unbroadcast((grad_scores(g) @ k.data) * scale, q.shape)),
        (k, lambda g: _unbroadcast(np.swapaxes(grad_scores(g), -1, -2) @ qs, k.shape)),
        (v, lambda g: _unbroadcast(np.swapaxes(p, -1, -2) @ g, v.shape)),
    ])


def rotate_pairs(a, cos, sin):
    """Rotate coordinate pairs (a[..., 2j], a[..., 2j+1]) by angles given as
    cos/sin tables whose shape is a trailing part of
    a.shape[:-1] + (a.shape[-1] // 2,); they broadcast over the leading axes.

    The gradient is the incoming gradient rotated by the negated angles.
    """
    a = _as_tensor(a)
    if a.shape[-1] % 2 != 0:
        raise ConfigError(f"pair rotation needs an even width, got {a.shape[-1]}")
    half_shape = a.shape[:-1] + (a.shape[-1] // 2,)
    tail = half_shape[len(half_shape) - np.ndim(cos):]
    if np.shape(cos) != tail or np.shape(sin) != tail:
        raise DimensionError(
            f"angle tables {np.shape(cos)}, {np.shape(sin)} do not match {half_shape}")
    xe, xo = a.data[..., 0::2], a.data[..., 1::2]
    out = np.empty_like(a.data)
    out[..., 0::2] = xe * cos - xo * sin
    out[..., 1::2] = xe * sin + xo * cos

    def grad_fn(g):
        ge, go = g[..., 0::2], g[..., 1::2]
        buf = np.empty_like(g)
        buf[..., 0::2] = ge * cos + go * sin
        buf[..., 1::2] = go * cos - ge * sin
        return buf

    return _make(out, [(a, grad_fn)])


def rmsnorm(a, gain):
    """a / sqrt(mean(a^2, last axis) + eps) * gain, as one op."""
    a, gain = _as_tensor(a), _as_tensor(gain)
    if a.shape[-1] == 0:
        raise DimensionError("rmsnorm over zero-length axis")
    if gain.shape != a.shape[-1:]:
        raise DimensionError(f"gain shape {gain.shape} does not match last axis of {a.shape}")
    n = a.shape[-1]
    inv = ((a.data * a.data).sum(axis=-1, keepdims=True) * (1.0 / n) + RMSNORM_EPS) ** -0.5
    y = a.data * inv
    out = y * gain.data

    def grad_a(g):
        gy = g * gain.data
        return inv * (gy - y * ((gy * y).sum(axis=-1, keepdims=True) * (1.0 / n)))

    return _make(out, [(a, grad_a), (gain, lambda g: _unbroadcast(g * y, gain.shape))])


def layernorm(a):
    """(a - mean) / sqrt(var + eps) over the last axis, as one op."""
    a = _as_tensor(a)
    if a.shape[-1] == 0:
        raise DimensionError("layernorm over zero-length axis")
    n = a.shape[-1]
    centered = a.data - a.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = (var + LAYERNORM_EPS) ** -0.5
    out = centered * inv

    def grad_fn(g):
        mean_g = g.sum(axis=-1, keepdims=True) * (1.0 / n)
        mean_gy = (g * out).sum(axis=-1, keepdims=True) * (1.0 / n)
        return inv * (g - mean_g - out * mean_gy)

    return _make(out, [(a, grad_fn)])


def adaln(h, scale, shift):
    """Affine modulation of layer-normalized activations."""
    return add(mul(scale, layernorm(h)), shift)


# ---------------------------------------------------------------------------
# convolution

def conv1d(x, kernels, dilation=1, bias=None):
    """Centered (non-causal) dilated 1-D convolution, length-preserving.

    x: [..., c_in, T], kernels: [c_out, c_in, W] with odd W, bias: [c_out]
    or None.  Each tap is one product stacked over the leading axes, so
    every row's bits are those of its own [c_in, T] call.
    """
    x, w = _as_tensor(x), _as_tensor(kernels)
    if x.ndim < 2 or w.ndim != 3:
        raise DimensionError(
            f"conv1d expects x[..., c, T] and kernels[o, c, W], got {x.shape}, {w.shape}")
    c_out, c_in, width = w.shape
    if width % 2 == 0:
        raise ConfigError(f"conv1d kernel width must be odd, got {width}")
    if x.shape[-2] != c_in:
        raise DimensionError(f"conv1d channel mismatch: x has {x.shape[-2]}, kernels expect {c_in}")
    dilation = int(dilation)
    if dilation < 1:
        raise ConfigError(f"dilation must be >= 1, got {dilation}")
    T = x.shape[-1]
    pad = (width // 2) * dilation
    xp = np.pad(x.data, ((0, 0),) * (x.ndim - 1) + ((pad, pad),))
    taps = [xp[..., k * dilation:k * dilation + T] for k in range(width)]
    out = np.zeros(x.shape[:-2] + (c_out, T))
    for k, tap in enumerate(taps):
        out += w.data[:, :, k] @ tap

    def grad_x(g):
        gp = np.zeros_like(xp)
        for k in range(width):
            gp[..., k * dilation:k * dilation + T] += w.data[:, :, k].T @ g
        return gp[..., pad:pad + T]

    def grad_w(g):
        gw = np.zeros_like(w.data)
        for k, tap in enumerate(taps):
            gw[:, :, k] = _unbroadcast(g @ np.swapaxes(tap, -1, -2), (c_out, c_in))
        return gw

    pairs = [(x, grad_x), (w, grad_w)]
    if bias is not None:
        b = _as_tensor(bias)
        if b.shape != (c_out,):
            raise DimensionError(f"bias shape {b.shape} != ({c_out},)")
        out = out + b.data[:, None]
        pairs.append((b, lambda g: _unbroadcast(g.sum(axis=-1), b.shape)))
    return _make(out, pairs)


# ---------------------------------------------------------------------------
# losses and lookups

def cross_entropy(logits, targets):
    """Summed negative log-likelihood of integer targets under softmax(logits)."""
    logits = _as_tensor(logits)
    idx = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy expects logits[N,K], got {logits.shape}")
    n, k = logits.shape
    if idx.shape != (n,):
        raise DimensionError(f"targets shape {idx.shape} != ({n},)")
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= k:
        raise BoundsError(f"target index out of range [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(n), idx]
    out = np.asarray(lse.sum())
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)

    def grad_fn(g):
        gg = probs.copy()
        gg[np.arange(n), idx] -= 1.0
        return gg * float(g)

    return _make(out, [(logits, grad_fn)])


def mse(a, b):
    """Mean squared error over all elements."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"mse shapes differ: {a.shape} vs {b.shape}")
    d = sub(a, b)
    return mean(mul(d, d))


def gather(a, indices):
    """Select rows of `a` by integer index; scatter-add gradient."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= a.shape[0]:
        raise BoundsError(f"gather index out of range [0, {a.shape[0]})")
    out = np.take(a.data, idx, axis=0)

    def grad_fn(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return buf

    return _make(out, [(a, grad_fn)])


# ---------------------------------------------------------------------------
# parameters

class ParameterStore:
    """Named map of trainable leaves; iteration is lexicographic."""

    def __init__(self):
        self._params = {}

    def add(self, name, value):
        if name in self._params:
            raise StateError(f"duplicate parameter name {name!r}")
        t = _as_tensor(value)
        t.requires_grad = True
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def names(self):
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def tensors(self):
        for _, t in self.items():
            yield t

    def zero_grad(self):
        for t in self.tensors():
            t.zero_grad()

    def merge(self, other):
        for name, t in other.items():
            if name in self._params:
                raise StateError(f"duplicate parameter name {name!r}")
            self._params[name] = t
