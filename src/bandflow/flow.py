"""Straight-path flow matching: training objective, Euler sampling, guidance.

The probability path interpolates linearly between a Gaussian draw x0 and a
data point x1; the regression target for the field estimator is x1 - x0.
Sampling integrates the learned field with explicit Euler steps from t=0
to t=1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .blocks import sinusoid_ladder
from .errors import ConfigError, DimensionError, NumericError
from .tensor import ParameterStore, Tensor

TIME_EMBED_DIM = 128
TRACE_COLUMNS = ("step", "t", "mean_abs_x", "mean_abs_v")   # header of euler_sample's trace
WAVENET_KERNEL = 3


@dataclass
class FlowConfig:
    train_timesteps: int = 100
    infer_steps: int = 25
    cfg_scale: float = 3.0

    def __post_init__(self):
        if self.train_timesteps < 1:
            raise ConfigError("train_timesteps must be >= 1")
        if self.infer_steps < 1:
            raise ConfigError("infer_steps must be >= 1")
        if not (np.isfinite(self.cfg_scale) and self.cfg_scale >= 0.0):
            raise ConfigError(f"cfg_scale must be finite and >= 0, got {self.cfg_scale}")


@dataclass
class FlowSample:
    """A point on the straight path: one clip with a float t, or a batch of
    [B, ...] endpoints with one time per row, shaped to broadcast against
    them (stack_flow_samples builds one)."""
    x0: np.ndarray
    x1: np.ndarray
    t: float
    xt: np.ndarray = field(init=False)
    u: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.x0.shape != self.x1.shape:
            raise DimensionError(f"endpoint shapes differ: {self.x0.shape} vs {self.x1.shape}")
        self.xt = (1.0 - self.t) * self.x0 + self.t * self.x1
        self.u = self.x1 - self.x0


def make_flow_sample(x1, rng, cfg: FlowConfig) -> FlowSample:
    """Draw one training point on the straight noise-to-data path."""
    x1 = np.asarray(x1, dtype=np.float64)
    x0 = rng.standard_normal(x1.shape)
    t = float(rng.integers(cfg.train_timesteps)) / cfg.train_timesteps
    return FlowSample(x0=x0, x1=x1, t=t)


def cfg_field(v_cond, v_uncond, gamma):
    """Guided field: gamma * conditional + (1 - gamma) * unconditional."""
    if v_cond.shape != v_uncond.shape:
        raise DimensionError(f"field shapes differ: {v_cond.shape} vs {v_uncond.shape}")
    return tt.add(tt.mul(v_cond, float(gamma)), tt.mul(v_uncond, 1.0 - float(gamma)))


def stack_flow_samples(samples):
    """One batched FlowSample from one-clip samples of one shape."""
    x0 = np.stack([s.x0 for s in samples])
    t = np.array([s.t for s in samples]).reshape((-1,) + (1,) * (x0.ndim - 1))
    return FlowSample(x0=x0, x1=np.stack([s.x1 for s in samples]), t=t)


def cfm_loss(estimator, sample, cond=None):
    """Mean squared field error of one estimator call over a FlowSample.

    A batched sample hands the estimator its B times as a [B] array, and
    `cond`, if given, must have one row per sample: an array, or a tuple of
    arrays as euler_sample's.  A one-clip sample passes its float t and
    `cond` as they are.
    """
    t = sample.t
    if np.ndim(t):
        n = sample.x0.shape[0]
        t = np.reshape(t, -1)
        rows = () if cond is None else cond if isinstance(cond, tuple) else (cond,)
        if t.shape != (n,) or any(np.shape(c)[:1] != (n,) for c in rows):
            raise DimensionError(f"one time and one condition entry per sample required "
                                 f"({n} samples)")
    v = estimator(Tensor(sample.xt), t, cond)
    if v.shape != sample.xt.shape:
        raise DimensionError(f"estimator output {v.shape} != input {sample.xt.shape}")
    return tt.mse(v, Tensor(sample.u))


def euler_sample(estimator, x_init, cond, cfg: FlowConfig, null_cond=None, trace=None):
    """Integrate the learned field from 0 to 1 with explicit Euler steps.

    Each step makes one estimator call.  When `null_cond` is given and
    cfg.cfg_scale != 1, that call is a stacked pass: x_init must have a
    leading batch axis [B, ...], `cond` and `null_cond` must be tuples of
    arrays with one row per sample, and the estimator sees x stacked on
    itself with the condition rows followed by the null rows; cfg_field
    blends the two halves of its output.  `trace`, if a list, collects
    (step, t, mean|x|, mean|v|) rows, labelled by TRACE_COLUMNS.
    """
    x = x_init if isinstance(x_init, Tensor) else Tensor(np.asarray(x_init, dtype=np.float64))
    guided = null_cond is not None and cfg.cfg_scale != 1.0
    if guided:
        n = x.shape[0]
        cond = tuple(np.concatenate([np.asarray(c), np.asarray(u)])
                     for c, u in zip(cond, null_cond, strict=True))
    eps = 1.0 / cfg.infer_steps
    for i in range(cfg.infer_steps):
        t = i * eps
        if guided:
            v = estimator(tt.concat([x, x], axis=0), t, cond)
            v = cfg_field(v[:n], v[n:], cfg.cfg_scale)
        else:
            v = estimator(x, t, cond)
        x = tt.add(x, tt.mul(v, eps))
        if not np.isfinite(x.data).all():
            raise NumericError(f"non-finite state at Euler step {i}")
        if trace is not None:
            trace.append((i, t, float(np.abs(x.data).mean()), float(np.abs(v.data).mean())))
    return x


# ---------------------------------------------------------------------------
# time embedding

def sinusoidal_embedding(t):
    """Classic sin/cos features of times: [1, dim] for a float, t.shape +
    (dim,) for an array."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    ang = t[..., None] * sinusoid_ladder(TIME_EMBED_DIM)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


class TimeEmbedding:
    """Sinusoidal features followed by a 2-layer projection."""

    def __init__(self, out_dim, rng, params: ParameterStore, prefix):
        s1 = 1.0 / np.sqrt(TIME_EMBED_DIM)
        s2 = 1.0 / np.sqrt(out_dim)
        self.w1 = params.add(f"{prefix}.w1",
                             rng.standard_normal((TIME_EMBED_DIM, out_dim)) * s1)
        self.b1 = params.add(f"{prefix}.b1", np.zeros(out_dim))
        self.w2 = params.add(f"{prefix}.w2", rng.standard_normal((out_dim, out_dim)) * s2)
        self.b2 = params.add(f"{prefix}.b2", np.zeros(out_dim))

    def __call__(self, t):
        return tt.ffn(Tensor(sinusoidal_embedding(t)), self.w1, self.b1, self.w2, self.b2)


# ---------------------------------------------------------------------------
# estimators

class MLPEstimator:
    """Small unconditioned MLP field estimator for low-dimensional batched
    data [B, D]: two hidden layers over the input and its time features."""

    def __init__(self, dim, hidden, rng):
        self.dim = dim
        self.params = ParameterStore()
        self.time = TimeEmbedding(hidden, rng, self.params, prefix="mlp.time")
        p, a = self.params, dim + hidden
        self.w0 = p.add("mlp.w0", rng.standard_normal((a, hidden)) / np.sqrt(a))
        self.b0 = p.add("mlp.b0", np.zeros(hidden))
        self.w1 = p.add("mlp.w1", rng.standard_normal((hidden, hidden)) / np.sqrt(hidden))
        self.b1 = p.add("mlp.b1", np.zeros(hidden))
        # zero-init output so the field starts at zero
        self.w_out = p.add("mlp.w_out", np.zeros((hidden, dim)))
        self.b_out = p.add("mlp.b_out", np.zeros(dim))

    def __call__(self, xt, t, cond=None):
        """xt: [B, dim]; `cond` completes the estimator contract and is
        ignored."""
        n = xt.shape[0]
        temb = self.time(np.full(n, float(t)) if np.isscalar(t) else t)
        h = tt.silu(tt.ffn(tt.concat([xt, temb], axis=1), self.w0, self.b0, self.w1, self.b1))
        return tt.add(tt.matmul(h, self.w_out), self.b_out)


class WaveNetEstimator:
    """Non-causal dilated-convolution field estimator over [..., channels,
    frames].

    Gated residual blocks (tanh * sigmoid) with skip connections, the last
    skip-only; the time embedding is projected into the condition stream;
    the output projection is zero-initialized so the field starts at zero.
    """

    def __init__(self, x_channels, cond_channels, rng, residual_channels=32, layers=4):
        self.x_channels = x_channels
        self.cond_channels = cond_channels
        self.residual_channels = residual_channels
        self.dilations = [2 ** i for i in range(layers)]
        self.params = ParameterStore()
        p = self.params
        r = residual_channels
        self.time = TimeEmbedding(cond_channels, rng, p, prefix="wavenet.time")
        self.w_in = p.add("wavenet.w_in", rng.standard_normal((r, x_channels)) / np.sqrt(x_channels))
        self._blocks = []
        for i in range(layers):
            blk = {
                "conv": p.add(f"wavenet.l{i}.conv",
                              rng.standard_normal((2 * r, r, WAVENET_KERNEL))
                              / np.sqrt(r * WAVENET_KERNEL)),
                "conv_b": p.add(f"wavenet.l{i}.conv_b", np.zeros(2 * r)),
                "cond": p.add(f"wavenet.l{i}.cond",
                              rng.standard_normal((2 * r, cond_channels)) / np.sqrt(cond_channels)),
            }
            # the last layer's residual would never be read, so it is dropped,
            # but still drawn: every later draw and parameter stays as it was
            res = rng.standard_normal((r, r)) / np.sqrt(r)
            if i < layers - 1:
                blk["res"] = p.add(f"wavenet.l{i}.res", res)
            blk["skip"] = p.add(f"wavenet.l{i}.skip", rng.standard_normal((r, r)) / np.sqrt(r))
            self._blocks.append(blk)
        self.w_mid = p.add("wavenet.w_mid", rng.standard_normal((r, r)) / np.sqrt(r))
        self.w_out = p.add("wavenet.w_out", np.zeros((x_channels, r)))
        self.b_out = p.add("wavenet.b_out", np.zeros(x_channels))

    def __call__(self, xt, t, cond):
        """xt: [..., x_channels, T]; t: one time per row (shape
        xt.shape[:-2], so a float for one [x_channels, T] clip); cond:
        [..., cond_channels, T] tensor or array.  Every op stacks over the
        leading axes, so each row's output is bitwise its own one-row
        call's."""
        x = xt if isinstance(xt, Tensor) else Tensor(xt)
        if x.ndim < 2 or x.shape[-2] != self.x_channels:
            raise DimensionError(
                f"expected [{self.x_channels}, T] input with optional leading axes, got {x.shape}")
        lead, T = x.shape[:-2], x.shape[-1]
        c = cond if isinstance(cond, Tensor) else Tensor(cond)
        if c.shape != lead + (self.cond_channels, T):
            raise DimensionError(
                f"condition shape {c.shape} != {lead + (self.cond_channels, T)}")
        if np.shape(t) != lead:
            raise DimensionError(f"times of shape {np.shape(t)} for input rows {lead}")
        # [..., 1, cond_channels]: one gemv per row, as in a one-row call
        temb = self.time(np.reshape(t, lead + (1,)))
        c = tt.add(c, tt.swapaxes(temb, -1, -2))        # broadcast over frames
        h = tt.matmul(self.w_in, x)
        r = self.residual_channels
        skip_sum = None
        for blk, dil in zip(self._blocks, self.dilations):
            z = tt.conv1d(h, blk["conv"], dilation=dil, bias=blk["conv_b"])
            z = tt.add(z, tt.matmul(blk["cond"], c))
            gate = tt.mul(tt.tanh(z[..., :r, :]), tt.sigmoid(z[..., r:, :]))
            if "res" in blk:
                h = tt.add(h, tt.matmul(blk["res"], gate))
            s = tt.matmul(blk["skip"], gate)
            skip_sum = s if skip_sum is None else tt.add(skip_sum, s)
        out = tt.silu(tt.matmul(self.w_mid, tt.silu(skip_sum)))
        return tt.add(tt.matmul(self.w_out, out), tt.reshape(self.b_out, (self.x_channels, 1)))
