"""Attention and normalization building blocks.

Contains scaled-dot-product attention, rotary position rotation, the
zero-initialized gated self/cross attention used by the main transformer
block, the stacked style-alignment attention, and the block itself, whose
feed-forward slot is a mixture-of-experts.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tensor as tt
from .errors import ConfigError, DimensionError
from .tensor import ParameterStore

ROPE_BASE = 10000.0


def sinusoid_ladder(width):
    """Frequencies ROPE_BASE^(-2j/width), j < width/2, shared by RoPE, the
    position features and the flow-time features."""
    return ROPE_BASE ** (-2.0 * np.arange(width // 2) / width)


def sdp_attention(q, k, v):
    """softmax(q k^T / sqrt(d)) v over the last two axes.

    Operands are [..., tokens, width]; leading axes (e.g. heads) broadcast.
    The scale is applied to the queries, which touches fewer elements than
    the scores; for power-of-four widths it is a power of two, so both orders
    give the same bits.
    """
    return tt.attention(q, k, v, 1.0 / np.sqrt(q.shape[-1]))


def _rope_angles(positions, head_dim, heads):
    """cos/sin tables [T, heads * head_dim / 2]: the sinusoid ladder of
    head_dim, repeated for every head."""
    ang = positions[:, None] * sinusoid_ladder(head_dim)[None, :]
    cos, sin = np.tile(np.cos(ang), (1, heads)), np.tile(np.sin(ang), (1, heads))
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


@functools.lru_cache(maxsize=64)
def _rope_tables(T, head_dim, heads):
    """Cached angle tables for the default positions 0..T-1."""
    return _rope_angles(np.arange(T, dtype=np.float64), head_dim, heads)


def rope_rotate(x, heads, positions=None):
    """Rotate consecutive coordinate pairs by position-dependent angles.

    x: [..., T, heads * head_dim] with even head_dim; each head's slice is
    rotated independently, and the [T, ·] angle tables broadcast over the
    leading axes.  positions defaults to 0..T-1 (tables cached per shape).
    Angle ladder is sinusoid_ladder(head_dim).
    """
    T, d = x.shape[-2:]
    if d % heads != 0 or (d // heads) % 2 != 0:
        raise ConfigError(f"rope needs an even width per head, got {d} over {heads} heads")
    if positions is None:
        cos, sin = _rope_tables(T, d // heads, heads)
    else:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.shape != (T,):
            raise DimensionError(f"positions shape {positions.shape} != ({T},)")
        cos, sin = _rope_angles(positions, d // heads, heads)
    return tt.rotate_pairs(x, cos, sin)


def positional_encoding(T, d):
    """Fixed sin/cos position features of width d (d even)."""
    if d % 2 != 0:
        raise ConfigError(f"positional encoding needs an even width, got {d}")
    ang = np.arange(T)[:, None] * sinusoid_ladder(d)[None, :]
    pe = np.zeros((T, d))
    pe[:, 0::2] = np.sin(ang)
    pe[:, 1::2] = np.cos(ang)
    return pe


def tag_tokens(table, tags, tokens):
    """Prompt tokens of tag ids: each id's row of a [tags, tokens * width]
    embedding table, as tags.shape + (tokens, width)."""
    tags = np.asarray(tags, dtype=np.int64)
    return tt.reshape(tt.gather(table, tags), tags.shape + (tokens, table.shape[1] // tokens))


def global_style(z_p, z_v, time_vec):
    """Token-axis mean of prompt tokens and vocal embedding plus time features.

    z_p: [..., P, d], z_v: [..., T, d], time_vec: a [1, d] row (or one per
    sample, [..., 1, d]).  Returns a [..., 1, d] tensor used to drive the
    adaptive-layernorm modulation.
    """
    zp_mean = tt.mean(z_p, axis=-2, keepdims=True)
    zv_mean = tt.mean(z_v, axis=-2, keepdims=True)
    return tt.add(tt.add(zp_mean, zv_mean), time_vec)


class GatedAttention:
    """Multi-head self-attention with a tanh-gated cross-attention branch.

    The gate scalar starts at zero and the output projection is
    zero-initialized, so the whole module contributes nothing at init.
    Queries and self-keys are rotated with RoPE; cross keys are not.
    """

    def __init__(self, d, heads, rng, params: ParameterStore, prefix):
        if d % heads != 0:
            raise ConfigError(f"width {d} not divisible by {heads} heads")
        if (d // heads) % 2 != 0:
            raise ConfigError("head width must be even for RoPE")
        self.heads = heads
        self.head_dim = d // heads
        s = 1.0 / np.sqrt(d)
        p = params
        self.wq = p.add(f"{prefix}.wq", rng.standard_normal((d, d)) * s)
        self.wk = p.add(f"{prefix}.wk", rng.standard_normal((d, d)) * s)
        self.wv = p.add(f"{prefix}.wv", rng.standard_normal((d, d)) * s)
        self.wkz = p.add(f"{prefix}.wkz", rng.standard_normal((d, d)) * s)
        self.wvz = p.add(f"{prefix}.wvz", rng.standard_normal((d, d)) * s)
        self.wo = p.add(f"{prefix}.wo", np.zeros((d, d)))
        self.alpha = p.add(f"{prefix}.alpha", np.zeros(()))

    def _query(self, h):
        return tt.split_heads(rope_rotate(tt.matmul(h, self.wq), heads=self.heads), self.heads)

    def _cross(self, q, z_p):
        kz = tt.split_heads(tt.matmul(z_p, self.wkz), self.heads)
        vz = tt.split_heads(tt.matmul(z_p, self.wvz), self.heads)
        return tt.mul(sdp_attention(q, kz, vz), tt.tanh(self.alpha))

    def __call__(self, h, z_p):
        q = self._query(h)
        k = tt.split_heads(rope_rotate(tt.matmul(h, self.wk), heads=self.heads), self.heads)
        out = sdp_attention(q, k, tt.split_heads(tt.matmul(h, self.wv), self.heads))
        if z_p is not None:
            out = tt.add(out, self._cross(q, z_p))
        return tt.matmul(tt.merge_heads(out), self.wo)

    def cross_branch(self, h, z_p):
        """The gated cross-attention contribution alone (for inspection)."""
        return tt.merge_heads(self._cross(self._query(h), z_p))


class FeedForward:
    """Position-wise 2-layer MLP; zero biases so FFN(0) = 0 at init."""

    def __init__(self, d, hidden, rng, params: ParameterStore, prefix):
        self.w1 = params.add(f"{prefix}.w1", rng.standard_normal((d, hidden)) / np.sqrt(d))
        self.b1 = params.add(f"{prefix}.b1", np.zeros(hidden))
        self.w2 = params.add(f"{prefix}.w2", rng.standard_normal((hidden, d)) / np.sqrt(hidden))
        self.b2 = params.add(f"{prefix}.b2", np.zeros(d))

    def __call__(self, h):
        return tt.ffn(h, self.w1, self.b1, self.w2, self.b2)


def style_alignment_stack(z_ct, z_p, layers):
    """Iteratively stylize content tokens by attending into prompt tokens.

    z_ct: [..., P, d] content, z_p: [..., P', d] prompt tokens; leading axes
    are a batch, each row attending only into its own prompt.  Each layer
    adds sdp_attention(current, z_p, z_p) residually; the fused condition is
    the stylized stream concatenated with the original content.  Position
    features are added to z_p before attention.  Returns a [..., P, 2d]
    tensor.  An empty z_p is a DimensionError when layers > 0; the null
    condition is a learned prompt, not an empty one.
    """
    z = z_ct
    if layers > 0:
        zp = tt.add(z_p, positional_encoding(*z_p.shape[-2:]))
        for _ in range(layers):
            z = tt.add(z, sdp_attention(z, zp, zp))
    return tt.concat([z, z_ct], axis=-1)


class BandBlock:
    """Pre-norm transformer block: gated attention then modulated expert slot.

    Sequence: rmsnorm -> RoPE self-attention + tanh(alpha)-gated cross
    attention on prompt tokens -> residual; adaptive layernorm driven by the
    global style vector -> mixture-of-experts -> residual.  All injection
    paths are zero-initialized, so the block is an exact identity before
    training.
    """

    def __init__(self, d, heads, rng, params: ParameterStore, prefix, moe):
        self.d = d
        self.attn = GatedAttention(d, heads, rng, params, f"{prefix}.attn")
        self.norm_gain = params.add(f"{prefix}.norm_gain", np.ones(d))
        # adaptive-layernorm modulation from the global style vector;
        # zero-init scale and shift projections
        self.w_scale = params.add(f"{prefix}.ada_scale", np.zeros((d, d)))
        self.w_shift = params.add(f"{prefix}.ada_shift", np.zeros((d, d)))
        self.moe = moe

    def __call__(self, h, z_p, z_g, moe_ctx):
        """h: [..., T, d]; z_p: [..., P, d] or None; z_g: [..., 1, d] global
        style, which modulates every token of its row.  z_p and z_g may carry
        one more leading axis than h ([2, r, ...] over [r, ...]): h's rmsnorm
        and self-attention then run once and broadcast at the cross-attention."""
        a = tt.add(h, self.attn(tt.rmsnorm(h, self.norm_gain), z_p))
        scale = tt.matmul(z_g, self.w_scale)
        shift = tt.matmul(z_g, self.w_shift)
        mod = tt.adaln(a, scale, shift)
        return tt.add(a, self.moe(mod, **moe_ctx))
