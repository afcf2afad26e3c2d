"""Composed field estimators built from the block, expert, and flow kits."""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .blocks import BandBlock, global_style, style_alignment_stack, tag_tokens
from .errors import DimensionError
from .flow import TimeEmbedding, WaveNetEstimator
from .moe import BandMoE, PlainBandFFN, RouterState
from .tensor import ParameterStore, Tensor

ACCOMP_HEADS = 4               # attention heads per block
ACCOMP_TAG_TOKENS = 2          # prompt tokens per style tag
STYLE_EMBED = 16               # style predictor: content and prompt token width
STYLE_TAG_TOKENS = 4           # prompt tokens per style tag
STYLE_ALIGN_LAYERS = 2         # style-alignment attention layers
STYLE_RESIDUAL_CHANNELS = 24   # WaveNet estimator width
STYLE_WAVENET_LAYERS = 3
# tokens (rows x T) per forward of a batched accomp call.  Over perfbench's
# generate requests on a 2-vCPU Xeon, 512 ran 3-6% faster than 256 in each of
# three interleaved rounds, and larger caps were no faster (1024 won one round
# of three; a T=256 forward is bound by arithmetic) but raised peak RSS from
# 65 MB to 73 (1024), 82 (2048) and 122 MB (no cap).
ACCOMP_CHUNK_TOKENS = 512


class AccompFlowModel:
    """Transformer field estimator for the accompaniment toy task.

    The vocal embedding is added to the noisy input at entry; style-tag
    tokens condition the gated cross-attention and the controlled expert
    group; the final row of the tag table is the learned null condition
    used for guidance: tag id n_tags selects it.  Call signature matches
    the estimator contract, in one of two forms:

    - one clip: (xt [T, data_dim], t, cond=(v [T, data_dim], tag_id));
    - a batch: (xt [B, T, data_dim], t, cond=(v [B, T, data_dim], tags [B])),
      one tag id per row.

    A batch runs in chunks of at most ACCOMP_CHUNK_TOKENS tokens (rows x T,
    at least one row each).  Rows never mix, so each row's output equals
    the one-clip call's.  A guided batch, [cond; null] stacked by
    euler_sample, has bitwise equal halves of x and v; it runs in chunks of
    r clips and their r null twins, whose stem (the input projections and
    block 0's rmsnorm and self-attention, which no tag reaches) runs once
    on the r clips and broadcasts into the [2, r, ...] rows where the tags
    enter.  Each row still does its one-clip call's arithmetic.
    """

    def __init__(self, rng, n_tags, data_dim=16, width=64, blocks=2, experts=4):
        self.n_tags = n_tags
        self.params = ParameterStore()
        p = self.params
        self.time = TimeEmbedding(width, rng, p, prefix="accomp.time")
        self.w_in = p.add("accomp.w_in",
                          rng.standard_normal((data_dim, width)) / np.sqrt(data_dim))
        self.w_v = p.add("accomp.w_v",
                         rng.standard_normal((data_dim, width)) / np.sqrt(data_dim))
        # +1 row: the learned null condition
        self.tag_emb = p.add("accomp.tag_emb",
                             rng.standard_normal((n_tags + 1, ACCOMP_TAG_TOKENS * width)) * 0.3)
        self.moes = []
        self.blocks = []
        for i in range(blocks):
            moe = BandMoE(width, experts, rng, p, f"accomp.b{i}.moe")
            self.moes.append(moe)
            self.blocks.append(BandBlock(width, ACCOMP_HEADS, rng, p, f"accomp.b{i}", moe=moe))
        self.w_out = p.add("accomp.w_out", np.zeros((width, data_dim)))
        self.state = RouterState()

    def __call__(self, xt, t, cond):
        v, tag = cond
        v = v if isinstance(v, Tensor) else Tensor(v)
        x = xt if isinstance(xt, Tensor) else Tensor(xt)
        if x.shape != v.shape:
            raise DimensionError(f"input {x.shape} and vocal track {v.shape} misaligned")
        if x.ndim >= 2 and x.shape[-2] == 0:
            raise DimensionError(f"input {x.shape} has no frames")
        if np.ndim(t):
            raise DimensionError(f"accomp takes one float time per call, got times of "
                                 f"shape {np.shape(t)}")
        temb = self.time(float(t))                       # [1, width]
        if x.ndim == 2:
            return self._forward(x, temb, v, tag)
        tags = np.asarray(tag)
        if x.ndim != 3 or tags.shape != x.shape[:1]:
            raise DimensionError(
                f"batched input {x.shape} needs one tag per row, got tags of shape {tags.shape}")
        k = x.shape[0] // 2
        if (k and 2 * k == x.shape[0] and 2 * x.shape[1] <= ACCOMP_CHUNK_TOKENS
                and np.array_equal(x.data[:k], x.data[k:])
                and np.array_equal(v.data[:k], v.data[k:])):
            return self._guided(x, temb, v, tags)
        rows = max(1, ACCOMP_CHUNK_TOKENS // x.shape[1])
        if x.shape[0] <= rows:
            return self._forward(x, temb, v, tags)
        return tt.concat([self._forward(x[i:i + rows], temb, v[i:i + rows], tags[i:i + rows])
                          for i in range(0, x.shape[0], rows)], axis=0)

    def _guided(self, x, temb, v, tags):
        """A stacked [cond; null] batch of 2k rows whose halves hold the same
        x and v, in chunks of r clips and their r null twins."""
        k, T = x.shape[0] // 2, x.shape[1]
        r = ACCOMP_CHUNK_TOKENS // (2 * T)
        v = tt.reshape(v, (2, k) + v.shape[1:])
        tags = tags.reshape(2, k)
        outs = [self._forward(x[i:min(i + r, k)], temb, v[:, i:i + r], tags[:, i:i + r])
                for i in range(0, k, r)]
        return tt.reshape(outs[0] if len(outs) == 1 else tt.concat(outs, axis=1), x.shape)

    def _forward(self, x, temb, v, tag):
        z_v = tt.matmul(v, self.w_v)
        # a guided chunk: v [2, r, T, ·] over x [r, T, ·]; the stem runs on half 0
        stem = z_v if z_v.ndim == x.ndim else z_v[0]
        z_p = tag_tokens(self.tag_emb, tag, ACCOMP_TAG_TOKENS)
        z_g = global_style(z_p, stem, temb)
        h = tt.add(tt.matmul(x, self.w_in), stem)
        ctx = {"z_v": z_v, "z_p": z_p, "time_vec": temb, "state": self.state}
        for block in self.blocks:
            h = block(h, z_p, z_g, moe_ctx=ctx)
        return tt.matmul(h, self.w_out)

    def balance(self):
        total = None
        for moe in self.moes:
            term = moe.balance()
            total = term if total is None else tt.add(total, term)
        return total

    def use_plain_ffn(self):
        """Swap each single-expert MOE for its routing-free reduction."""
        for block, moe in zip(self.blocks, self.moes):
            block.moe = PlainBandFFN(moe)


class StylePredictorModel:
    """WaveNet field estimator conditioned through style-aligned content.

    Content phoneme embeddings are stylized by attending into the tag's
    prompt tokens; the fused condition drives a dilated-convolution
    estimator over the phoneme axis.  A learned vocal-prompt row is added
    to the content stream (its index 0 row is the dropped-prompt state).
    Call signature matches the estimator contract, batched:
    (xt [B, channels, P], t, cond=(phonemes [B, P], tags [B], vocal flags
    [B])), where tag n_tags selects the null condition; one clip is the
    batch of one.
    """

    def __init__(self, rng, n_tags, n_phonemes, channels):
        self.n_tags = n_tags
        self.params = ParameterStore()
        p = self.params
        e = STYLE_EMBED
        self.phoneme_emb = p.add("cond.phoneme_emb",
                                 rng.standard_normal((n_phonemes, e)) * 0.5)
        # +1 row: null condition (dropped text prompt)
        self.tag_emb = p.add("cond.tag_emb",
                             rng.standard_normal((n_tags + 1, STYLE_TAG_TOKENS * e)) * 0.5)
        # row 0: dropped vocal prompt, row 1: vocal prompt present
        self.vocal_emb = p.add("cond.vocal_emb", rng.standard_normal((2, e)) * 0.5)
        self.wavenet = WaveNetEstimator(channels, 2 * e, rng, p,
                                        residual_channels=STYLE_RESIDUAL_CHANNELS,
                                        layers=STYLE_WAVENET_LAYERS)

    def condition(self, phonemes, tags, vocal_prompts):
        """The fused condition [B, 2*embed, P] of phoneme ids [B, P], tag
        ids [B] and vocal-prompt flags [B]."""
        ids = np.asarray(phonemes, dtype=np.int64)
        tags = np.asarray(tags, dtype=np.int64)
        vocal = np.asarray(vocal_prompts, dtype=np.int64)
        if ids.ndim != 2 or tags.shape != ids.shape[:1] or vocal.shape != ids.shape[:1]:
            raise DimensionError(f"style condition needs phonemes [B, P] with B tags and B "
                                 f"vocal flags, got {ids.shape}, {tags.shape}, {vocal.shape}")
        z_ct = tt.gather(self.phoneme_emb, ids)
        z_ct = tt.add(z_ct, tt.gather(self.vocal_emb, vocal[:, None]))
        z_p = tag_tokens(self.tag_emb, tags, STYLE_TAG_TOKENS)
        fused = style_alignment_stack(z_ct, z_p, STYLE_ALIGN_LAYERS)   # [B, P, 2*embed]
        return tt.swapaxes(fused, -1, -2)                              # [B, 2*embed, P]

    def __call__(self, xt, t, cond):
        phonemes, tags, vocal_prompts = cond
        return self.wavenet(xt, t, self.condition(phonemes, tags, vocal_prompts))
