"""Composed field estimators built from the block, expert, and flow kits."""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .blocks import BandBlock, global_style, style_alignment_stack
from .errors import DimensionError
from .flow import TimeEmbedding, WaveNetEstimator
from .moe import BandMoE, PlainBandFFN, RouterState
from .tensor import ParameterStore, Tensor


class AccompFlowModel:
    """Transformer field estimator for the accompaniment toy task.

    The vocal embedding is added to the noisy input at entry; style-tag
    tokens condition the gated cross-attention and the controlled expert
    group; the final row of the tag table is the learned null condition
    used for guidance.  Call signature matches the estimator contract:
    (xt [T, data_dim], t, cond=(v [T, data_dim], tag_id or None)).
    """

    def __init__(self, rng, n_tags, data_dim=16, width=64, heads=4, blocks=2,
                 experts=4, tag_tokens=2, balance_form="switch"):
        self.n_tags = n_tags
        self.data_dim = data_dim
        self.width = width
        self.tag_tokens = tag_tokens
        self.params = ParameterStore()
        p = self.params
        self.time = TimeEmbedding(width, rng, p, prefix="accomp.time")
        self.w_in = p.add("accomp.w_in",
                          rng.standard_normal((data_dim, width)) / np.sqrt(data_dim))
        self.w_v = p.add("accomp.w_v",
                         rng.standard_normal((data_dim, width)) / np.sqrt(data_dim))
        # +1 row: the learned null condition
        self.tag_emb = p.add("accomp.tag_emb",
                             rng.standard_normal((n_tags + 1, tag_tokens * width)) * 0.3)
        self.moes = []
        self.blocks = []
        for i in range(blocks):
            moe = BandMoE(width, experts, rng, p, f"accomp.b{i}.moe",
                          time_dim=width, balance_form=balance_form)
            self.moes.append(moe)
            self.blocks.append(BandBlock(width, heads, rng, p, f"accomp.b{i}", moe=moe))
        self.w_out = p.add("accomp.w_out", np.zeros((width, data_dim)))
        self.state = RouterState()

    def tag_tokens_for(self, tag):
        """Prompt tokens for a tag id; None selects the null condition row."""
        idx = self.n_tags if tag is None else int(tag)
        row = tt.gather(self.tag_emb, np.array([idx]))
        return tt.reshape(row, (self.tag_tokens, self.width))

    def __call__(self, xt, t, cond):
        v, tag = cond
        v = v if isinstance(v, Tensor) else Tensor(v)
        x = xt if isinstance(xt, Tensor) else Tensor(xt)
        if x.shape != v.shape:
            raise DimensionError(f"input {x.shape} and vocal track {v.shape} misaligned")
        temb = self.time(float(t))                       # [1, width]
        z_v = tt.matmul(v, self.w_v)
        z_p = self.tag_tokens_for(tag)
        z_g = global_style(z_p, z_v, temb)
        h = tt.add(tt.matmul(x, self.w_in), z_v)
        ctx = {"z_v": z_v, "z_p": z_p, "time_vec": temb, "state": self.state}
        for block in self.blocks:
            h = block(h, z_p, z_g, moe_ctx=ctx)
        return tt.matmul(h, self.w_out)

    def balance(self):
        total = None
        for moe in self.moes:
            term = moe.balance()
            if term is not None:
                total = term if total is None else tt.add(total, term)
        return total

    def use_plain_ffn(self):
        """Swap each single-expert MOE for its routing-free reduction."""
        for block, moe in zip(self.blocks, self.moes):
            block.moe = PlainBandFFN(moe)

    def use_moe(self):
        for block, moe in zip(self.blocks, self.moes):
            block.moe = moe


class StylePredictorModel:
    """WaveNet field estimator conditioned through style-aligned content.

    Content phoneme embeddings are stylized by attending into the tag's
    prompt tokens; the fused condition drives a dilated-convolution
    estimator over the phoneme axis.  A learned vocal-prompt row is added
    to the content stream (its index 0 row is the dropped-prompt state).
    """

    def __init__(self, rng, n_tags, n_phonemes, channels=8, embed=16,
                 tag_tokens=4, align_layers=2, residual_channels=24, layers=3):
        self.n_tags = n_tags
        self.n_phonemes = n_phonemes
        self.channels = channels
        self.embed = embed
        self.tag_tokens = tag_tokens
        self.align_layers = align_layers
        self.params = ParameterStore()
        p = self.params
        self.phoneme_emb = p.add("cond.phoneme_emb",
                                 rng.standard_normal((n_phonemes, embed)) * 0.5)
        # +1 row: null condition (dropped text prompt)
        self.tag_emb = p.add("cond.tag_emb",
                             rng.standard_normal((n_tags + 1, tag_tokens * embed)) * 0.5)
        # row 0: dropped vocal prompt, row 1: vocal prompt present
        self.vocal_emb = p.add("cond.vocal_emb", rng.standard_normal((2, embed)) * 0.5)
        self.wavenet = WaveNetEstimator(channels, 2 * embed, rng,
                                        residual_channels=residual_channels, layers=layers)
        self.params.merge(self.wavenet.params)

    def condition(self, phonemes, tag, vocal_prompt=True):
        ids = np.asarray(phonemes, dtype=np.int64)
        z_ct = tt.embedding_lookup(self.phoneme_emb, ids)
        z_ct = tt.add(z_ct, tt.gather(self.vocal_emb, np.array([1 if vocal_prompt else 0])))
        idx = self.n_tags if tag is None else int(tag)
        z_p = tt.reshape(tt.gather(self.tag_emb, np.array([idx])),
                         (self.tag_tokens, self.embed))
        fused = style_alignment_stack(z_ct, z_p, self.align_layers)   # [P, 2*embed]
        return tt.swapaxes(fused, 0, 1)                               # [2*embed, P]

    def __call__(self, xt, t, cond):
        phonemes, tag, vocal_prompt = cond
        return self.wavenet(xt, t, self.condition(phonemes, tag, vocal_prompt))
