"""Residual-quantization style bottleneck.

Phoneme-level vectors are greedily quantized against a stack of codebooks:
each depth picks the nearest code to the current residual and subtracts it.
Every codebook reserves index 0 for the zero vector, which makes the prefix
reconstruction error non-increasing in depth.  Gradients pass to the encoder
via the straight-through estimator; codebooks learn by exponential moving
average on the residuals assigned to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .errors import BoundaryError, DimensionError
from .tensor import Tensor

EMA_DECAY = 0.99


@dataclass
class RQCodebook:
    codes: np.ndarray  # [depth, size, dim]; index 0 of every depth is the zero code

    @classmethod
    def create(cls, depth, size, dim, rng, scale=0.5):
        codes = rng.standard_normal((depth, size, dim)) * scale
        codes[:, 0, :] = 0.0
        return cls(codes=codes)

    @property
    def depth(self):
        return self.codes.shape[0]

    @property
    def size(self):
        return self.codes.shape[1]

    @property
    def dim(self):
        return self.codes.shape[2]


@dataclass
class StyleCode:
    indices: np.ndarray    # [depth, P]
    prefixes: np.ndarray   # [depth, P, dim] cumulative reconstructions
    residuals: np.ndarray  # [depth, P, dim] what each depth quantized

    @property
    def embedding(self):
        """Full-depth reconstruction."""
        return self.prefixes[-1]


def phoneme_pool(frames, boundaries):
    """Mean-pool frame features into phoneme-level rows.

    frames: [T, d] tensor; boundaries: sequence of (start, end) ranges that
    must partition [0, T) in order.
    """
    T = frames.shape[0]
    pos = 0
    for s, e in boundaries:
        if s != pos or e <= s:
            raise BoundaryError(f"boundaries must partition [0, {T}); bad range ({s}, {e})")
        pos = e
    if pos != T:
        raise BoundaryError(f"boundaries cover [0, {pos}) but frames end at {T}")
    rows = [tt.mean(frames[s:e], axis=0, keepdims=True) for s, e in boundaries]
    return tt.concat(rows, axis=0)


def rq_encode(z_e, book: RQCodebook) -> StyleCode:
    """Greedy nearest-code residual quantization of [P, dim] vectors."""
    z = z_e.data if isinstance(z_e, Tensor) else np.asarray(z_e, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != book.dim:
        raise DimensionError(f"expected [P, {book.dim}] input, got {z.shape}")
    residual = z.copy()
    indices = np.zeros((book.depth, z.shape[0]), dtype=np.int64)
    prefixes = np.zeros((book.depth,) + z.shape)
    residuals = np.zeros((book.depth,) + z.shape)
    acc = np.zeros_like(z)
    for n in range(book.depth):
        codes = book.codes[n]                                   # [K, dim]
        d2 = ((residual[:, None, :] - codes[None, :, :]) ** 2).sum(axis=2)
        pick = d2.argmin(axis=1)
        chosen = codes[pick]
        indices[n] = pick
        residuals[n] = residual
        acc = acc + chosen
        prefixes[n] = acc
        residual = residual - chosen
    return StyleCode(indices=indices, prefixes=prefixes, residuals=residuals)


def rq_decode(indices, book: RQCodebook):
    """Sum the code embeddings selected at each depth."""
    out = np.zeros((indices.shape[1], book.dim))
    for n in range(book.depth):
        out += book.codes[n][indices[n]]
    return out


def quantize_st(z_e, book: RQCodebook):
    """Straight-through quantization: values from the codes, gradient to z_e."""
    code = rq_encode(z_e, book)
    z_q = tt.add(z_e, Tensor(code.embedding - z_e.data))
    return z_q, code


def commit_loss(z_e, book: RQCodebook):
    """Sum over depths of squared distance to each stop-gradient prefix."""
    code = rq_encode(z_e.data if isinstance(z_e, Tensor) else z_e, book)
    z = z_e if isinstance(z_e, Tensor) else Tensor(z_e)
    total = None
    for n in range(book.depth):
        d = tt.sub(z, Tensor(code.prefixes[n]))
        term = tt.sum_(tt.mul(d, d))
        total = term if total is None else tt.add(total, term)
    return total


def codebook_update(book: RQCodebook, z_e, decay=EMA_DECAY):
    """EMA-update codes toward the mean residual assigned to them.

    Assignments and residuals are those of one rq_encode pass before any
    update, so each depth's residual has the code picked before it, not
    that code's updated value, subtracted.  The reserved zero code (index 0)
    is never moved; codes with no assignments are left unchanged.
    """
    code = rq_encode(z_e, book)
    for n in range(book.depth):
        codes = book.codes[n]
        pick, residual = code.indices[n], code.residuals[n]
        for k in range(1, book.size):
            mask = pick == k
            if mask.any():
                target = residual[mask].mean(axis=0)
                codes[k] = decay * codes[k] + (1.0 - decay) * target
