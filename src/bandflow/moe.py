"""Three-group mixture of experts with dense-to-sparse Gumbel-Softmax routing.

Groups: one routed per time token by the vocal embedding, one routed per
time token by a cross-attention style summary of the prompt tokens, and one
routed per feature channel by channel statistics.  A dense global gate over
the time-step embedding blends the first two.  Training uses dense
(differentiable) gates at temperature tau annealed from 2.0 down to 0.3;
inference uses hard one-expert routing everywhere except the global gate.

Inputs are [T, d] or carry leading batch axes, [..., T, d].  The two
token-routed groups flatten a batch to [rows * T, d], so their gates are one
[rows * T, N] row per token; the acoustic group routes each sample's
channels by that sample's statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .blocks import FeedForward, sdp_attention
from .errors import ConfigError, DimensionError
from .tensor import ParameterStore, Tensor

TAU_HIGH = 2.0
TAU_LOW = 0.3
BALANCE_ALPHA = 0.1


def tau_schedule(progress):
    """Linear anneal from TAU_HIGH to TAU_LOW as progress goes 0 -> 1."""
    p = min(max(float(progress), 0.0), 1.0)
    return TAU_HIGH + (TAU_LOW - TAU_HIGH) * p


@dataclass
class RouterState:
    """Routing configuration shared by the expert groups for one pass."""
    tau: float = TAU_HIGH
    mode: str = "dense"          # "dense" (training) or "hard" (inference)
    rng: object = None

    def __post_init__(self):
        if self.mode not in ("dense", "hard"):
            raise ConfigError(f"unknown router mode {self.mode!r}")


def gumbel_gate(logits, tau, rng, mode):
    """Per-row gate weights over experts from routing logits [..., N].

    Dense mode: softmax((logits + gumbel_noise) / tau), differentiable; the
    noise is drawn from `rng`, and with `rng` None the gate is
    softmax(logits / tau).
    Hard mode: noise-free one-hot argmax of the logits.
    """
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    if mode == "hard":
        data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
        return Tensor(np.eye(data.shape[-1])[data.argmax(axis=-1)])
    if mode != "dense":
        raise ConfigError(f"unknown router mode {mode!r}")
    if rng is not None:
        u = rng.uniform(low=np.finfo(float).tiny, high=1.0, size=logits.shape)
        logits = tt.add(logits, -np.log(-np.log(u)))
    return tt.softmax(tt.mul(logits, 1.0 / tau), axis=-1)


def gate_entropy(gates):
    """Mean Shannon entropy (nats) of gate rows."""
    g = gates.data if isinstance(gates, Tensor) else np.asarray(gates)
    g = np.clip(g, 1e-300, None)
    return float(-(g * np.log(g)).sum(axis=-1).mean())


def balance_loss(gates, form="switch"):
    """Load-balancing regularizer over dense gates [n, N]; alpha is BALANCE_ALPHA.

    "switch": alpha * N * sum_i f_i * P_i with f_i the argmax-traffic
    fraction (constant) and P_i the mean dense gate.  "literal": alpha * N *
    sum_i mean_n g_i, which is identically alpha * N for normalized gates
    and therefore carries no gradient signal; kept for comparison.
    """
    if gates.ndim != 2:
        raise DimensionError(f"balance loss needs gates [rows, N], got {gates.shape}")
    n, num = gates.shape
    mean_gate = tt.mean(gates, axis=0)          # [N]
    if form == "literal":
        return tt.mul(tt.sum_(mean_gate), BALANCE_ALPHA * num)
    if form != "switch":
        raise ConfigError(f"unknown balance-loss form {form!r}")
    choices = gates.data.argmax(axis=1)
    frac = np.bincount(choices, minlength=num) / n
    return tt.mul(tt.sum_(tt.mul(mean_gate, frac)), BALANCE_ALPHA * num)


def _token_column(i):
    """Expert i's gates in [tokens, N] gates: a [tokens, 1] column."""
    return (slice(None), slice(i, i + 1))


def _channel_column(j):
    """Expert j's gates in [..., d, N] gates: a [..., 1, d] row per sample."""
    return (Ellipsis, None, slice(None), j)


def _experts(d, n_experts, rng, params: ParameterStore, prefix):
    """One group's position-wise feed-forward experts (hidden width 2d)."""
    if n_experts < 1:
        raise ConfigError("need at least one expert")
    return [FeedForward(d, 2 * d, rng, params, f"{prefix}.expert{i}")
            for i in range(n_experts)]


class BandMoE:
    """The full three-group expert layer plus global gate (one block's slot).

    Each group is a list of experts.  The time row that drives the global
    gate is [1, d] (or [..., 1, d]), d the model width.
    """

    def __init__(self, d, n_experts, rng, params: ParameterStore, prefix):
        self.n = n_experts
        p = params
        self.aligned = _experts(d, n_experts, rng, p, f"{prefix}.aligned")
        self.controlled = _experts(d, n_experts, rng, p, f"{prefix}.controlled")
        self.acoustic = _experts(d, n_experts, rng, p, f"{prefix}.acoustic")
        s = 1.0 / np.sqrt(d)
        self.w_aligned = p.add(f"{prefix}.w_aligned", rng.standard_normal((d, n_experts)) * s)
        self.w_controlled = p.add(f"{prefix}.w_controlled", rng.standard_normal((d, n_experts)) * s)
        # channel router sees (mean, var) over time for each channel
        self.w_acoustic = p.add(f"{prefix}.w_acoustic", rng.standard_normal((2, n_experts)))
        self.w_global = p.add(f"{prefix}.w_global",
                              rng.standard_normal((d, 2)) / np.sqrt(d))
        self.last_gates = {}

    # -- individual routing stages -----------------------------------------

    def route_aligned(self, h, z_v, state: RouterState):
        if h.shape[:-1] != z_v.shape[:-1]:
            raise DimensionError(f"token counts differ: {h.shape[:-1]} vs {z_v.shape[:-1]}")
        return self._route_tokens("aligned", self.w_aligned, z_v, h, state)

    def route_controlled(self, h, z_p, state: RouterState):
        z_sty = sdp_attention(h, z_p, z_p)
        return self._route_tokens("controlled", self.w_controlled, z_sty, h, state)

    def _route_tokens(self, group, w_router, z, h, state):
        """Route each token of h to the experts of `group` by its row of z:
        output[t] = sum_i gates[t, i] * expert_i(h)[t]."""
        logits = tt.matmul(_tokens(z), w_router)
        gates = gumbel_gate(logits, state.tau, state.rng, state.mode)
        self.last_gates[group] = gates
        tokens = _tokens(h)
        out = tt.gated_sum([ex(tokens) for ex in getattr(self, group)], gates, _token_column)
        return _untokens(out, h.shape)

    def global_mix(self, o_aligned, o_controlled, time_vec, state: RouterState):
        """Blend the two token-routed outputs by the [1, d] time row; the
        global gate stays dense."""
        logits = tt.matmul(time_vec, self.w_global)
        gates = gumbel_gate(logits, state.tau, state.rng, "dense")
        self.last_gates["global"] = gates
        return tt.gated_sum([o_aligned, o_controlled], gates, _token_column)

    def route_acoustic(self, o_combined, state: RouterState):
        """Route each channel of each sample by its (mean, var) over time:
        output[..., c] = sum_j gates[..., c, j] * expert_j(o)[..., c]."""
        m = tt.mean(o_combined, axis=-2, keepdims=True)                     # [..., 1, d]
        sq = tt.mean(tt.mul(o_combined, o_combined), axis=-2, keepdims=True)
        var = tt.sub(sq, tt.mul(m, m))
        stats = tt.swapaxes(tt.concat([m, var], axis=-2), -1, -2)          # [..., d, 2]
        logits = tt.matmul(stats, self.w_acoustic)
        gates = gumbel_gate(logits, state.tau, state.rng, state.mode)
        self.last_gates["acoustic"] = gates
        # hard mode runs only the experts some channel picks, as an unpicked
        # expert's term would be an exact +-0; a call with no channels runs all
        picked = np.arange(self.n)
        if state.mode == "hard" and gates.data.size:
            picked = np.flatnonzero(gates.data.reshape(-1, self.n).any(axis=0))
        return tt.gated_sum([self.acoustic[j](o_combined) for j in picked], gates,
                            lambda i: _channel_column(picked[i]))

    # -- full layer ---------------------------------------------------------

    def __call__(self, h, z_v, z_p, time_vec, state):
        o_a = self.route_aligned(h, z_v, state)
        o_c = self.route_controlled(h, z_p, state)
        o = self.global_mix(o_a, o_c, time_vec, state)
        return self.route_acoustic(o, state)

    def balance(self):
        """Sum of balance losses over the three hard-routable groups."""
        total = None
        for name in ("aligned", "controlled", "acoustic"):
            term = balance_loss(self.last_gates[name])
            total = term if total is None else tt.add(total, term)
        return total


def _tokens(x):
    """[..., T, d] -> [rows * T, d]; a [T, d] input passes through as it is."""
    return x if x.ndim == 2 else tt.reshape(x, (-1, x.shape[-1]))


def _untokens(x, shape):
    """Inverse of _tokens for an input of `shape`."""
    return x if len(shape) == 2 else tt.reshape(x, shape)


class PlainBandFFN:
    """The routing-free composition a one-expert BandMoE reduces to.

    Shares the expert and global-gate parameters of `moe`; used to verify
    the N=1 reduction is exact.
    """

    def __init__(self, moe: BandMoE):
        if moe.n != 1:
            raise ConfigError("reduction only defined for single-expert groups")
        self.moe = moe

    def __call__(self, h, z_v, z_p, time_vec, state):
        m = self.moe
        o_a = m.aligned[0](h)
        o_c = m.controlled[0](h)
        gates = gumbel_gate(tt.matmul(time_vec, m.w_global), state.tau, state.rng, "dense")
        o = tt.add(tt.mul(o_a, gates[0:1, 0:1]), tt.mul(o_c, gates[0:1, 1:2]))
        return m.acoustic[0](o)
