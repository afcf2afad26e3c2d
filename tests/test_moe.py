import numpy as np
import pytest

import bandflow.tensor as tt
from bandflow.errors import ConfigError
from bandflow.moe import (
    TAU_HIGH,
    TAU_LOW,
    BandMoE,
    PlainBandFFN,
    RouterState,
    balance_loss,
    gate_entropy,
    gumbel_gate,
    tau_schedule,
)
from bandflow.optim import Adam
from bandflow.tensor import ParameterStore, Tape, Tensor, backward


class TestGumbelGate:
    def test_rows_normalized_dense(self):
        rng = np.random.default_rng(0)
        gates = gumbel_gate(Tensor(rng.standard_normal((50, 4))), tau=0.7,
                            rng=rng, mode="dense")
        np.testing.assert_allclose(gates.data.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_normalized_hard(self):
        rng = np.random.default_rng(1)
        gates = gumbel_gate(Tensor(rng.standard_normal((50, 4))), tau=0.7, rng=None,
                            mode="hard")
        np.testing.assert_allclose(gates.data.sum(axis=1), 1.0, atol=1e-12)

    def test_hard_is_argmax(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((1000, 5))
        gates = gumbel_gate(Tensor(logits), tau=1.0, rng=None, mode="hard").data
        np.testing.assert_array_equal(gates.argmax(axis=1), logits.argmax(axis=1))
        assert set(np.unique(gates)) <= {0.0, 1.0}

    def test_noise_free_dense_is_tempered_softmax(self):
        logits = Tensor([[1.0, 2.0, 3.0]])
        gates = gumbel_gate(logits, tau=0.5, rng=None, mode="dense").data
        expect = np.exp(np.array([1.0, 2.0, 3.0]) / 0.5)
        expect /= expect.sum()
        np.testing.assert_allclose(gates[0], expect, atol=1e-12)

    def test_temperature_controls_entropy(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((2000, 4))
        hi = gate_entropy(gumbel_gate(Tensor(logits), TAU_HIGH,
                                      np.random.default_rng(7), "dense"))
        lo = gate_entropy(gumbel_gate(Tensor(logits), TAU_LOW,
                                      np.random.default_rng(7), "dense"))
        assert hi > lo

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            gumbel_gate(Tensor(np.zeros((1, 2))), tau=0.0, rng=None, mode="dense")

    def test_tau_schedule_endpoints(self):
        assert tau_schedule(0.0) == TAU_HIGH
        assert tau_schedule(1.0) == pytest.approx(TAU_LOW)
        assert tau_schedule(0.5) == pytest.approx((TAU_HIGH + TAU_LOW) / 2)


class TestBalanceLoss:
    def test_uniform_gates_switch(self):
        n, num = 12, 4
        gates = Tensor(np.full((n, num), 1.0 / num))
        # argmax ties resolve to expert 0, so f = (1,0,0,0) and P_i = 1/N
        val = balance_loss(gates, form="switch").item()
        assert val == pytest.approx(0.1 * num * (1.0 / num))

    def test_concentrated_gates_switch(self):
        n, num = 10, 4
        g = np.zeros((n, num))
        g[:, 2] = 1.0
        val = balance_loss(Tensor(g), form="switch").item()
        assert val == pytest.approx(0.1 * num)

    def test_literal_form_is_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            logits = Tensor(rng.standard_normal((8, 3)))
            gates = gumbel_gate(logits, tau=1.0, rng=rng, mode="dense")
            val = balance_loss(gates, form="literal").item()
            assert val == pytest.approx(0.1 * 3, abs=1e-10)

    def test_switch_minimized_by_even_assignment(self):
        # among all hard assignments of n tokens to N experts, even traffic
        # gives the smallest switch-form value (checked by enumeration)
        for num in (2, 3, 4):
            n = num * 2
            best = None
            even_val = None
            for code in range(num ** n):
                assign = [(code // num ** i) % num for i in range(n)]
                g = np.zeros((n, num))
                g[np.arange(n), assign] = 1.0
                val = balance_loss(Tensor(g), form="switch").item()
                best = val if best is None else min(best, val)
                counts = np.bincount(assign, minlength=num)
                if (counts == 2).all() and even_val is None:
                    even_val = val
            assert even_val == pytest.approx(best)

    def test_unknown_form(self):
        with pytest.raises(ConfigError):
            balance_loss(Tensor(np.ones((2, 2)) / 2), form="other")


def _moe(d=4, n=2, seed=0, **kw):
    params = ParameterStore()
    rng = np.random.default_rng(seed)
    return BandMoE(d, n, rng, params, "moe", **kw), params, rng


class TestRoutingStages:
    def test_aligned_routing_learns_cluster_split(self):
        d = 4
        moe, params, rng = _moe(d=d, n=2, seed=0)
        # two vocal clusters want opposite outputs
        z_v = np.zeros((16, d))
        z_v[:8, 0] = 2.0
        z_v[8:, 0] = -2.0
        h = rng.standard_normal((16, d))
        target = np.where(np.arange(16)[:, None] < 8, 1.0, -1.0) * np.ones((16, d))
        opt = Adam(params, lr=2e-2)
        state = RouterState(tau=1.0, mode="dense", rng=None)
        for _ in range(150):
            with Tape():
                out = moe.route_aligned(Tensor(h), Tensor(z_v), state)
                backward(tt.mse(out, Tensor(target)))
            opt.step(None)
            opt.zero_grad()
        hard = RouterState(tau=TAU_LOW, mode="hard", rng=None)
        moe.route_aligned(Tensor(h), Tensor(z_v), hard)
        picks = moe.last_gates["aligned"].data.argmax(axis=1)
        top = np.bincount(picks[:8], minlength=2)
        bot = np.bincount(picks[8:], minlength=2)
        # each cluster routes consistently, and to different experts
        assert top.max() >= 8 * 0.9 and bot.max() >= 8 * 0.9
        assert top.argmax() != bot.argmax()

    def test_controlled_routing_flips_with_prompt(self):
        d = 4
        moe, _, rng = _moe(d=d, n=2, seed=1)
        moe.w_controlled.data[...] = 0.0
        moe.w_controlled.data[0, 0] = 1.0
        moe.w_controlled.data[0, 1] = -1.0
        h = Tensor(rng.standard_normal((5, d)) * 0.1)
        state = RouterState(tau=TAU_LOW, mode="hard", rng=None)
        prompt_a = np.zeros((3, d)); prompt_a[:, 0] = 3.0
        prompt_b = np.zeros((3, d)); prompt_b[:, 0] = -3.0
        moe.route_controlled(h, Tensor(prompt_a), state)
        picks_a = moe.last_gates["controlled"].data.argmax(axis=1)
        moe.route_controlled(h, Tensor(prompt_b), state)
        picks_b = moe.last_gates["controlled"].data.argmax(axis=1)
        assert (picks_a == 0).all() and (picks_b == 1).all()

    def test_acoustic_routing_partitions_channels_by_variance(self):
        d = 6
        moe, _, rng = _moe(d=d, n=2, seed=2)
        moe.w_acoustic.data[...] = [[0.0, 0.0], [1.0, -1.0]]
        x = np.zeros((32, d))
        x[:, :3] = rng.standard_normal((32, 3)) * 5.0   # high variance
        x[:, 3:] = 0.01                                  # near constant
        state = RouterState(tau=TAU_LOW, mode="hard", rng=None)
        moe.route_acoustic(Tensor(x), state)
        picks = moe.last_gates["acoustic"].data.argmax(axis=1)
        assert (picks[:3] == 0).all() and (picks[3:] == 1).all()

    def test_global_mix_arithmetic(self):
        moe, _, rng = _moe(d=4, n=2, seed=3)
        moe.w_global.data[...] = 0.0   # logits 0 -> alpha = beta = 0.5
        o_a = Tensor(np.full((3, 4), 2.0))
        o_c = Tensor(np.full((3, 4), 4.0))
        t = Tensor(rng.standard_normal((1, 4)))
        out = moe.global_mix(o_a, o_c, t, RouterState(tau=1.0, rng=None))
        np.testing.assert_allclose(out.data, 3.0, atol=1e-12)
        g = moe.last_gates["global"].data
        np.testing.assert_allclose(g, 0.5, atol=1e-12)

    def test_global_gate_dense_even_in_hard_mode(self):
        moe, _, rng = _moe(d=4, n=2, seed=4)
        o = Tensor(rng.standard_normal((3, 4)))
        moe.global_mix(o, o, Tensor(rng.standard_normal((1, 4))),
                       RouterState(tau=TAU_LOW, mode="hard", rng=None))
        g = moe.last_gates["global"].data
        assert 0.0 < g.min() and g.max() < 1.0


class TestSingleExpertReduction:
    def test_full_layer_matches_plain_composition_bitwise(self):
        moe, _, rng = _moe(d=4, n=1, seed=5)
        plain = PlainBandFFN(moe)
        h = Tensor(rng.standard_normal((6, 4)))
        z_v = Tensor(rng.standard_normal((6, 4)))
        z_p = Tensor(rng.standard_normal((3, 4)))
        t = Tensor(rng.standard_normal((1, 4)))
        for mode in ("dense", "hard"):
            state = RouterState(tau=0.8, mode=mode, rng=None)
            a = moe(h, z_v=z_v, z_p=z_p, time_vec=t, state=state).data
            b = plain(h, z_v=z_v, z_p=z_p, time_vec=t,
                      state=RouterState(tau=0.8, mode=mode, rng=None)).data
            np.testing.assert_array_equal(a, b)

    def test_plain_requires_single_expert(self):
        moe, _, _ = _moe(n=2, seed=6)
        with pytest.raises(ConfigError):
            PlainBandFFN(moe)

    def test_single_expert_gates_are_one(self):
        moe, _, rng = _moe(d=4, n=1, seed=7)
        state = RouterState(tau=1.3, mode="dense", rng=np.random.default_rng(0))
        moe.route_aligned(Tensor(rng.standard_normal((5, 4))),
                          Tensor(rng.standard_normal((5, 4))), state)
        np.testing.assert_array_equal(moe.last_gates["aligned"].data, 1.0)


class TestBalanceIntegration:
    def test_balance_sums_recorded_groups(self):
        moe, _, rng = _moe(d=4, n=2, seed=8)
        state = RouterState(tau=1.0, mode="dense", rng=np.random.default_rng(1))
        moe(Tensor(rng.standard_normal((6, 4))),
            z_v=Tensor(rng.standard_normal((6, 4))),
            z_p=Tensor(rng.standard_normal((3, 4))),
            time_vec=Tensor(rng.standard_normal((1, 4))), state=state)
        total = moe.balance().item()
        parts = sum(
            balance_loss(moe.last_gates[g], "switch").item()
            for g in ("aligned", "controlled", "acoustic"))
        assert total == pytest.approx(parts)

    def test_balance_gradient_flows_to_router(self):
        moe, _, rng = _moe(d=4, n=2, seed=9)
        state = RouterState(tau=1.0, mode="dense", rng=np.random.default_rng(2))
        with Tape():
            moe(Tensor(rng.standard_normal((6, 4))),
                z_v=Tensor(rng.standard_normal((6, 4))),
                z_p=Tensor(rng.standard_normal((3, 4))),
                time_vec=Tensor(rng.standard_normal((1, 4))), state=state)
            backward(moe.balance())
        assert np.abs(moe.w_aligned.grad).max() > 0


class TestHardRoutingPicksOneExpert:
    """In hard mode every routed unit's output is its chosen expert's output,
    bit for bit: the other experts enter as exact zeros."""

    HARD = RouterState(tau=TAU_LOW, mode="hard", rng=None)

    @pytest.mark.parametrize("shape", [(7, 4), (3, 5, 4)])
    def test_controlled_token_gets_its_experts_output(self, shape):
        moe, _, rng = _moe(d=4, n=3, seed=10)
        # a token attends to the prompt row on the side of its h[0], whose
        # sign then picks expert 0 or 1
        moe.w_controlled.data[0] = [1.0, -1.0, 0.0]
        h = Tensor(rng.standard_normal(shape))
        z_p = Tensor(np.broadcast_to([[3.0, 0, 0, 0], [-3.0, 0, 0, 0]], shape[:-2] + (2, 4)))
        out = moe.route_controlled(h, z_p, self.HARD).data.reshape(-1, 4)
        picks = moe.last_gates["controlled"].data.argmax(axis=1)
        assert len(set(picks)) > 1
        tokens = Tensor(h.data.reshape(-1, 4))
        for row, k in enumerate(picks):
            expect = moe.controlled[k](tokens).data[row]
            np.testing.assert_array_equal(out[row], expect)

    @pytest.mark.parametrize("shape", [(6, 4), (2, 6, 4)])
    def test_acoustic_channel_gets_its_experts_output(self, shape):
        moe, _, rng = _moe(d=4, n=2, seed=11)
        moe.w_acoustic.data[...] = [[1.0, -1.0], [0.0, 0.0]]   # by the sign of the mean
        h = Tensor(rng.standard_normal(shape) + np.array([2.0, -2.0, -2.0, 2.0]))
        out = moe.route_acoustic(h, self.HARD).data
        picks = moe.last_gates["acoustic"].data.argmax(axis=-1)      # [..., d]
        assert len(set(picks.ravel())) > 1
        expert_out = [ex(h).data for ex in moe.acoustic]
        for idx in np.ndindex(picks.shape):
            lead, c = idx[:-1], idx[-1]
            expect = expert_out[picks[idx]][lead + (slice(None), c)]
            np.testing.assert_array_equal(out[lead + (slice(None), c)], expect)


def _bytes(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


def _global_mix_chain(moe, o_a, o_c, time_vec, state):
    """The oracle: global_mix's hand-built mix that gated_sum replaced."""
    logits = tt.matmul(time_vec, moe.w_global)
    gates = gumbel_gate(logits, state.tau, state.rng, mode="dense")
    moe.last_gates["global"] = gates
    return tt.add(tt.mul(o_a, gates[0:1, 0:1]), tt.mul(o_c, gates[0:1, 1:2]))


def _zero_noise_gate(logits, tau):
    """The oracle: gumbel_gate's dense path with an all-zero noise array."""
    return tt.softmax(tt.mul(tt.add(logits, np.zeros(logits.shape)), 1.0 / tau), axis=-1)


class TestFusedPathsMatchTheirChains:
    """The fused global mix and the noise-free dense gate give bitwise the
    outputs and gradients of the op chains they replace."""

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("noise", [False, True])
    def test_global_mix(self, lead, noise):
        results = []
        for mix in (BandMoE.global_mix, _global_mix_chain):
            moe, _, rng = _moe(d=4, n=2, seed=11)
            o_a = Tensor(rng.standard_normal(lead + (5, 4)), requires_grad=True)
            o_c = Tensor(rng.standard_normal(lead + (5, 4)), requires_grad=True)
            t = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
            w = rng.standard_normal(lead + (5, 4))
            state = RouterState(tau=0.7, rng=np.random.default_rng(2) if noise else None)
            with Tape():
                out = mix(moe, o_a, o_c, t, state)
                backward(tt.sum_(tt.mul(out, w)))
            gates = moe.last_gates["global"]
            results.append(_bytes([out.data, o_a.grad, o_c.grad, gates.data, gates.grad,
                                   moe.w_global.grad, t.grad]))
        assert results[0] == results[1]

    def test_noise_free_gate(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 4))
        logits[0, 1] = logits[2, 3] = -0.0
        logits[1, 2] = 0.0
        logits[4] = -0.0
        w = rng.standard_normal((6, 4))
        results = []
        for gate in (lambda x: gumbel_gate(x, 0.7, None, "dense"),
                     lambda x: _zero_noise_gate(x, 0.7)):
            x = Tensor(logits.copy(), requires_grad=True)
            with Tape():
                out = gate(x)
                backward(tt.sum_(tt.mul(out, w)))
            results.append(_bytes([out.data, x.grad]))
        assert results[0] == results[1]
