import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandflow.tensor as tt
from bandflow.blocks import (
    BandBlock,
    FeedForward,
    GatedAttention,
    global_style,
    positional_encoding,
    rope_rotate,
    sdp_attention,
    style_alignment_stack,
)
from bandflow.blocks import _rope_angles, _rope_tables
from bandflow.errors import ConfigError, DimensionError, NumericError
from bandflow.moe import BandMoE, RouterState
from bandflow.optim import Adam
from bandflow.tensor import ParameterStore, Tape, Tensor, backward


class TestSdpAttention:
    def test_single_key_returns_value(self):
        q = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        k = Tensor(np.random.default_rng(1).standard_normal((1, 4)))
        v = Tensor([[2.0, -1.0]])
        out = sdp_attention(q, k, v)
        np.testing.assert_allclose(out.data, np.tile(v.data, (3, 1)))

    def test_identical_keys_average_values(self):
        k = Tensor(np.ones((4, 2)))
        v = Tensor(np.arange(8.0).reshape(4, 2))
        out = sdp_attention(Tensor(np.zeros((1, 2))), k, v)
        np.testing.assert_allclose(out.data, v.data.mean(axis=0, keepdims=True))

    def test_two_token_hand_example(self):
        # d = 1, scores = [0, 1] -> weights sigmoid-like via softmax
        q = Tensor([[1.0]])
        k = Tensor([[0.0], [1.0]])
        v = Tensor([[10.0], [20.0]])
        out = sdp_attention(q, k, v)
        w = np.exp([0.0, 1.0])
        w /= w.sum()
        np.testing.assert_allclose(out.data, [[10.0 * w[0] + 20.0 * w[1]]])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5))
    def test_output_in_value_convex_hull(self, nq, nk):
        rng = np.random.default_rng(nq * 7 + nk)
        v = rng.standard_normal((nk, 3))
        out = sdp_attention(Tensor(rng.standard_normal((nq, 3))),
                            Tensor(rng.standard_normal((nk, 3))),
                            Tensor(v)).data
        assert (out <= v.max(axis=0) + 1e-9).all()
        assert (out >= v.min(axis=0) - 1e-9).all()

    def test_heads_match_per_head_calls(self):
        rng = np.random.default_rng(7)
        q, k, v = (rng.standard_normal((3, 5, 4)), rng.standard_normal((3, 6, 4)),
                   rng.standard_normal((3, 6, 2)))
        out = sdp_attention(Tensor(q), Tensor(k), Tensor(v)).data
        for h in range(3):
            np.testing.assert_array_equal(
                out[h], sdp_attention(Tensor(q[h]), Tensor(k[h]), Tensor(v[h])).data)

    def test_non_finite_scores_rejected(self):
        q = Tensor([[np.inf, 0.0]])
        with pytest.raises(NumericError):
            sdp_attention(q, Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))

    def test_mismatched_widths(self):
        with pytest.raises(DimensionError):
            sdp_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                          Tensor(np.zeros((2, 4))))
        with pytest.raises(DimensionError):
            sdp_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                          Tensor(np.zeros((3, 4))))
        with pytest.raises(DimensionError):
            sdp_attention(Tensor(np.zeros((2, 1, 3))), Tensor(np.zeros((3, 2, 3))),
                          Tensor(np.zeros((3, 2, 4))))


def _rope_reference(x, positions):
    """Rotate each coordinate pair of x [T, d] by position * 10000^(-2j/d)."""
    T, d = x.shape
    theta = 10000.0 ** (-2.0 * np.arange(d // 2) / d)
    z = (x[:, 0::2] + 1j * x[:, 1::2]) * np.exp(1j * np.outer(positions, theta))
    out = np.empty_like(x)
    out[:, 0::2], out[:, 1::2] = z.real, z.imag
    return out


class TestRope:
    def test_matches_complex_rotation(self):
        x = np.random.default_rng(3).standard_normal((7, 6))
        np.testing.assert_allclose(rope_rotate(Tensor(x), heads=1).data,
                                   _rope_reference(x, np.arange(7)), rtol=0, atol=1e-14)

    def test_heads_rotate_independently(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 12))
        pos = rng.uniform(0, 9, size=5)
        out = rope_rotate(Tensor(x), positions=pos, heads=3).data
        for h in range(3):
            sl = slice(4 * h, 4 * h + 4)
            np.testing.assert_array_equal(
                out[:, sl], rope_rotate(Tensor(x[:, sl]), positions=pos, heads=1).data)

    def test_leading_axes_share_the_tables(self):
        x = np.random.default_rng(6).standard_normal((3, 2, 5, 12))
        out = rope_rotate(Tensor(x), heads=3).data
        for i in range(3):
            for j in range(2):
                np.testing.assert_array_equal(out[i, j],
                                              rope_rotate(Tensor(x[i, j]), heads=3).data)

    def test_tables_must_match_trailing_axes(self):
        cos = np.ones((4, 3))
        with pytest.raises(DimensionError):
            tt.rotate_pairs(Tensor(np.zeros((2, 5, 6))), cos, cos)
        with pytest.raises(DimensionError):
            tt.rotate_pairs(Tensor(np.zeros((5, 6))), np.ones((2, 5, 3)), np.ones((2, 5, 3)))

    def test_cached_tables_equal_fresh(self):
        for T, hd, heads in ((1, 2, 1), (16, 16, 4), (64, 8, 2)):
            cos, sin = _rope_tables(T, hd, heads)
            assert _rope_tables(T, hd, heads)[0] is cos
            fresh_cos, fresh_sin = _rope_angles(np.arange(T, dtype=np.float64), hd, heads)
            np.testing.assert_array_equal(cos, fresh_cos)
            np.testing.assert_array_equal(sin, fresh_sin)
            ang = np.outer(np.arange(T), 10000.0 ** (-2.0 * np.arange(hd // 2) / hd))
            np.testing.assert_allclose(cos, np.tile(np.cos(ang), (1, heads)), atol=1e-15)
            assert not cos.flags.writeable
        x = Tensor(np.random.default_rng(5).standard_normal((9, 8)))
        np.testing.assert_array_equal(rope_rotate(x, heads=2).data,
                                      rope_rotate(x, positions=np.arange(9), heads=2).data)

    def test_width_not_split_evenly_rejected(self):
        with pytest.raises(ConfigError):
            rope_rotate(Tensor(np.zeros((2, 12))), heads=4)

    def test_position_zero_identity(self):
        x = Tensor(np.random.default_rng(0).standard_normal((1, 8)))
        out = rope_rotate(x, positions=[0], heads=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((6, 8)))
        out = rope_rotate(x, heads=1).data
        pairs_in = x.data.reshape(6, 4, 2)
        pairs_out = out.reshape(6, 4, 2)
        np.testing.assert_allclose(np.linalg.norm(pairs_out, axis=2),
                                   np.linalg.norm(pairs_in, axis=2), atol=1e-12)

    def test_dot_depends_on_relative_position_only(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal(8)
        k = rng.standard_normal(8)
        for shift in (0, 3, 11):
            base = rope_rotate(Tensor(np.stack([q, k])), positions=[2, 5], heads=1).data
            moved = rope_rotate(Tensor(np.stack([q, k])),
                                positions=[2 + shift, 5 + shift], heads=1).data
            assert abs(base[0] @ base[1] - moved[0] @ moved[1]) < 1e-10

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            rope_rotate(Tensor(np.zeros((2, 3))), heads=1)

    def test_positional_encoding_bounded(self):
        pe = positional_encoding(50, 16)
        assert pe.shape == (50, 16)
        assert np.abs(pe).max() <= 1.0


class TestStyleStack:
    def test_zero_layers_is_duplication(self):
        z = Tensor(np.random.default_rng(0).standard_normal((5, 4)))
        out = style_alignment_stack(z, Tensor(np.zeros((3, 4))), layers=0)
        np.testing.assert_array_equal(out.data, np.concatenate([z.data, z.data], axis=1))

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        out = style_alignment_stack(Tensor(rng.standard_normal((7, 6))),
                                    Tensor(rng.standard_normal((4, 6))), layers=2)
        assert out.shape == (7, 12)

    def test_single_prompt_token(self):
        z_ct = Tensor(np.zeros((2, 4)))
        z_p = Tensor(np.full((1, 4), 2.0))
        out = style_alignment_stack(z_ct, z_p, layers=1)
        # one key: attention output is the (position-augmented) prompt row
        expect = z_p.data + positional_encoding(1, 4)
        np.testing.assert_allclose(out.data[:, :4], np.tile(expect, (2, 1)))
        np.testing.assert_array_equal(out.data[:, 4:], 0.0)

    def test_gradient_reaches_prompt(self):
        rng = np.random.default_rng(2)
        z_ct = Tensor(rng.standard_normal((3, 4)))
        z_p = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        with Tape():
            out = style_alignment_stack(z_ct, z_p, layers=2)
            backward(tt.sum_(tt.mul(out, out)))
        assert np.abs(z_p.grad).max() > 0


def _block(d=8, heads=2, seed=0):
    """A block whose expert slot is a one-expert BandMoE, called as
    block(h, z_p, z_g): the experts route by h itself, a one-token zero
    prompt and the global style row, densely."""
    params = ParameterStore()
    rng = np.random.default_rng(seed)
    block = BandBlock(d, heads, rng, params, "blk", BandMoE(d, 1, rng, params, "blk.moe"))
    prompt = Tensor(np.zeros((1, d)))

    def call(h, z_p, z_g):
        ctx = {"z_v": h, "z_p": prompt, "time_vec": z_g, "state": RouterState()}
        return block(h, z_p, z_g, moe_ctx=ctx)

    return call, params, rng


def _softmax_rows(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attention_reference(attn, h, z_p):
    """Per-head loop over plain numpy, the layout the module must reproduce."""
    hd = attn.head_dim
    q, k, v = (h @ w.data for w in (attn.wq, attn.wk, attn.wv))
    outs = []
    for i in range(attn.heads):
        sl = slice(i * hd, (i + 1) * hd)
        qh = _rope_reference(q[:, sl], np.arange(len(h)))
        kh = _rope_reference(k[:, sl], np.arange(len(h)))
        out = _softmax_rows(qh @ kh.T / np.sqrt(hd)) @ v[:, sl]
        if z_p is not None:
            kz, vz = z_p @ attn.wkz.data[:, sl], z_p @ attn.wvz.data[:, sl]
            out = out + _softmax_rows(qh @ kz.T / np.sqrt(hd)) @ vz * np.tanh(attn.alpha.data)
        outs.append(out)
    return np.concatenate(outs, axis=1) @ attn.wo.data


class TestGatedAttention:
    @pytest.mark.parametrize("with_prompt", [False, True])
    def test_all_heads_match_per_head_loop(self, with_prompt):
        params = ParameterStore()
        rng = np.random.default_rng(6)
        attn = GatedAttention(16, 4, rng, params, "a")
        attn.wo.data[...] = rng.standard_normal((16, 16))
        attn.alpha.data[...] = 0.7
        h = rng.standard_normal((9, 16))
        z_p = rng.standard_normal((3, 16)) if with_prompt else None
        out = attn(Tensor(h), None if z_p is None else Tensor(z_p)).data
        ref = _attention_reference(attn, h, z_p)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        if with_prompt:
            cross = attn.cross_branch(Tensor(h), Tensor(z_p)).data @ attn.wo.data
            ref_cross = ref - _attention_reference(attn, h, None)
            assert np.abs(cross - ref_cross).max() <= 1e-12 * np.abs(ref).max()

    def test_zero_contribution_at_init(self):
        params = ParameterStore()
        rng = np.random.default_rng(0)
        attn = GatedAttention(8, 2, rng, params, "a")
        h = Tensor(rng.standard_normal((5, 8)))
        z = Tensor(rng.standard_normal((3, 8)))
        np.testing.assert_array_equal(attn(h, z).data, np.zeros((5, 8)))
        np.testing.assert_array_equal(attn.cross_branch(h, z).data, np.zeros((5, 8)))

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            GatedAttention(8, 3, np.random.default_rng(0), ParameterStore(), "a")

    def test_gate_opens_with_alpha(self):
        params = ParameterStore()
        rng = np.random.default_rng(1)
        attn = GatedAttention(8, 2, rng, params, "a")
        attn.alpha.data[...] = 1.0
        h = Tensor(rng.standard_normal((4, 8)))
        z = Tensor(rng.standard_normal((2, 8)))
        assert np.abs(attn.cross_branch(h, z).data).max() > 0


class TestBandBlock:
    def test_identity_at_init(self):
        block, _, rng = _block()
        h = Tensor(rng.standard_normal((6, 8)))
        z_p = Tensor(rng.standard_normal((3, 8)))
        z_g = Tensor(rng.standard_normal((1, 8)))
        np.testing.assert_array_equal(block(h, z_p, z_g).data, h.data)

    def test_null_condition_invariant_at_init(self):
        block, _, rng = _block(seed=1)
        h = Tensor(rng.standard_normal((4, 8)))
        z_g = Tensor(rng.standard_normal((1, 8)))
        out_none = block(h, None, z_g)
        out_zp = block(h, Tensor(rng.standard_normal((2, 8))), z_g)
        np.testing.assert_array_equal(out_none.data, out_zp.data)

    def test_copy_task_loss_decreases(self):
        block, params, rng = _block(seed=2)
        opt = Adam(params, lr=1e-2)
        target = rng.standard_normal((5, 8))
        src = rng.standard_normal((5, 8))
        z_g = Tensor(rng.standard_normal((1, 8)))

        def loss_val():
            return tt.mse(block(Tensor(src), None, z_g), Tensor(target))

        init = loss_val().item()
        for _ in range(60):
            with Tape():
                backward(loss_val())
            opt.step(None)
            opt.zero_grad()
        assert loss_val().item() < 0.5 * init


def test_global_style_shape_and_arithmetic():
    z_p = Tensor(np.full((4, 6), 1.0))
    z_v = Tensor(np.full((3, 6), 2.0))
    t = Tensor(np.full(6, 0.5))
    out = global_style(z_p, z_v, t)
    assert out.shape == (1, 6)
    np.testing.assert_allclose(out.data, 3.5)


def test_feedforward_zero_at_zero():
    params = ParameterStore()
    ff = FeedForward(4, 8, np.random.default_rng(0), params, "ff")
    np.testing.assert_array_equal(ff(Tensor(np.zeros((3, 4)))).data, np.zeros((3, 4)))
