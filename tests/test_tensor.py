import gc
import inspect
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandflow.tensor as tt
from bandflow import gradcheck
from bandflow.errors import (
    BoundsError,
    ConfigError,
    DimensionError,
    NumericError,
    StateError,
)
from bandflow.moe import _channel_column, _token_column
from bandflow.optim import Adam
from bandflow.tensor import ParameterStore, Tape, Tensor, backward


def grad_of(fn, *inputs):
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    with Tape():
        backward(fn(*inputs))
    return [t.grad for t in inputs]


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = tt.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_selector_row(self):
        out = tt.matmul(Tensor([[1.0, 0.0]]), Tensor([[2.0], [5.0]]))
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            tt.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


class TestBatchedMatmul:
    @pytest.mark.parametrize("sa,sb", [((3, 4, 5), (5, 2)), ((3, 4, 5), (3, 5, 2)),
                                       ((1, 4, 5), (3, 5, 2)), ((4, 5), (2, 5, 3))])
    def test_matches_numpy(self, sa, sb):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(sa), rng.standard_normal(sb)
        np.testing.assert_array_equal(tt.matmul(Tensor(a), Tensor(b)).data, a @ b)

    def test_grads_sum_over_batch(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((3, 4, 5)))
        b = Tensor(rng.standard_normal((5, 2)))
        ga, gb = grad_of(lambda x, y: tt.sum_(tt.matmul(x, y)), a, b)
        np.testing.assert_allclose(ga, np.broadcast_to(b.data.sum(axis=1), (3, 4, 5)))
        np.testing.assert_allclose(gb, np.broadcast_to(a.data.sum(axis=(0, 1))[:, None], (5, 2)))

    def test_rows_equal_two_d_products_bitwise(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((16, 8))
        for rows in (1, 5):
            a = rng.standard_normal((3, rows, 16))
            out = tt.matmul(Tensor(a), Tensor(b)).data
            for i in range(3):
                np.testing.assert_array_equal(out[i], tt.matmul(Tensor(a[i]), Tensor(b)).data)

    def test_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="inner"):
            tt.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4))))
        with pytest.raises(DimensionError, match="batch"):
            tt.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
        with pytest.raises(DimensionError):
            tt.matmul(Tensor(np.zeros(4)), Tensor(np.zeros((4, 2))))


class TestSwapaxes:
    def test_values_and_grad(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((2, 3, 4)))
        out = tt.swapaxes(a, 0, -1)
        np.testing.assert_array_equal(out.data, np.swapaxes(a.data, 0, -1))
        w = rng.standard_normal((4, 3, 2))
        (ga,) = grad_of(lambda x: tt.sum_(tt.mul(tt.swapaxes(x, 0, -1), w)), a)
        np.testing.assert_array_equal(ga, np.swapaxes(w, 0, -1))

    def test_bad_axis(self):
        with pytest.raises(DimensionError):
            tt.swapaxes(Tensor(np.zeros((2, 3))), 0, 2)


class TestSoftmax:
    def test_symmetry(self):
        out = tt.softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3))

    def test_stabilized(self):
        out = tt.softmax(Tensor([1000.0, 0.0]), axis=-1)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_nan_input_raises(self):
        with pytest.raises(NumericError):
            tt.softmax(Tensor([np.nan, 0.0]), axis=-1)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = tt.softmax(Tensor([row]), axis=-1)
        assert abs(out.data.sum() - 1.0) < 1e-12


class TestNorms:
    def test_rmsnorm_rms_three(self):
        out = tt.rmsnorm(Tensor([3.0, -3.0]), Tensor([1.0, 1.0]))
        np.testing.assert_allclose(out.data, [1.0, -1.0], rtol=1e-6)

    def test_rmsnorm_ones(self):
        out = tt.rmsnorm(Tensor(np.ones(5)), Tensor(np.ones(5)))
        np.testing.assert_allclose(out.data, np.ones(5), rtol=1e-5)

    def test_rmsnorm_zero_axis(self):
        with pytest.raises(DimensionError):
            tt.rmsnorm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)))

    def test_layernorm_row_stats(self):
        rng = np.random.default_rng(0)
        out = tt.layernorm(Tensor(rng.standard_normal((4, 16))))
        assert np.abs(out.data.mean(axis=1)).max() < 1e-10

    def test_adaln_identity_modulation(self):
        rng = np.random.default_rng(1)
        h = Tensor(rng.standard_normal((3, 8)))
        out = tt.adaln(h, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_array_equal(out.data, tt.layernorm(h).data)

    def test_adaln_constant(self):
        h = Tensor(np.random.default_rng(2).standard_normal((3, 8)))
        out = tt.adaln(h, Tensor(np.zeros(8)), Tensor(np.full(8, 5.0)))
        np.testing.assert_allclose(out.data, 5.0)

    def test_layernorm_tiny_variance_guarded(self):
        out = tt.layernorm(Tensor(np.full((2, 4), 3.0)))
        assert np.isfinite(out.data).all()


class TestConv1d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).standard_normal((1, 7))
        out = tt.conv1d(Tensor(x), Tensor([[[0.0, 1.0, 0.0]]]), bias=np.zeros(1), dilation=1)
        np.testing.assert_allclose(out.data, x)

    def test_box_kernel_zero_padded(self):
        out = tt.conv1d(Tensor([[1.0, 0.0, 0.0, 0.0]]), Tensor([[[1.0, 1.0, 1.0]]]),
                        bias=np.zeros(1), dilation=1)
        np.testing.assert_allclose(out.data, [[1.0, 1.0, 0.0, 0.0]])

    def test_dilation_taps(self):
        impulse = np.zeros((1, 9))
        impulse[0, 4] = 1.0
        out = tt.conv1d(Tensor(impulse), Tensor([[[1.0, 0.0, 1.0]]]), bias=np.zeros(1), dilation=2)
        expect = np.zeros((1, 9))
        expect[0, 2] = expect[0, 6] = 1.0
        np.testing.assert_allclose(out.data, expect)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            tt.conv1d(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 1, 2))), bias=np.zeros(1),
                      dilation=1)


class TestLosses:
    def test_cross_entropy_confident(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = logits[1, 2] = 100.0
        out = tt.cross_entropy(Tensor(logits), [1, 2])
        assert out.item() < 1e-10

    def test_cross_entropy_bounds(self):
        with pytest.raises(BoundsError):
            tt.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_mse_self(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 3)))
        assert tt.mse(x, x).item() == 0.0


class TestBackward:
    def test_sum_grad_ones(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape():
            backward(tt.sum_(w))
        np.testing.assert_array_equal(w.grad, np.ones(3))

    def test_square_sum_grad(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            backward(tt.sum_(tt.mul(w, w)))
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])

    def test_double_backward_raises(self):
        w = Tensor([1.0], requires_grad=True)
        with Tape():
            loss = tt.sum_(w)
            backward(loss)
            with pytest.raises(StateError):
                backward(loss)

    def test_tape_releases_intermediates_after_backward(self):
        w = Tensor(np.ones(64), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                mid = tt.tanh(tt.mul(w, 2.0))
                ref = weakref.ref(mid.data)
                loss = tt.sum_(tt.mul(mid, mid))
                backward(loss)
            del mid, loss
            assert ref() is None
            assert len(tape.nodes) == 4
            assert w.grad[0] == pytest.approx(4.0 * np.tanh(2.0) * (1.0 - np.tanh(2.0) ** 2))
        finally:
            gc.enable()

    def test_nonparticipating_leaf_zero_grad(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        other = Tensor([5.0], requires_grad=True)
        with Tape():
            backward(tt.sum_(w))
        np.testing.assert_array_equal(other.grad, [0.0])

    def test_first_gradient_of_a_transposed_view_lands_c_contiguous(self):
        t = Tensor(np.zeros((3, 2)))
        t.requires_grad = True
        g = np.array([[1.0, -0.0, 2.0], [-0.0, 3.0, 4.0]]).T
        t.accumulate(g)
        assert t.grad.flags.c_contiguous
        np.testing.assert_array_equal(t.grad, g)
        # -0.0 becomes +0.0, as when the gradient was a zero buffer plus g
        assert not np.signbit(t.grad).any()

    def test_loss_without_tape_raises(self):
        with pytest.raises(StateError):
            backward(tt.sum_(Tensor([1.0], requires_grad=True)))

    def test_nonscalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            out = tt.mul(w, 2.0)
            with pytest.raises(DimensionError):
                backward(out)


class TestOptim:
    def test_adam_quadratic_convergence(self):
        store = ParameterStore()
        w = store.add("w", [0.0])
        opt = Adam(store, lr=0.1)
        for _ in range(100):
            with Tape():
                d = tt.sub(w, 3.0)
                backward(tt.sum_(tt.mul(d, d)))
            opt.step(None)
            opt.zero_grad()
        assert abs(w.data[0] - 3.0) < 0.1

    def test_adam_default_betas(self):
        opt = Adam(ParameterStore(), lr=1e-3)
        assert (opt.beta1, opt.beta2) == (0.9, 0.98)


class TestGetitem:
    @pytest.mark.parametrize("key", [[0, 0], np.array([1]), (0, np.array([1]))],
                             ids=["list", "array", "tuple_with_array"])
    def test_array_keys_rejected(self, key):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with pytest.raises(DimensionError, match="gather"):
            x[key]


class TestParameterStore:
    def test_add_makes_a_trainable_leaf_with_a_zero_gradient(self):
        w = ParameterStore().add("w", [1.0, 2.0])
        assert w.requires_grad
        np.testing.assert_array_equal(w.grad, [0.0, 0.0])

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("a.w", [1.0])
        with pytest.raises(StateError):
            store.add("a.w", [2.0])

    def test_iteration_lexicographic(self):
        store = ParameterStore()
        for name in ("b", "a", "c"):
            store.add(name, [0.0])
            store.names()
        assert store.names() == ["a", "b", "c"]

    def test_pack_makes_views_into_segments_of_consecutive_names(self):
        rng = np.random.default_rng(0)
        shapes = {"e": 7000, "a": 9000, "c": 3, "b": 9000, "d": 20000, "f": (50, 10)}
        values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        store = ParameterStore()
        for name, value in values.items():
            store.add(name, value)
        segments = store.pack()
        # a 20,000-float leaf is a segment of its own
        assert [seg.names for seg in segments] == [["a"], ["b", "c"], ["d"], ["e", "f"]]
        assert store.pack() is segments
        for seg in segments:
            assert seg.data.nbytes < 128 * 1024 or len(seg.names) == 1
            for name in seg.names:
                p = store[name]
                assert np.shares_memory(p.data, seg.data)
                assert np.shares_memory(p.grad, seg.grad)
                np.testing.assert_array_equal(p.data, values[name])
        store["c"].grad[...] = 1.0
        store.zero_grad()
        assert not any(seg.grad.any() for seg in segments)

    def test_add_after_pack_raises(self):
        store = ParameterStore()
        store.add("a", [1.0])
        Adam(store, lr=0.1)
        with pytest.raises(StateError, match="packed"):
            store.add("c", [1.0])
        assert store.names() == ["a"]


def test_public_names_resolve():
    missing = [name for name in tt.__all__ if not hasattr(tt, name)]
    assert missing == []


def test_gradcheck_cases_reach_every_op(monkeypatch):
    """Each differentiable op in tensor.__all__ runs in some gradcheck case,
    directly or inside another op."""
    ops = [name for name in tt.__all__
           if inspect.isfunction(getattr(tt, name)) and name != "backward"]
    reached = set()

    def recorder(name, fn):
        def wrapped(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ops:
        monkeypatch.setattr(tt, name, recorder(name, getattr(tt, name)))
    for fn, inputs in gradcheck._cases(np.random.default_rng(0)).values():
        fn(*inputs)
    assert sorted(set(ops) - reached) == []


def _output_and_grads(fn, arrays, weights):
    """fn's output on fresh leaves holding `arrays`, and the leaves'
    gradients of sum(output * weights)."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape():
        out = fn(*leaves)
        backward(tt.sum_(tt.mul(out, weights)))
    return [out.data] + [t.grad for t in leaves]


def _assert_bitwise(fused, unfused):
    assert len(fused) == len(unfused)
    for a, b in zip(fused, unfused):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _ffn_chain(h, w1, b1, w2, b2):
    return tt.add(tt.matmul(tt.silu(tt.add(tt.matmul(h, w1), b1)), w2), b2)


def _gated_chain(key):
    def chain(gates, *outs):
        total = None
        for i, o in enumerate(outs):
            term = tt.mul(o, gates[key(i)])
            total = term if total is None else tt.add(total, term)
        return total
    return chain


def _gates(rng, shape, kind):
    logits = rng.standard_normal(shape)
    if kind == "one_hot":
        return np.eye(shape[-1])[logits.argmax(axis=-1)]
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


class TestFusedOpsMatchTheirChains:
    """ffn and gated_sum give bitwise the output and input gradients of the
    op chains they replace, at the 2-D, [B, T, d] and lone-row shapes."""

    @pytest.mark.parametrize("lead", [(7,), (1,), (3, 5), (3, 1)])
    def test_ffn(self, lead):
        rng = np.random.default_rng(len(lead) * 10 + lead[-1])
        d, hidden = 6, 12
        arrays = [rng.standard_normal(lead + (d,)), rng.standard_normal((d, hidden)),
                  rng.standard_normal(hidden), rng.standard_normal((hidden, d)),
                  rng.standard_normal(d)]
        w = rng.standard_normal(lead + (d,))
        _assert_bitwise(_output_and_grads(tt.ffn, arrays, w),
                        _output_and_grads(_ffn_chain, arrays, w))

    @pytest.mark.parametrize("kind", ["one_hot", "softmax"])
    @pytest.mark.parametrize("outs_shape,gates_shape,key", [
        ((9, 6), (9, 4), _token_column),
        ((3, 5, 6), (3, 6, 4), _channel_column),
        ((3, 1, 6), (3, 6, 4), _channel_column),
    ])
    def test_gated_sum(self, kind, outs_shape, gates_shape, key):
        rng = np.random.default_rng(len(outs_shape) + outs_shape[-2])
        n = gates_shape[-1]
        arrays = [_gates(rng, gates_shape, kind)]
        arrays += [rng.standard_normal(outs_shape) for _ in range(n)]
        w = rng.standard_normal(outs_shape)
        _assert_bitwise(
            _output_and_grads(lambda g, *outs: tt.gated_sum(outs, g, key), arrays, w),
            _output_and_grads(_gated_chain(key), arrays, w))

    def test_expert_group_gradients_bitwise(self):
        """A dense expert group: ffn outputs feeding gated_sum, with a second
        use of the gates, as the balance loss makes."""
        rng = np.random.default_rng(3)
        d, n = 4, 3
        weights = []
        for _ in range(n):
            weights += [rng.standard_normal((d, 2 * d)), rng.standard_normal(2 * d),
                        rng.standard_normal((2 * d, d)), rng.standard_normal(d)]
        arrays = [rng.standard_normal((5, d)), rng.standard_normal((5, n))] + weights
        w = rng.standard_normal((5, d))

        def group(ffn, mix):
            def run(h, logits, *ws):
                gates = tt.softmax(logits, axis=-1)
                outs = [ffn(h, *ws[4 * i:4 * i + 4]) for i in range(n)]
                return tt.add(mix(gates, *outs), tt.mul(tt.sum_(gates), 0.5))
            return run

        fused = group(tt.ffn, lambda g, *outs: tt.gated_sum(outs, g, _token_column))
        _assert_bitwise(_output_and_grads(fused, arrays, w),
                        _output_and_grads(group(_ffn_chain, _gated_chain(_token_column)),
                                          arrays, w))


_LOGISTIC_OPS = {
    "sigmoid": tt.sigmoid,
    "silu": tt.silu,
    "softplus": tt.softplus,
    # pre-activation h @ [[1]] + 0 is h itself
    "ffn": lambda h: tt.ffn(h, np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("op", sorted(_LOGISTIC_OPS))
def test_logistic_ops_saturate_without_warning_far_below_zero(op):
    """exp(-x) overflows to inf below about -709; the logistic is then the
    exact 0, and neither pass may warn."""
    x = Tensor(np.array([[-1e308], [-800.0], [-1.5], [2.0]]), requires_grad=True)
    with Tape():
        out = _LOGISTIC_OPS[op](x)
        backward(tt.sum_(out))
    np.testing.assert_array_equal(out.data[:2], 0.0)
    np.testing.assert_array_equal(x.grad[:2], 0.0)
    assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()


def test_broadcast_new_shape_rejected():
    with pytest.raises(DimensionError):
        tt.add(Tensor(np.zeros((3, 1))), Tensor(np.zeros((1, 4))))


def test_determinism_same_seed_same_ops():
    def run():
        rng = np.random.default_rng(42)
        a = Tensor(rng.standard_normal((4, 4)))
        b = Tensor(rng.standard_normal((4, 4)))
        return tt.softmax(tt.matmul(a, b), axis=-1).data

    assert np.array_equal(run(), run())
