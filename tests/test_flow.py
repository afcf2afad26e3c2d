import numpy as np
import pytest

import bandflow.tensor as tt
from bandflow.blocks import sinusoid_ladder
from bandflow.errors import ConfigError, DimensionError, NumericError
from bandflow.flow import (
    TIME_EMBED_DIM,
    FlowConfig,
    FlowSample,
    MLPEstimator,
    WaveNetEstimator,
    cfg_field,
    cfm_loss,
    euler_sample,
    make_flow_sample,
    sinusoidal_embedding,
    stack_flow_samples,
)
from bandflow.optim import Adam
from bandflow.tensor import ParameterStore, Tape, Tensor, backward


class ConstantField:
    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)

    def __call__(self, x, t, cond):
        return Tensor(np.broadcast_to(self.value, x.shape).copy())


class FnField:
    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x, t, cond):
        return Tensor(self.fn(x.data, t))


class TestFlowSample:
    def test_endpoints(self):
        x1 = np.array([2.0, 4.0])
        rng = np.random.default_rng(0)
        s0 = FlowSample(x0=rng.standard_normal(x1.shape), x1=x1, t=0.0)
        np.testing.assert_array_equal(s0.xt, s0.x0)
        s1 = FlowSample(x0=rng.standard_normal(x1.shape), x1=x1, t=1.0)
        np.testing.assert_array_equal(s1.xt, x1)

    def test_midpoint_arithmetic(self):
        s = FlowSample(x0=np.zeros(2), x1=np.array([2.0, 4.0]), t=0.5)
        np.testing.assert_array_equal(s.xt, [1.0, 2.0])
        np.testing.assert_array_equal(s.u, [2.0, 4.0])

    def test_path_linearity_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = make_flow_sample(rng.standard_normal(4), rng, 100)
            np.testing.assert_allclose(s.xt - s.x0, s.t * (s.x1 - s.x0), atol=1e-12)

    def test_grid_draws(self):
        rng = np.random.default_rng(2)
        ts = {make_flow_sample(np.zeros(1), rng, 100).t for _ in range(500)}
        assert all(abs(t * 100 - round(t * 100)) < 1e-12 for t in ts)
        assert max(ts) < 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FlowConfig(cfg_scale=1.0, infer_steps=0)


class TestCfmLoss:
    def _samples(self, n=4):
        rng = np.random.default_rng(0)
        return stack_flow_samples([make_flow_sample(rng.standard_normal(3), rng, 100)
                                   for _ in range(n)])

    def test_exact_field_zero_loss(self):
        samples = self._samples()
        est = FnField(lambda x, t: np.zeros((4, 3)))
        samples.u[...] = 0.0
        assert cfm_loss(est, samples).item() == 0.0

    def test_offset_field_unit_loss(self):
        samples = self._samples()

        class OffsetField:
            def __call__(self, x, t, cond, _samples=(samples,)):
                for s in _samples:
                    if np.array_equal(s.xt, x.data):
                        return Tensor(s.u + 1.0)
                raise AssertionError

        assert abs(cfm_loss(OffsetField(), samples).item() - 1.0) < 1e-12

    def test_shape_mismatch(self):
        samples = self._samples(1)
        est = FnField(lambda x, t: np.zeros(5))
        with pytest.raises(DimensionError):
            cfm_loss(est, samples)

    def test_linear_regression_improves(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal(64) * 0.5 + 2.0
        est = MLPEstimator(1, 16, rng)
        opt = Adam(est.params, lr=5e-3)

        def batch_loss():
            samples = stack_flow_samples([make_flow_sample(np.array([x]), rng, 100)
                                          for x in rng.choice(data, size=16)])
            return cfm_loss(est, samples)

        init = batch_loss().item()
        for _ in range(100):
            with Tape():
                loss = batch_loss()
                backward(loss)
            opt.step(None)
            opt.zero_grad()
        assert batch_loss().item() < init


def _mlp_layer_loop(est, xt, t, cond=None):
    """The oracle: MLPEstimator's per-layer silu(add(matmul)) loop that
    tt.ffn replaced."""
    temb = est.time(np.full(xt.shape[0], float(t)) if np.isscalar(t) else t)
    h = tt.concat([xt, temb], axis=1)
    for w, b in ((est.w0, est.b0), (est.w1, est.b1)):
        h = tt.silu(tt.add(tt.matmul(h, w), b))
    return tt.add(tt.matmul(h, est.w_out), est.b_out)


@pytest.mark.parametrize("shape,t", [((9, 2), 0.3), ((9, 2), "rows")])
def test_mlp_estimator_matches_its_layer_loop_bitwise(shape, t):
    """Output and every gradient, with all parameters drawn at random (the
    zero-initialized output layer would zero the hidden gradients)."""
    results = []
    for forward in (MLPEstimator.__call__, _mlp_layer_loop):
        rng = np.random.default_rng(4)
        est = MLPEstimator(2, 8, rng)
        for _, p in est.params.items():
            p.data[...] = rng.standard_normal(p.shape)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        times = rng.uniform(size=shape[0]) if t == "rows" else t
        w = rng.standard_normal(shape)
        with Tape():
            out = forward(est, x, times, None)
            backward(tt.sum_(tt.mul(out, w)))
        arrays = [out.data, x.grad] + [p.grad for _, p in est.params.items()]
        results.append([(a.shape, a.tobytes()) for a in arrays])
    assert results[0] == results[1]


class TestEuler:
    def test_constant_field_exact(self):
        x0 = np.array([1.0, -1.0])
        u0 = np.array([0.5, 2.0])
        for steps in (1, 7, 25):
            out = euler_sample(ConstantField(u0), x0, None,
                               FlowConfig(infer_steps=steps, cfg_scale=1.0))
            np.testing.assert_allclose(out.data, x0 + u0, atol=1e-10)

    def test_one_step_straight_path(self):
        x0 = np.array([0.3])
        x1 = np.array([2.0])
        est = ConstantField(x1 - x0)
        out = euler_sample(est, x0, None, FlowConfig(infer_steps=1, cfg_scale=1.0))
        np.testing.assert_allclose(out.data, x1, atol=1e-12)

    def test_two_point_dataset_reaches_endpoints(self):
        a, b = -1.0, 1.0

        def posterior_field(x, t):
            out = np.zeros_like(x)
            flat = np.ravel(x)
            of = np.ravel(out)
            for i, xx in enumerate(flat):
                num = den = 0.0
                for x1 in (a, b):
                    x0 = (xx - t * x1) / (1.0 - t)
                    w = np.exp(-0.5 * x0 * x0)
                    num += w * (x1 - x0)
                    den += w
                of[i] = num / den
            return out

        rng = np.random.default_rng(0)
        start = rng.standard_normal((200, 1))
        out = euler_sample(FnField(posterior_field), start, None,
                           FlowConfig(infer_steps=25, cfg_scale=1.0)).data.ravel()
        dist = np.minimum(np.abs(out - a), np.abs(out - b))
        assert dist.max() < 0.05

    def test_divergence_reports_step(self):
        est = FnField(lambda x, t: np.full_like(x, np.inf))
        with pytest.raises(NumericError, match="step 0"):
            euler_sample(est, np.zeros(2), None, FlowConfig(cfg_scale=1.0))

    def test_trace_rows(self):
        trace = []
        euler_sample(ConstantField([1.0]), np.zeros(1), None,
                     FlowConfig(infer_steps=4, cfg_scale=1.0), trace=trace)
        assert len(trace) == 4
        assert trace[0][0] == 0 and trace[0][1] == 0.0


class TestCfgField:
    def test_gamma_one_is_conditional(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 3)))
        b = Tensor(rng.standard_normal((3, 3)))
        np.testing.assert_array_equal(cfg_field(a, b, 1.0).data, a.data)

    def test_gamma_zero_is_unconditional(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal(4))
        b = Tensor(rng.standard_normal(4))
        np.testing.assert_array_equal(cfg_field(a, b, 0.0).data, b.data)

    def test_extrapolation(self):
        out = cfg_field(Tensor([2.0]), Tensor([0.0]), 3.0)
        np.testing.assert_allclose(out.data, [6.0])

    def test_affine_in_gamma(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal(5))
        b = Tensor(rng.standard_normal(5))
        g1, g2 = 0.7, 2.9
        lhs = cfg_field(a, b, g1).data + cfg_field(a, b, g2).data
        rhs = 2.0 * cfg_field(a, b, (g1 + g2) / 2.0).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            cfg_field(Tensor(np.zeros(2)), Tensor(np.zeros(3)), 1.0)


@pytest.mark.parametrize("t", [0.37, np.arange(64) % 7 / 100.0,
                               (np.arange(12) % 5 / 10.0)[:, None]],
                         ids=["float", "grid", "column"])
def test_sinusoidal_embedding_matches_the_direct_formula_bitwise(t):
    """Embedding each distinct time once and gathering the rows gives every
    bit of embedding each entry."""
    times = np.atleast_1d(np.asarray(t, dtype=np.float64))
    ang = times[..., None] * sinusoid_ladder(TIME_EMBED_DIM)
    direct = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
    out = sinusoidal_embedding(t)
    assert out.shape == times.shape + (TIME_EMBED_DIM,)
    assert out.tobytes() == direct.tobytes()


class TestWaveNet:
    def test_zero_field_at_init(self):
        rng = np.random.default_rng(0)
        est = WaveNetEstimator(2, 3, rng, ParameterStore(), residual_channels=32, layers=4)
        out = est(Tensor(rng.standard_normal((2, 10))), 0.3,
                  Tensor(rng.standard_normal((3, 10))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 10)))

    def test_output_shape_contract(self):
        rng = np.random.default_rng(1)
        est = WaveNetEstimator(3, 2, rng, ParameterStore(), residual_channels=8, layers=2)
        for T in (5, 12, 31):
            out = est(Tensor(rng.standard_normal((3, T))), 0.5,
                      Tensor(rng.standard_normal((2, T))))
            assert out.shape == (3, T)

    def test_condition_length_mismatch(self):
        rng = np.random.default_rng(2)
        est = WaveNetEstimator(2, 2, rng, ParameterStore(), residual_channels=32, layers=4)
        with pytest.raises(DimensionError):
            est(Tensor(np.zeros((2, 8))), 0.1, Tensor(np.zeros((2, 9))))

    def test_overfit_single_sample(self):
        rng = np.random.default_rng(3)
        params = ParameterStore()
        est = WaveNetEstimator(2, 2, rng, params, residual_channels=16, layers=3)
        x1 = rng.standard_normal((2, 16))
        cond = rng.standard_normal((2, 16))
        x0 = rng.standard_normal((2, 16))
        opt = Adam(params, lr=5e-3)
        loss_val = None
        for step in range(2000):
            t = float(rng.integers(100)) / 100
            sample = FlowSample(x0=x0, x1=x1, t=t)
            with Tape():
                loss = cfm_loss(est, sample, Tensor(cond))
                backward(loss)
            opt.step(None)
            opt.zero_grad()
            loss_val = loss.item()
            if loss_val < 1e-3:
                break
        assert loss_val < 1e-3
