"""Input checks that no pipeline or module test reaches, one case each: every
check raises its own error type with its own message."""

import re

import numpy as np
import pytest

import bandflow.tensor as tt
from bandflow.blocks import GatedAttention, positional_encoding, rope_rotate, style_alignment_stack
from bandflow.checkpoint import load_into, save_checkpoint
from bandflow.errors import BoundsError, ConfigError, DataError, DimensionError, StateError
from bandflow.flow import FlowConfig, FlowSample, WaveNetEstimator, cfm_loss
from bandflow.melody import REST, MelodyModel, NoteSequence, load_notes
from bandflow.metrics import apd_td
from bandflow.models import AccompFlowModel
from bandflow.moe import BandMoE, RouterState, gumbel_gate
from bandflow.tensor import ParameterStore, Tensor


def _rng():
    return np.random.default_rng(0)


def _z(*shape):
    return Tensor(np.zeros(shape))


def _wavenet_wrong_channels():
    est = WaveNetEstimator(3, 4, _rng(), residual_channels=4, layers=1)
    est(np.zeros((2, 5)), 0.5, np.zeros((4, 5)))


def _accomp_misaligned():
    model = AccompFlowModel(_rng(), 2, data_dim=4, width=8, heads=2, blocks=1, experts=2)
    model(np.zeros((6, 4)), 0.5, (np.zeros((5, 4)), 0))


def _accomp_and_clips():
    """A small accomp model and a two-clip batch: x [2, 6, 4], (vocals, tags)."""
    model = AccompFlowModel(_rng(), 2, data_dim=4, width=8, heads=2, blocks=1, experts=2)
    return model, np.zeros((2, 6, 4)), (np.zeros((2, 6, 4)), np.array([0, 1]))


def _accomp_per_row_times():
    model, x, cond = _accomp_and_clips()
    cfm_loss(model, FlowSample(x0=x, x1=x + 1.0, t=np.full((2, 1, 1), 0.5)), cond)


def _balance_after_batched_forward():
    model, x, cond = _accomp_and_clips()
    model(x, 0.5, cond)
    model.balance()


def _merge_duplicate():
    a, b = ParameterStore(), ParameterStore()
    a.add("w", np.zeros(1))
    b.add("w", np.zeros(1))
    a.merge(b)


def _route_aligned_token_mismatch():
    moe = BandMoE(4, 2, _rng(), ParameterStore(), "m")
    moe.route_aligned(_z(5, 4), _z(6, 4), RouterState())


# id -> (call, error, message pattern)
CASES = {
    "flow_config_train_timesteps": (lambda: FlowConfig(train_timesteps=0),
                                    ConfigError, "train_timesteps"),
    "flow_config_cfg_scale": (lambda: FlowConfig(cfg_scale=-1), ConfigError, "cfg_scale"),
    "flow_config_cfg_scale_nan": (lambda: FlowConfig(cfg_scale=float("nan")), ConfigError,
                                  "cfg_scale must be finite"),
    "flow_config_cfg_scale_inf": (lambda: FlowConfig(cfg_scale=float("inf")), ConfigError,
                                  "cfg_scale must be finite"),
    "flow_sample_endpoints": (lambda: FlowSample(x0=np.zeros(3), x1=np.zeros(4), t=0.5),
                              DimensionError, "endpoint shapes differ"),
    "cfm_loss_condition_count": (
        lambda: cfm_loss(lambda x, t, c: x,
                         FlowSample(x0=np.zeros((2, 2)), x1=np.ones((2, 2)),
                                    t=np.full((2, 1), 0.5)), (np.zeros(1),)),
        DimensionError, "one condition entry per sample"),
    "wavenet_input_channels": (_wavenet_wrong_channels, DimensionError, r"expected \[3, T\]"),
    "rope_positions_length": (lambda: rope_rotate(_z(4, 4), positions=np.arange(3)),
                              DimensionError, "positions shape"),
    "gated_attention_odd_head_width": (
        lambda: GatedAttention(6, 2, _rng(), ParameterStore(), "g"),
        ConfigError, "head width must be even"),
    "accomp_input_vocal_misaligned": (_accomp_misaligned, DimensionError, "misaligned"),
    "accomp_per_row_times": (_accomp_per_row_times, DimensionError,
                             r"one float time per call, got times of shape \(2,\)"),
    "balance_loss_batched_gates": (_balance_after_batched_forward, DimensionError,
                                   r"gates \[rows, N\], got \(2, 8, 2\)"),
    "router_state_mode": (lambda: RouterState(mode="x"), ConfigError, "unknown router mode"),
    "expert_group_no_experts": (lambda: BandMoE(4, 0, _rng(), ParameterStore(), "e"),
                                ConfigError, "at least one expert"),
    "route_aligned_token_count": (_route_aligned_token_mismatch, DimensionError,
                                  "token counts differ"),
    "conv1d_rank": (lambda: tt.conv1d(_z(4), _z(1, 2, 3)), DimensionError,
                    "conv1d expects"),
    "conv1d_channels": (lambda: tt.conv1d(_z(2, 5), _z(1, 3, 3)), DimensionError,
                        "channel mismatch"),
    "conv1d_dilation": (lambda: tt.conv1d(_z(2, 5), _z(1, 2, 3), dilation=0), ConfigError,
                        "dilation"),
    "conv1d_bias": (lambda: tt.conv1d(_z(2, 5), _z(1, 2, 3), bias=_z(2)), DimensionError,
                    "bias shape"),
    "cross_entropy_rank": (lambda: tt.cross_entropy(_z(2, 3, 4), [0, 1]), DimensionError,
                           r"logits\[N,K\]"),
    "cross_entropy_target_count": (lambda: tt.cross_entropy(_z(2, 3), [0, 1, 2]),
                                   DimensionError, "targets shape"),
    "ffn_inner_extents": (lambda: tt.ffn(_z(2, 3), _z(4, 5), _z(5), _z(5, 3), _z(3)),
                          DimensionError, "ffn inner extents differ"),
    "ffn_bias_shape": (lambda: tt.ffn(_z(2, 3), _z(3, 5), _z(4), _z(5, 3), _z(3)),
                       DimensionError, "ffn bias shapes"),
    "gated_sum_no_terms": (lambda: tt.gated_sum([], _z(2, 3), lambda i: i), DimensionError,
                           "at least one term"),
    "gated_sum_column_shape": (
        lambda: tt.gated_sum([_z(2, 3), _z(2, 4)], _z(2, 2), lambda i: (slice(None), slice(i, i + 1))),
        DimensionError, "gated_sum term"),
    "mse_shapes": (lambda: tt.mse(_z(2, 3), _z(3, 2)), DimensionError, "mse shapes differ"),
    "rmsnorm_gain": (lambda: tt.rmsnorm(_z(2, 3), _z(2)), DimensionError, "gain shape"),
    "gather_negative_index": (lambda: tt.gather(_z(3, 2), [0, -1]), BoundsError,
                              r"range \[0, 3\)"),
    "gather_index_past_end": (lambda: tt.gather(_z(3, 2), [3]), BoundsError,
                              r"range \[0, 3\)"),
    "item_of_non_scalar": (lambda: _z(2).item(), DimensionError, "expected scalar"),
    "broadcast_incompatible": (lambda: tt.add(_z(2, 3), _z(2, 4)), DimensionError,
                               "incompatible shapes"),
    "attention_rank": (lambda: tt.attention(_z(3), _z(2, 3), _z(2, 3), 1.0), DimensionError,
                       "rank >= 2"),
    "rotate_pairs_odd_width": (lambda: tt.rotate_pairs(_z(2, 3), np.ones(1), np.zeros(1)),
                               ConfigError, "even width"),
    "layernorm_zero_axis": (lambda: tt.layernorm(_z(2, 0)), DimensionError, "zero-length"),
    "merge_duplicate_name": (_merge_duplicate, StateError, "duplicate parameter name 'w'"),
    "gumbel_gate_mode": (lambda: gumbel_gate(_z(2, 3), 1.0, mode="x"), ConfigError,
                         "unknown router mode"),
    "attention_zero_keys": (lambda: style_alignment_stack(_z(3, 4), _z(0, 4), layers=1),
                            DimensionError, "zero keys"),
    "melody_forward_no_phonemes": (
        lambda: MelodyModel(n_phonemes=3, n_tags=2, rng=_rng(), width=8, layers=1).forward([], 0),
        DataError, "at least one phoneme"),
    "positional_encoding_odd_width": (lambda: positional_encoding(4, 5), ConfigError,
                                      "even width"),
    "apd_td_only_rests": (
        lambda: apd_td(NoteSequence(pitches=[REST], durations=[1.0], tempo=120.0),
                       NoteSequence(pitches=[60], durations=[1.0], tempo=120.0)),
        DataError, "empty note sequence"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_input_check_raises(case):
    call, error, pattern = CASES[case]
    with pytest.raises(error, match=pattern):
        call()


def test_load_into_missing_parameter(tmp_path):
    saved = ParameterStore()
    saved.add("a", np.zeros(2))
    path = tmp_path / "one.vbnd"
    save_checkpoint(saved, path)
    wanted = ParameterStore()
    wanted.add("a", np.zeros(2))
    wanted.add("b", np.zeros(2))
    with pytest.raises(DataError, match="missing parameter 'b'"):
        load_into(wanted, path)


def test_load_notes_not_utf8(tmp_path):
    # the fuzz test of load_notes writes only valid UTF-8
    path = tmp_path / "bad.notes"
    path.write_bytes(b"tempo=120\n60,1\n\xff\xfe\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
        load_notes(path)
