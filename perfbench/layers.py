"""Which bandflow calls the traced run wraps, and the per-layer metrics.

A layer is a module of ``src/bandflow``.  The traced run wraps every public
function of each layer module and every public method (plus ``__call__``)
of its public classes, except the tensor core's own data structures.  Two
modules are left unmeasured: ``rq``, which no pipeline or CLI command calls,
and ``gradcheck``, a test tool.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys

import numpy as np

LAYERS = ("tensor", "optim", "checkpoint", "flow", "blocks", "moe", "models",
          "melody", "metrics", "synth", "train", "cli")
UNMEASURED = {"rq": "no pipeline or CLI workload calls it",
              "gradcheck": "finite-difference test tool, not on any user path"}

# private functions that are still the entry point of a layer
EXTRA = {"cli": ("_cmd_eval_melody",)}
# the tensor core's data structures: wrapping their methods would trace
# attribute access rather than operations
SKIP_CLASSES = {("tensor", "Tensor"), ("tensor", "Tape"), ("tensor", "ParameterStore")}

ESTIMATORS = ("models.AccompFlowModel.__call__", "models.StylePredictorModel.__call__",
              "flow.MLPEstimator.__call__", "flow.WaveNetEstimator.__call__")
TOKEN_ROUTES = ("moe.BandMoE.route_aligned", "moe.BandMoE.route_controlled")
ACCOMP_T = (16, 64, 256)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _euler_attr(args, kwargs, result):
    cfg = _arg(args, kwargs, 3, "cfg")
    return (cfg.infer_steps, float(cfg.cfg_scale))


def _gate_attr(args, kwargs, result):
    return (int(np.count_nonzero(result.data)), int(result.shape[0]))


# values recorded against spans, computed from the call's arguments/result
ATTRS = {
    "tensor.backward": lambda a, k, r: len(a[0].tape.nodes),
    "checkpoint.save_checkpoint": lambda a, k, r: os.path.getsize(a[1]),
    "flow.euler_sample": _euler_attr,
    "models.AccompFlowModel.__call__": lambda a, k, r: int(a[1].shape[0]),
    "blocks.FeedForward.__call__": lambda a, k, r: int(a[1].shape[0]),
    "moe.gumbel_gate": _gate_attr,
    "metrics.dtw_distance": lambda a, k, r: int(np.size(a[0]) * np.size(a[1])),
}

# name, unit, better -- the order BENCHMARK.json lists them in
PER_LAYER = (
    ("tensor.ops", "count", "lower"),
    ("tensor.op_self_s", "s", "lower"),
    ("tensor.us_per_op", "us", "lower"),
    ("tensor.backward_s", "s", "lower"),
    ("tensor.tape_nodes", "count", "lower"),
    ("optim.adam_steps", "count", "higher"),
    ("optim.adam_step_s", "s", "lower"),
    ("flow.euler_steps", "count", "higher"),
    ("flow.euler_sample_s", "s", "lower"),
    ("flow.forwards_per_euler_step", "ratio", "lower"),
    ("flow.forwards_per_euler_step.gamma1", "ratio", "lower"),
    ("flow.forwards_per_euler_step.gamma3", "ratio", "lower"),
    ("flow.cfm_loss_s", "s", "lower"),
    ("flow.cfm_estimator_calls_per_loss", "ratio", "lower"),
    ("models.accomp_forwards", "count", "lower"),
    ("models.accomp_forward_ms.T16", "ms", "lower"),
    ("models.accomp_forward_ms.T64", "ms", "lower"),
    ("models.accomp_forward_ms.T256", "ms", "lower"),
    ("models.style_forward_ms", "ms", "lower"),
    ("blocks.attn_self_s", "s", "lower"),
    ("blocks.rope_calls", "count", "lower"),
    ("blocks.rope_s", "s", "lower"),
    ("blocks.sdp_calls", "count", "lower"),
    ("blocks.sdp_s", "s", "lower"),
    ("moe.aligned_s", "s", "lower"),
    ("moe.controlled_s", "s", "lower"),
    ("moe.global_s", "s", "lower"),
    ("moe.acoustic_s", "s", "lower"),
    ("moe.expert_rows", "count", "lower"),
    ("moe.routed_rows", "count", "higher"),
    ("moe.useful_ratio", "ratio", "higher"),
    ("melody.load_notes_s", "s", "lower"),
    ("melody.files", "count", "higher"),
    ("melody.model_forward_s", "s", "lower"),
    ("metrics.dtw_s", "s", "lower"),
    ("metrics.dtw_cells", "count", "lower"),
    ("metrics.dtw_ns_per_cell", "ns", "lower"),
    ("metrics.key_s", "s", "lower"),
    ("metrics.evaluate_pair_s", "s", "lower"),
    ("cli.eval_melody_s", "s", "lower"),
    ("cli.pool_workers", "count", "higher"),
    ("cli.pool_parallelism", "ratio", "higher"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("synth.gen_s", "s", "lower"),
    ("train.loop_self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)


def modules():
    """Every loaded bandflow module (the places references can live)."""
    for layer in LAYERS:
        importlib.import_module(f"bandflow.{layer}")
    return [m for n, m in sorted(sys.modules.items())
            if n == "bandflow" or n.startswith("bandflow.")]


def targets():
    """(owner, attribute, span name, attr function) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"bandflow.{layer}")
        for key, value in vars(mod).items():
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                if not key.startswith("_") or key in EXTRA.get(layer, ()):
                    name = f"{layer}.{key}"
                    out.append((mod, key, name, ATTRS.get(name)))
            elif (inspect.isclass(value) and not key.startswith("_")
                  and (layer, key) not in SKIP_CLASSES):
                for mkey, method in vars(value).items():
                    if inspect.isfunction(method) and (mkey == "__call__"
                                                       or not mkey.startswith("_")):
                        name = f"{layer}.{key}.{mkey}"
                        out.append((value, mkey, name, ATTRS.get(name)))
    return out


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


class _Spans:
    """Name-indexed views of a SpanTable (integer codes, not strings)."""

    def __init__(self, table):
        self.t = table
        self.code = {n: i for i, n in enumerate(table.names)}
        pp = table.parent_pos
        self.parent = np.where(pp >= 0, table.name_idx[np.maximum(pp, 0)], -1)

    def codes(self, names):
        return [self.code[n] for n in names if n in self.code]

    def is_(self, *names):
        return np.isin(self.t.name_idx, self.codes(names))

    def parent_is(self, *names):
        return np.isin(self.parent, self.codes(names))

    def prefixed(self, prefix, field=None):
        codes = [i for n, i in self.code.items() if n.startswith(prefix)]
        return np.isin(self.t.name_idx if field is None else field, codes)

    def total(self, mask):
        return float(self.t.dur[mask].sum())

    def attrs(self, mask):
        """span id -> recorded value, for the spans in `mask` that have one
        (a call that raised records none)."""
        a = self.t.attrs
        return {i: a[i] for i in self.t.ids[mask].tolist() if i in a}

    def ancestor_in(self, rows, wanted, depth=4):
        """For each row, the code of its nearest ancestor among `wanted` (-1 if none)."""
        wanted = np.array(self.codes(wanted) or [-2])
        found = np.full(len(rows), -1, dtype=np.int64)
        cur = np.asarray(rows, dtype=np.int64)
        for _ in range(depth):
            cur = np.where(cur >= 0, self.t.parent_pos[np.maximum(cur, 0)], -1)
            code = np.where(cur >= 0, self.t.name_idx[np.maximum(cur, 0)], -1)
            hit = (found < 0) & np.isin(code, wanted)
            found[hit] = code[hit]
        return found


def derive(table, dir_requests=()):
    """Per-layer metrics from a traced run's spans; returns name -> value.

    Request spans carry their request's index, set-up spans -1 and spans
    made while the client prepares inputs or checks outputs -2.  Checkpoint,
    synth and train-loop metrics cover set-up and requests, because set-up
    is where the generate workload trains and saves its model; every other
    metric covers the requests only.
    """
    full = table.subset(table.req != -2)
    table = table.subset(table.req >= 0)
    s = _Spans(table)
    dur, self_t, is_, total, attrs = table.dur, table.self_time, s.is_, s.total, s.attrs

    m = {}
    ops = s.prefixed("tensor.") & ~is_("tensor.backward")
    m["tensor.ops"] = int(ops.sum())
    m["tensor.op_self_s"] = float(self_t[ops].sum())
    m["tensor.us_per_op"] = _ratio(m["tensor.op_self_s"] * 1e6, m["tensor.ops"])
    m["tensor.backward_s"] = total(is_("tensor.backward"))
    m["tensor.tape_nodes"] = int(sum(attrs(is_("tensor.backward")).values()))

    m["optim.adam_steps"] = int(is_("optim.Adam.step").sum())
    m["optim.adam_step_s"] = total(is_("optim.Adam.step"))

    euler = is_("flow.euler_sample")
    estimator = is_(*ESTIMATORS)
    under_euler = estimator & s.parent_is("flow.euler_sample")
    steps = attrs(euler)
    m["flow.euler_steps"] = int(sum(n for n, _ in steps.values()))
    m["flow.euler_sample_s"] = total(euler)
    m["flow.forwards_per_euler_step"] = _ratio(under_euler.sum(), m["flow.euler_steps"])
    parent_ids = table.parents[under_euler].tolist()
    for label, gamma in (("gamma1", 1.0), ("gamma3", 3.0)):
        n_steps = sum(n for n, g in steps.values() if g == gamma)
        calls = sum(1 for p in parent_ids if p in steps and steps[p][1] == gamma)
        m[f"flow.forwards_per_euler_step.{label}"] = _ratio(calls, n_steps)
    cfm = is_("flow.cfm_loss")
    m["flow.cfm_loss_s"] = total(cfm)
    m["flow.cfm_estimator_calls_per_loss"] = _ratio(
        (estimator & s.parent_is("flow.cfm_loss")).sum(), cfm.sum())

    accomp = is_("models.AccompFlowModel.__call__")
    m["models.accomp_forwards"] = int(accomp.sum())
    T = attrs(accomp)
    T = np.array([T.get(i, 0) for i in table.ids[accomp].tolist()])
    for t in ACCOMP_T:
        sel = dur[accomp][T == t]
        m[f"models.accomp_forward_ms.T{t}"] = float(np.median(sel) * 1e3) if len(sel) else 0.0
    style = dur[is_("models.StylePredictorModel.__call__")]
    m["models.style_forward_ms"] = float(np.median(style) * 1e3) if len(style) else 0.0

    m["blocks.attn_self_s"] = float(self_t[is_("blocks.GatedAttention.__call__")].sum())
    m["blocks.rope_calls"] = int(is_("blocks.rope_rotate").sum())
    m["blocks.rope_s"] = total(is_("blocks.rope_rotate"))
    m["blocks.sdp_calls"] = int(is_("blocks.sdp_attention").sum())
    m["blocks.sdp_s"] = total(is_("blocks.sdp_attention"))

    for key, method in (("aligned", "route_aligned"), ("controlled", "route_controlled"),
                        ("global", "global_mix"), ("acoustic", "route_acoustic")):
        m[f"moe.{key}_s"] = total(is_(f"moe.BandMoE.{method}"))
    ffn = np.flatnonzero(is_("blocks.FeedForward.__call__"))
    route = s.ancestor_in(ffn, TOKEN_ROUTES + ("moe.BandMoE.route_acoustic",))
    token_routed = np.zeros(len(table), dtype=bool)
    token_routed[ffn[np.isin(route, s.codes(TOKEN_ROUTES))]] = True
    m["moe.expert_rows"] = int(sum(attrs(token_routed).values()))
    gates = is_("moe.gumbel_gate") & s.parent_is(*TOKEN_ROUTES)
    m["moe.routed_rows"] = int(sum(nz for nz, _ in attrs(gates).values()))
    m["moe.useful_ratio"] = _ratio(m["moe.routed_rows"], m["moe.expert_rows"])

    m["melody.load_notes_s"] = total(is_("melody.load_notes"))
    m["melody.files"] = int(is_("melody.load_notes").sum())
    m["melody.model_forward_s"] = total(is_("melody.MelodyModel.forward"))

    dtw = is_("metrics.dtw_distance")
    m["metrics.dtw_s"] = total(dtw)
    m["metrics.dtw_cells"] = int(sum(attrs(dtw).values()))
    m["metrics.dtw_ns_per_cell"] = _ratio(m["metrics.dtw_s"] * 1e9, m["metrics.dtw_cells"])
    m["metrics.key_s"] = total(is_("metrics.best_key", "metrics.key_accuracy"))
    m["metrics.evaluate_pair_s"] = total(is_("metrics.evaluate_pair"))

    cmd = is_("cli._cmd_eval_melody")
    m["cli.eval_melody_s"] = total(cmd)
    in_dir = np.isin(table.req, list(dir_requests))
    pair_work = in_dir & s.parent_is("cli._cmd_eval_melody") & (table.thread != 0)
    workers = [len(set(table.thread[pair_work & (table.req == r)].tolist()))
               for r in dir_requests]
    m["cli.pool_workers"] = int(max(workers, default=0))
    m["cli.pool_parallelism"] = _ratio(dur[pair_work].sum(), dur[cmd & in_dir].sum())

    f = _Spans(full)
    m["checkpoint.save_s"] = f.total(f.is_("checkpoint.save_checkpoint"))
    m["checkpoint.load_s"] = f.total(f.is_("checkpoint.load_checkpoint"))
    m["checkpoint.bytes"] = int(sum(f.attrs(f.is_("checkpoint.save_checkpoint")).values()))
    m["synth.gen_s"] = f.total(f.prefixed("synth.") & ~f.prefixed("synth.", f.parent))
    m["train.loop_self_s"] = float(full.self_time[f.prefixed("train.train_")].sum())
    m["trace.spans"] = int(len(full))
    return m


def routing_check(table, metrics, experts):
    """On hard-routed passes each token picks exactly one of `experts` experts.

    Returns a list of problems; empty when the useful ratio matches the hard
    gate count observed.
    """
    table = table.subset(table.req >= 0)
    s = _Spans(table)
    counts = s.attrs(s.is_("moe.gumbel_gate") & s.parent_is(*TOKEN_ROUTES)).values()
    problems = []
    if not counts:
        problems.append("no token-routed gates observed")
    if any(nz != rows for nz, rows in counts):
        problems.append("a hard gate row did not pick exactly one expert")
    if metrics["moe.expert_rows"] != experts * metrics["moe.routed_rows"]:
        problems.append(f"expert rows {metrics['moe.expert_rows']} != {experts} x routed "
                        f"rows {metrics['moe.routed_rows']}")
    return problems
