"""Tests of the benchmark's own code: wrappers, span arithmetic, schedules."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import refdtw  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _originals():
    import bandflow.flow
    import bandflow.train
    return bandflow.flow.cfm_loss, bandflow.train


def test_untraced_run_calls_the_original_functions(tmp_path):
    mods = layers.modules()
    before = tracing.bindings(mods)
    cfm_loss, train = _originals()
    wl = workloads.EvalMelody(seed=3, workdir=tmp_path)
    assert wl.setup() == []
    records = run.measure(wl, [0])
    assert all(not r.problems for r in records)
    assert tracing.changed_bindings(before, mods) == []
    assert train.cfm_loss is cfm_loss
    assert not hasattr(train.cfm_loss, "__wrapped__")


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    import bandflow.cli
    import bandflow.models
    mods = layers.modules()
    before = tracing.bindings(mods)
    cfm_loss, train = _originals()
    cmd = bandflow.cli.COMMANDS["eval-melody"]
    call = bandflow.models.AccompFlowModel.__call__
    tracer = tracing.Tracer()
    with tracer.installed(layers.targets(), mods):
        assert train.cfm_loss is not cfm_loss
        assert train.cfm_loss.__wrapped__ is cfm_loss
        assert bandflow.cli.COMMANDS["eval-melody"].__wrapped__ is cmd
        assert bandflow.models.AccompFlowModel.__call__.__wrapped__ is call
        assert "rq" not in {n.split(".")[0] for n in tracer.names}
    assert tracing.changed_bindings(before, mods) == []
    assert train.cfm_loss is cfm_loss


def test_traced_call_records_parent_and_attributes():
    import bandflow.metrics
    from bandflow.melody import NoteSequence
    gen = NoteSequence([60, 62, 64, 65], [0.5, 1.0, 0.5, 1.0], tempo=120.0)
    ref = NoteSequence([60, 64, 62, 67], [1.0, 0.5, 0.5, 1.0], tempo=120.0)
    tracer = tracing.Tracer()
    tracer.request = 0
    with tracer.installed(layers.targets(), layers.modules()):
        bandflow.metrics.melody_distance(gen, ref)
    table = tracer.table()
    names = [table.names[i] for i in table.name_idx]
    dtw = names.index("metrics.dtw_distance")
    assert names[table.parent_pos[dtw]] == "metrics.melody_distance"
    assert table.attrs[int(table.ids[dtw])] == 12 * 12
    assert layers.derive(table)["metrics.dtw_cells"] == 144


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children A [1, 4], B [3, 6] (another thread, overlaps
    # A) and C [8, 12] (clipped to the root); A has a child [2, 3]
    parent_pos = [-1, 0, 0, 0, 1]
    t0 = [0.0, 1.0, 3.0, 8.0, 2.0]
    t1 = [10.0, 4.0, 6.0, 12.0, 3.0]
    got = tracing.self_times(parent_pos, t0, t1)
    np.testing.assert_allclose(got, [10 - 5 - 2, 3 - 1, 3, 4, 1])
    assert tracing.union_length([(1, 4), (3, 6), (8, 10)]) == 7


def test_subset_turns_orphans_into_roots():
    table = tracing.SpanTable(["a", "b"], np.array([0, 1, 2]), np.array([-1, 0, 1]),
                              np.array([0, 1, 1]), np.array([0.0, 1.0, 2.0]),
                              np.array([5.0, 4.0, 3.0]), np.array([-1, 0, 0]),
                              np.zeros(3, dtype=np.int64), {})
    sub = table.subset(table.req >= 0)
    assert sub.parent_pos.tolist() == [-1, 0]
    np.testing.assert_allclose(sub.self_time, [2.0, 1.0])


@pytest.mark.parametrize("cls", [workloads.Train, workloads.Generate])
def test_schedule_is_a_function_of_the_seed(cls, tmp_path):
    a, b, other = cls(5, tmp_path / "a"), cls(5, tmp_path / "b"), cls(6, tmp_path / "c")
    for c in range(3):
        assert a.cycle(c) == b.cycle(c)
        assert sorted(s["kind"] for s in a.cycle(c)) == sorted(s["kind"] for s in other.cycle(c))
    assert [a.cycle(c) for c in range(3)] != [other.cycle(c) for c in range(3)]


def test_eval_melody_schedule_and_files_are_a_function_of_the_seed(tmp_path):
    a, b = workloads.EvalMelody(5, tmp_path / "a"), workloads.EvalMelody(5, tmp_path / "b")
    a.setup(), b.setup()
    strip = [{k: v for k, v in s.items() if k != "args"} for s in a.cycle(1)]
    assert strip == [{k: v for k, v in s.items() if k != "args"} for s in b.cycle(1)]
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.notes"))
    for f in files:
        assert (tmp_path / "a" / f).read_text() == (tmp_path / "b" / f).read_text()
    assert sum(s["kind"] == "dir" for s in strip) == len(workloads.EvalMelody.DIRS)


def test_reference_dtw_matches_the_recurrence():
    rng = np.random.default_rng(0)
    from bandflow.metrics import dtw_distance
    for n, m in [(1, 1), (1, 6), (9, 4), (30, 41)]:
        a, b = rng.normal(size=n), rng.normal(size=m)
        assert refdtw.dtw(a.tolist(), b.tolist()) == pytest.approx(dtw_distance(a, b), abs=1e-12)


def test_report_check_catches_a_wrong_summary_and_md():
    header = ",".join(workloads.REPORT_COLUMNS)
    good = f"{header}\n1,2,3,4,5,6\n3,2,1,4,5,8\n2.000000,2,2,4,5,7\n"
    assert workloads.check_report(good, 2, [6.0, None]) == []
    assert workloads.check_report(good, 3, [None] * 3)
    assert workloads.check_report(good.replace("2.000000", "2.5"), 2, [None, None])
    assert workloads.check_report(good, 2, [6.5, None])


def test_benchmark_json_lists_every_derived_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [n for n, _, _ in layers.PER_LAYER]
    empty = tracing.Tracer().table()
    derived = set(layers.derive(empty)) | {"trace.overhead", "trace.uncovered_share"}
    assert derived == set(names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(104, 90.0) == 90.0
    assert run.tail_percentile(60, 90.0) == 75.0
    assert run.tail_percentile(5, 90.0) == 50.0
    assert run.tail_percentile(104, 88.5) == 88.5


def test_end_to_end_scales_wall_time_by_host_speed():
    class Stub:
        unit, tail_pct, speed_exponent = "calls", 50.0, 0.5

    records = [run.Record({"kind": "a", "cycle": 0}, 0.0, 0.2, 2, [], 0.25),
               run.Record({"kind": "b", "cycle": 0}, 1.0, 1.4, 2, [], 0.25)]
    metrics, detail = run.end_to_end(Stub, records, [3.0, 1.0, 2.0])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert metrics["setup_s"][0] == 2.0
    # at a quarter of the reference speed, to the power 0.5, wall time halves
    assert np.isclose(metrics["work_per_ref_s"][0], 4 / 0.3)
    assert np.isclose(metrics["latency_p50_ref_ms"][0], 150.0)
    assert np.isclose(detail["wall"]["work_per_s"], 4 / 0.6)


def test_host_probe_reports_a_positive_speed():
    for parts in {w.probe for w in workloads.WORKLOADS.values()}:
        assert 0.0 < run.host_probe(parts) < 100.0
