"""bandflow benchmark: one workload, one seed, plain or traced.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
The line before it is a detail record: the workload's own named metrics,
the sample counts, the environment and any failed checks.  Both lines are
also written under ``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

import layers
import refdtw
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
# a traced or plain run stops starting new cycles after this long, so that
# it ends well inside the three minutes a run may take
MEASURE_LIMIT_S = 120.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)


class Record(NamedTuple):
    spec: dict
    t0: float
    t1: float
    work: int
    problems: list
    speed: float = float("nan")   # host_probe() around the request

    @property
    def dur(self):
        return self.t1 - self.t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import bandflow from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bandflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bandflow package under {src}")
    sys.path.insert(0, str(src))
    import bandflow
    if not Path(bandflow.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: bandflow imported from {bandflow.__file__}")


def measure(wl, cycles, tracer=None, first=0):
    """Run the requests of `cycles` one at a time; returns their Records.

    The host probe runs between requests, so each request has one probe just
    before it and one just after.  With a tracer, spans of request i carry the
    request id first + i.
    """
    records = []
    before = None
    for c in cycles:
        for spec in wl.cycle(c):
            call, check, work = wl.request(spec)
            if before is None:
                before = host_probe(wl.probe)
            if tracer is not None:
                tracer.request = first + len(records)
            t0 = time.perf_counter()
            try:
                result, problems = call(), None
            except Exception as exc:   # a failed request is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                result, problems = None, [f"{type(exc).__name__}: {exc}"]
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.request = -2
            after = host_probe(wl.probe)
            if problems is None:
                problems = check(result)
            records.append(Record(spec, t0, t1, work, problems, (before + after) / 2))
            before = after
    return records


_PROBE_A = [float((7 * i) % 13) for i in range(120)]
_PROBE_B = [float((5 * i) % 11) for i in range(120)]
_PROBE_ROW = np.linspace(-1.0, 1.0, 48)
_PROBE_ARRAY = np.linspace(-1.0, 1.0, 64 * 1024).reshape(64, 1024)


def _probe_python():
    refdtw.dtw(_PROBE_A, _PROBE_B)


def _probe_numpy_small():
    x = _PROBE_ROW
    for _ in range(300):
        x = np.tanh(x * 0.5 + 0.1)


def _probe_arrays():
    y = _PROBE_ARRAY
    for _ in range(10):
        y = np.exp(-np.abs(y)) * 0.5 + y * 0.25


# a request's host speed is the median over the requests within this many
# seconds of it (see host_speeds)
SPEED_WINDOW_S = 2.0

# probe part -> (function, its time on the reference host in seconds); the
# reference host is the 2-vCPU Xeon of perfbench/README.md at a quiet time
PROBE_PARTS = {
    "python": (_probe_python, 3.5e-3),
    "numpy_small": (_probe_numpy_small, 0.5e-3),
    "arrays": (_probe_arrays, 1.9e-3),
}


def host_probe(parts):
    """Host speed right now: the reference host's time for the probe `parts`
    over their time here.  The parts do fixed work with none of bandflow's
    code: plain-Python DTW, numpy calls on tiny arrays and array arithmetic
    on 64k elements, about 6 ms in all.  No matrix product: a threaded BLAS
    call's time jumps 16-fold when the host is slow to wake a second core,
    which would swamp the probe."""
    t0 = time.perf_counter()
    for name in parts:
        PROBE_PARTS[name][0]()
    return sum(PROBE_PARTS[name][1] for name in parts) / (time.perf_counter() - t0)


def timed_cycles(wl, seconds):
    """Whole cycles until `seconds` have passed and at least min_cycles ran."""
    start, c = time.perf_counter(), 0
    while c < wl.min_cycles or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > MEASURE_LIMIT_S:
            return
        yield c
        c += 1


def tail_percentile(n, wanted):
    """`wanted` if at least ten samples lie beyond it, else the highest rung
    of the ladder that has ten beyond it."""
    if n * (1.0 - wanted / 100.0) >= 10:
        return wanted
    ok = [p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10] or [TAIL_LADDER[0]]
    return max(ok)


def kind_of(record):
    return record.spec.get("label", record.spec["kind"])


def host_speeds(records):
    """Each request's host speed: the median of the probe speeds of the
    requests whose midpoints lie within SPEED_WINDOW_S of its own.  One 6 ms
    probe can be caught by a preemption that a 100 ms request rides out; the
    host's slow and fast spells last longer than the window."""
    mids = np.array([(r.t0 + r.t1) / 2 for r in records])
    speeds = np.array([r.speed for r in records])
    return np.array([np.median(speeds[np.abs(mids - m) <= SPEED_WINDOW_S]) for m in mids])


def ref_durations(records, exponent):
    """Each request's time on the reference host: its wall time times the
    host speed around it, to the workload's speed exponent."""
    wall = np.array([r.dur for r in records])
    return wall * host_speeds(records) ** exponent


def end_to_end(wl, records, setup_times):
    """The gated metrics, in reference time, and a detail record that also
    holds the same figures in wall time."""
    work = sum(r.work for r in records)
    tail = tail_percentile(len(records), wl.tail_pct)
    ref = ref_durations(records, wl.speed_exponent)
    wall = np.array([r.dur for r in records])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_ref_s": (work / ref.sum(), "1/ref_s"),
        "latency_p50_ref_ms": (float(np.median(ref) * 1e3), "ref_ms"),
        "latency_tail_ref_ms": (float(np.percentile(ref, tail) * 1e3), "ref_ms"),
    }
    by_kind = {}
    for r, d in zip(records, ref):
        by_kind.setdefault(kind_of(r), []).append((r.dur * 1e3, d * 1e3))
    detail = {"tail_percentile": tail,
              "beyond_tail": int((ref > np.percentile(ref, tail)).sum()),
              "work_unit": wl.unit,
              "host_speed_median": float(np.median([r.speed for r in records])),
              "wall": {"work_per_s": work / wall.sum(),
                       "latency_p50_ms": float(np.median(wall) * 1e3),
                       "latency_tail_ms": float(np.percentile(wall, tail) * 1e3)},
              "latency_ms_by_kind": {k: {"wall": statistics.median(w for w, _ in v),
                                         "ref": statistics.median(d for _, d in v)}
                                     for k, v in sorted(by_kind.items())}}
    return metrics, detail


def traced(wl, cycles):
    """Each cycle twice, first plain and then with the wrappers installed.

    One traced set-up comes first, so that set-up work shows in the spans.
    """
    targets, mods = layers.targets(), layers.modules()
    tracer = tracing.Tracer()
    with tracer.installed(targets, mods):
        setup_problems = wl.setup()
    plain, records = [], []
    for c in range(cycles):
        plain += measure(wl, [c])
        with tracer.installed(targets, mods):
            records += measure(wl, [c], tracer, first=len(records))
    table = tracer.table()
    dirs = [i for i, r in enumerate(records) if r.spec.get("kind") == "dir"]
    metrics = layers.derive(table, dirs)
    metrics["trace.overhead"] = (sum(r.dur for r in records) / sum(r.dur for r in plain)) - 1
    metrics["trace.uncovered_share"] = uncovered_share(table, records)
    problems = setup_problems + wl.trace_problems(table, metrics)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    np.savez_compressed(out / f"spans-{wl.name}-seed{wl.seed}.npz",
                        names=np.array(table.names), ids=table.ids, parents=table.parents,
                        name_idx=table.name_idx, t0=table.t0, t1=table.t1,
                        request=table.req, thread=table.thread)
    return plain, records, metrics, problems


def uncovered_share(table, records):
    """Share of the requests' wall time that no top-level span covers."""
    roots = (table.parent_pos < 0) & (table.req >= 0)
    by_req = {}
    for r, a, b in zip(table.req[roots].tolist(), table.t0[roots].tolist(),
                       table.t1[roots].tolist()):
        by_req.setdefault(r, []).append((a, b))
    wall = covered = 0.0
    for i, rec in enumerate(records):
        wall += rec.dur
        covered += tracing.union_length([(max(a, rec.t0), min(b, rec.t1))
                                         for a, b in by_req.get(i, []) if b > rec.t0])
    return (wall - covered) / wall


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            names = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "VBND_THREADS": os.environ.get("VBND_THREADS"),
        "VBND_THREADS_effective": os.environ.get("VBND_THREADS", "4"),
        "commit": git_commit(ROOT),
    }


def git_commit(root):
    """HEAD's commit read from .git, or None where the checkout has no .git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    args = parse_args(argv)
    import_package()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")

    mods = layers.modules()
    before = tracing.bindings(mods)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        problems, setup_times = [], []
        for _ in range(1 if args.trace else wl.setup_repeats):
            t0 = time.perf_counter()
            problems += wl.setup()
            setup_times.append(time.perf_counter() - t0)
        ticks = cpu_ticks()
        if args.trace:
            plain, records, layer_metrics, trace_problems = traced(wl, wl.trace_cycles)
            problems += trace_problems
            records_all = plain + records
            units = {n: u for n, u, _ in layers.PER_LAYER}
            metrics = {n: (layer_metrics[n], units[n]) for n, _, _ in layers.PER_LAYER}
            detail = {"trace_cycles": wl.trace_cycles}
        else:
            records = records_all = measure(wl, timed_cycles(wl, args.seconds))
            metrics, detail = end_to_end(wl, records, setup_times)
            detail["cycles"] = len({r.spec["cycle"] for r in records})
            detail["named_metrics"] = {
                n: {"value": v, "unit": u} for n, (v, u) in
                {**wl.named_metrics(records), "setup_s": metrics["setup_s"],
                 "peak_rss_mb": metrics["peak_rss_mb"]}.items()}
            changed = tracing.changed_bindings(before, mods)
            if changed:
                problems.append(f"untraced run found rebound functions: {changed[:5]}")
        after = cpu_ticks()
        if ticks and after and after[1] > ticks[1]:
            detail["cpu_steal_share"] = (after[0] - ticks[0]) / (after[1] - ticks[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records_all if r.problems]
    for r in failed[:10]:
        print(f"perfbench: failed {r.spec.get('kind')}: {r.problems}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "correct": not failed and not problems,
        "attempted": len(records_all),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    detail.update({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests": len(records), "setup_times_s": setup_times,
        "problems": problems + [f"{r.spec.get('kind')}: {r.problems}" for r in failed[:10]],
        "env": environment(),
    })
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    if records_all:
        start = records_all[0].t0
        (out / f"requests-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps([[kind_of(r), r.t0 - start, r.dur, r.work, r.speed] for r in records_all]))
    lines = [json.dumps({"detail": detail}), json.dumps(result)]
    (out / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
