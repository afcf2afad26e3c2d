"""Three ratchets on the package's surface.

Settable values.  A settable value is a knob a caller can turn without
editing the code:
- a parameter with a default of a function or method (a lambda's default
  binds a loop variable and is not counted);
- a field of a @dataclass that has a default and that __init__ takes;
- a read of an environment variable.
The count must equal MAX_SETTABLE: deleting a knob moves the bound down
with it, so no slack is left for a new knob to slip in.

Reachability.  Every command, and each failure a user reaches, runs at tiny
sizes under a profiler; a function none of them calls must be named in
UNREACHED with its reason, and an entry that a command now reaches, or that
is gone, must leave the list.  A call made from gradcheck.py's code does not
count unless it lands in gradcheck.py: a gradcheck case is a test of an op,
not a use of it.

Imports.  Every name a module of src/bandflow or tests imports is used in
it; a re-export says so with `# noqa: F401` on its import line.
"""

import ast
import sys
from pathlib import Path

import pytest

import bandflow
import bandflow.cli as cli
from bandflow import blocks, gradcheck, metrics
from bandflow.synth import FLOW2D_MIN_POINTS

MAX_SETTABLE = 44


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _init_default(value):
    """Whether a dataclass field's value gives __init__ a defaulted argument."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        kw = {k.arg: k.value for k in value.keywords}
        if "init" in kw and isinstance(kw["init"], ast.Constant) and kw["init"].value is False:
            return False
        return "default" in kw or "default_factory" in kw
    return True


def knobs(source, filename):
    """'file:line name' for every settable value in one module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            named = positional[len(positional) - len(a.defaults):]
            named += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found += [f"{filename}:{node.lineno} {node.name}({arg.arg}=)" for arg in named]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [f"{filename}:{item.lineno} {node.name}.{item.target.id}"
                      for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and _init_default(item.value)]
        elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append(f"{filename}:{node.lineno} os.{node.attr}")
    return found


def test_knobs_counts_each_kind():
    source = '''
import os
from dataclasses import dataclass, field

def f(a, b=1, *, c, d=2):
    return (lambda x, y=a: x + y)(b)

@dataclass
class C:
    x: int
    y: int = 0
    z: list = field(default_factory=list)
    w: int = field(init=False)

HOME = os.environ.get("HOME")
'''
    assert [k.split(" ", 1)[1] for k in knobs(source, "m.py")] == [
        "f(b=)", "f(d=)", "C.y", "C.z", "os.environ"]


def test_settable_values_do_not_grow():
    found = []
    for path in sorted(Path(bandflow.__file__).parent.glob("*.py")):
        found += knobs(path.read_text(encoding="utf-8"), path.name)
    assert len(found) <= MAX_SETTABLE, (
        f"{len(found)} settable values, more than {MAX_SETTABLE}:\n" + "\n".join(found))
    assert len(found) == MAX_SETTABLE, (
        f"{len(found)} settable values, fewer than {MAX_SETTABLE}: lower MAX_SETTABLE "
        f"to {len(found)}")


# ---------------------------------------------------------------------------
# imports: every imported name is used

def unused_imports(source, filename):
    """'file:line name' for every imported name the module never reads; an
    import line marked `# noqa: F401` is a re-export and exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                     for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{filename}:{line} {name}" for line, name in imported if name not in used]


def test_unused_imports_finds_each_kind():
    source = '''
from __future__ import annotations
import os
import a.b
import numpy as np
from m import used, unused, kept  # noqa: F401
from n import other as alias

np.zeros(used)
'''
    assert [k.split(" ", 1)[1] for k in unused_imports(source, "m.py")] == [
        "os", "a", "alias"]


def test_no_unused_imports():
    root = Path(bandflow.__file__).parent
    paths = sorted(root.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    found = []
    for path in paths:
        found += unused_imports(path.read_text(encoding="utf-8"), path.name)
    assert not found, "unused imports:\n" + "\n".join(found)


# ---------------------------------------------------------------------------
# reachability: every function of src/bandflow runs in some command

# 'module.qualname' -> why no command runs it.  Tests reach each of these.
UNREACHED = {
    "blocks.GatedAttention.cross_branch": "Settled: test reference for the fused cross-attention",
    "models.AccompFlowModel.use_plain_ffn": "Settled: the N=1 reduction gate swaps in PlainBandFFN",
    "moe.PlainBandFFN.__init__": "Settled: test reference for the N=1 reduction",
    "moe.PlainBandFFN.__call__": "Settled: test reference for the N=1 reduction",
    **{f"rq.{name}": "Settled: rq.py is a paper component only tests use"
       for name in ("RQCodebook.create", "RQCodebook.depth", "RQCodebook.size",
                    "RQCodebook.dim", "StyleCode.embedding", "phoneme_pool", "rq_encode",
                    "rq_decode", "quantize_st", "commit_loss", "codebook_update")},
    # the one-pair metrics go once perfbench moves off them (ROADMAP item 1)
    "metrics.melody_distance": "one-pair metric: perfbench's tests call it",
    "metrics.dtw_distance": "one-pair metric: perfbench's tests call it",
    "tensor.Tensor.__repr__": "debugging aid",
    "tensor.ParameterStore.__getitem__": "tests read parameters by name",
}


def definitions():
    """{(source path, first line): 'module.qualname'} for every def in the
    package, closures included.  A decorated function's code object starts
    at its first decorator, so that line is its key."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = (child.decorator_list[0] if child.decorator_list else child).lineno
                found[path, first] = name
                visit(child, name, path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)
            else:
                visit(child, prefix, path)

    for path in sorted(Path(bandflow.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, str(path.resolve()))
    return found


def _run_every_command(tmp, monkeypatch):
    """Runs each command, and the failures a user reaches, at tiny sizes."""
    def run(code, *argv):
        assert cli.cli_dispatch([str(a) for a in argv]) == code, argv

    for task, n in (("flow2d", FLOW2D_MIN_POINTS), ("accomp-toy", 2), ("style-toy", 2)):
        run(0, "gen-data", "--task", task, "--n", n, "--out", tmp / task)
    for seed, side in enumerate(("gen", "ref")):
        run(0, "gen-data", "--task", "melody-grammar", "--n", 3, "--seed", seed,
            "--out", tmp / side)
    run(0, "train", "--model", "flow2d", "--steps", 1, "--out", tmp / "f.vbnd")
    run(0, "train", "--model", "style", "--steps", 1, "--warmup", 1, "--out", tmp / "s.vbnd")
    run(0, "train", "--model", "accomp", "--steps", 1, "--gamma", 3, "--trace",
        "--out", tmp / "a.vbnd")
    run(0, "train", "--model", "melody", "--steps", 1, "--out", tmp / "m.vbnd")
    run(0, "sample", "--ckpt", tmp / "f.vbnd", "--n", 4, "--trace", "--out", tmp / "x.csv")
    (tmp / "yes.cfg").write_text("trace=yes\n")
    run(0, "sample", "--ckpt", tmp / "f.vbnd", "--n", 4, "--config", tmp / "yes.cfg",
        "--out", tmp / "y.csv")
    run(0, "eval-melody", tmp / "gen", tmp / "ref", "--out", tmp / "report.csv")
    run(0, "eval-melody", tmp / "gen" / "song0000.notes", tmp / "ref" / "song0001.notes")
    (tmp / "f0.csv").write_text("0,100\n1,0\n2,220\n")
    run(0, "eval-f0", tmp / "f0.csv", tmp / "f0.csv")
    run(0, "route-trace", "--out", tmp / "route.csv")
    run(0, "gradcheck", "--trials", 1)
    run(1, "gradcheck", "--frobnicate")
    (tmp / "typo.cfg").write_text("stpes=2\n")
    run(2, "train", "--model", "flow2d", "--config", tmp / "typo.cfg")
    monkeypatch.setattr(sys, "argv", ["bandflow", "eval-f0", str(tmp / "f0.csv"),
                                      str(tmp / "f0.csv")])
    with pytest.raises(SystemExit) as stop:
        cli.main()
    assert stop.value.code == 0


def test_every_function_is_reached_by_a_command_or_allowlisted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # empty the caches an earlier test may have filled, or the functions
    # that fill them would look unreached
    cli.build_parser.cache_clear()
    blocks._rope_tables.cache_clear()
    monkeypatch.setattr(metrics, "_TABLE", None)
    seen = set()
    checker = gradcheck.gradcheck_all.__code__.co_filename
    depth = 0      # gradcheck.py frames on the stack

    def record(frame, event, arg):
        nonlocal depth
        own = frame.f_code.co_filename == checker
        if event == "call":
            if own or depth == 0:
                seen.add(frame.f_code)
            depth += own
        elif event == "return":
            depth -= own

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        _run_every_command(tmp_path, monkeypatch)
    finally:
        sys.setprofile(previous)
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in seen}
    unreached = {name for key, name in definitions().items() if key not in reached}
    new = sorted(unreached - UNREACHED.keys())
    assert not new, "reached by no command: " + ", ".join(new)
    stale = sorted(UNREACHED.keys() - unreached)
    assert not stale, "allowlisted but reached or gone: " + ", ".join(stale)
