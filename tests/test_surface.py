"""A ratchet on the package's settable values.

A settable value is a knob a caller can turn without editing the code:
- a parameter with a default of a function or method (a lambda's default
  binds a loop variable and is not counted);
- a field of a @dataclass that has a default and that __init__ takes;
- a read of an environment variable.

Deleting a knob lowers the count; the bound then moves down with it.
"""

import ast
from pathlib import Path

import bandflow

MAX_SETTABLE = 73


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
