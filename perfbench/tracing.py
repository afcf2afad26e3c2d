"""In-memory span recorder and the wrappers that feed it.

A span is one call into a traced function: (id, parent id, name, start, end,
request id).  Wrappers are installed by rebinding every reference the
package holds to a traced function -- module attributes, names copied by
``from ... import``, class attributes and module-level dict values (such as
the CLI's command table) -- and ``uninstall`` puts the originals back, so a
run that never installs them calls the unwrapped functions.

Spans stay in per-thread buffers until ``table()`` merges them once the run
has ended.  A span opened on a thread with no open span of its own (a pool
worker) takes the main thread's innermost open span as its parent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from array import array

import numpy as np

# flat record layout of one span in a thread buffer
_FIELDS = 6   # id, parent, name index, start, end, request


class _Buffer:
    __slots__ = ("data", "stack", "attrs", "thread")

    def __init__(self, thread):
        self.data = array("d")
        self.stack = []
        self.attrs = {}
        self.thread = thread


class SpanTable:
    """All spans of a run as parallel numpy columns, sorted by span id."""

    def __init__(self, names, ids, parents, name_idx, t0, t1, req, thread, attrs):
        self.names = names
        self.ids = ids
        self.parents = parents
        self.name_idx = name_idx
        self.t0 = t0
        self.t1 = t1
        self.req = req
        self.thread = thread
        self.attrs = attrs
        self.dur = t1 - t0
        known = parents >= 0
        self.parent_pos = np.full(len(ids), -1, dtype=np.int64)
        self.parent_pos[known] = np.searchsorted(ids, parents[known])
        self._self = None

    def __len__(self):
        return len(self.ids)

    def subset(self, mask):
        """The spans where `mask` holds; parents outside it become roots."""
        return SpanTable(self.names, self.ids[mask], np.where(
            np.isin(self.parents[mask], self.ids[mask]), self.parents[mask], -1),
            self.name_idx[mask], self.t0[mask], self.t1[mask], self.req[mask],
            self.thread[mask], self.attrs)

    @property
    def self_time(self):
        if self._self is None:
            self._self = self_times(self.parent_pos, self.t0, self.t1)
        return self._self


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total, run_s, run_e = 0.0, None, None
    for s, e in sorted(intervals):
        if run_e is None or s > run_e:
            if run_e is not None:
                total += run_e - run_s
            run_s, run_e = s, e
        elif e > run_e:
            run_e = e
    if run_e is not None:
        total += run_e - run_s
    return total


def self_times(parent_pos, t0, t1):
    """Each span's duration minus the time covered by the union of its children.

    `parent_pos[i]` is the row of span i's parent, or -1 for a root.  Children
    on other threads may overlap each other; overlapping time counts once, and
    a child's interval is clipped to its parent's.
    """
    t0 = np.asarray(t0, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)
    start, end = t0.tolist(), t1.tolist()
    children = {}
    for i, p in enumerate(np.asarray(parent_pos).tolist()):
        if p >= 0:
            s, e = max(start[i], start[p]), min(end[i], end[p])
            if e > s:
                children.setdefault(p, []).append((s, e))
    covered = np.zeros(len(t0))
    for p, intervals in children.items():
        covered[p] = union_length(intervals)
    return (t1 - t0) - covered


class Tracer:
    """Records spans for wrapped callables; one instance per traced run."""

    def __init__(self):
        self.names = []
        self.request = -1
        self._ids = itertools.count()
        self._tls = threading.local()
        self._buffers = []
        self._register = threading.Lock()
        self._main = self._buffer()
        self._patches = []
        self._wrappers = {}

    def _buffer(self):
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            with self._register:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._tls.buf = buf
        return buf

    def wrap(self, fn, name, attr=None):
        """A callable that runs `fn` inside a span called `name`.

        `attr(args, kwargs, result)`, if given, computes a value stored
        against the span (a row count, a file size, ...).
        """
        idx = len(self.names)
        self.names.append(name)
        ids, tls, main = self._ids, self._tls, self._main
        clock, tracer, new_buffer = time.perf_counter, self, self._buffer

        def traced(*args, **kwargs):
            buf = getattr(tls, "buf", None) or new_buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                parent = main.stack[-1] if main.stack and buf is not main else -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.data.extend((sid, parent, idx, t0, t1, tracer.request))
            if attr is not None:
                buf.attrs[sid] = attr(args, kwargs, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    # -- installing and removing wrappers ----------------------------------

    def install(self, targets, modules):
        """Wrap each target and rebind every reference to it in `modules`.

        targets: (owner, attribute, span name, attr function) tuples, where
        owner is a module or a class.  Wrappers are made once per tracer, so
        installing again after `uninstall` reuses them.
        """
        originals = {}
        for owner, attr_name, name, attr in targets:
            orig = owner.__dict__[attr_name]
            if id(orig) not in self._wrappers:
                self._wrappers[id(orig)] = (orig, self.wrap(orig, name, attr))
            originals[id(orig)] = self._wrappers[id(orig)]
            if isinstance(owner, type):
                self._patch(owner, attr_name, orig, originals[id(orig)][1], setattr)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if key == "__builtins__":
                    continue
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, key, value, hit[1], setattr)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        hit = originals.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._patch(value, k, v, hit[1], dict.__setitem__)

    def _patch(self, owner, key, orig, wrapper, setter):
        setter(owner, key, wrapper)
        self._patches.append((owner, key, orig, setter))

    def uninstall(self):
        for owner, key, orig, setter in reversed(self._patches):
            setter(owner, key, orig)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self, targets, modules):
        self.install(targets, modules)
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def table(self):
        cols, attrs, threads = [], {}, []
        for buf in self._buffers:
            block = np.frombuffer(buf.data, dtype=np.float64).reshape(-1, _FIELDS)
            cols.append(block)
            threads.append(np.full(len(block), buf.thread, dtype=np.int64))
            attrs.update(buf.attrs)
        data = np.concatenate(cols) if cols else np.zeros((0, _FIELDS))
        thread = np.concatenate(threads) if threads else np.zeros(0, dtype=np.int64)
        order = np.argsort(data[:, 0], kind="stable")
        data, thread = data[order], thread[order]
        as_int = data[:, [0, 1, 2, 5]].astype(np.int64)
        return SpanTable(list(self.names), as_int[:, 0], as_int[:, 1], as_int[:, 2],
                         data[:, 3].copy(), data[:, 4].copy(), as_int[:, 3], thread, attrs)


def bindings(modules):
    """Snapshot of every callable bound in `modules`: module attributes,
    module-level dict values and the attributes of classes defined there."""
    snap = {}
    for mod in modules:
        for key, value in vars(mod).items():
            if key == "__builtins__":
                continue
            if callable(value):
                snap[(mod.__name__, key)] = value
            if type(value) is dict:
                for k, v in value.items():
                    if callable(v):
                        snap[(mod.__name__, key, k)] = v
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for k, v in vars(value).items():
                    if callable(v):
                        snap[(mod.__name__, key, "." + k)] = v
    return snap


def changed_bindings(before, modules):
    """Keys whose bound object is no longer the identical object."""
    after = bindings(modules)
    return sorted(str(k) for k, v in before.items() if after.get(k, None) is not v)
