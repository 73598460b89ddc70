"""Spans around calls into adjamr's modules, installed from outside `src/`.

A `Tracer` replaces a function at every module attribute that holds it
(so `adjamr.amr.regrid` and `adjamr.driver.regrid` share one wrapper) and
records one span per call: name, start, end and the enclosing span.  Spans
stay in memory in flat arrays and are written when the run ends.

Each name also gets per-parent aggregates (calls, inclusive seconds, self
seconds) and optional counters filled by a hook that sees the call's
arguments and result.  Hook time is kept out of every span: it is reported
as `hook_s`, so self times plus hook time plus wrapper overhead add up to
the traced wall.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []        # [span index, name, child seconds]
        self._active: dict[str, int] = defaultdict(int)
        # (name, parent name or "") -> [calls, inclusive s, self s]
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.outer_s: dict[str, float] = defaultdict(float)   # not nested in itself
        self.hook_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def active(self, name: str) -> bool:
        """True while a span called `name` is open."""
        return self._active[name] > 0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> list:
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        frame = [idx, name, 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        self.span_start.append(perf_counter())
        return frame

    def _close(self, frame: list) -> float:
        t1 = perf_counter()
        idx, name, child = frame
        self.span_end[idx] = t1
        self._stack.pop()
        self._active[name] -= 1
        dur = t1 - self.span_start[idx]
        if not self._active[name]:
            self.outer_s[name] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        st = self.stats[(name, parent[1] if parent else "")]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        return t1

    def _hook_done(self, t1: float):
        """Charge the time since `t1` to hooks, not to any span."""
        dt = perf_counter() - t1
        self.hook_s += dt
        if self._stack:
            self._stack[-1][2] += dt

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        frame = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def wrap(self, fn, name: str, hook=None):
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self._close(frame)
            if hook is not None:
                hook(self, args, kwargs, result)
                self._hook_done(t1)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, module, attr: str, name: str, hook=None):
        """Wrap module.attr wherever an adjamr module binds that function."""
        fn = getattr(module, attr)
        wrapper = self.wrap(fn, name, hook)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "adjamr" or modname.startswith("adjamr.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._restore.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def save(self, path: str):
        """Write every span as tab-separated text: id, parent, name, start, end."""
        with open(path, "w") as f:
            f.write("# id\tparent\tname\tstart_s\tend_s\n")
            for k in range(len(self.span_start)):
                f.write(f"{k}\t{self.span_parent[k]}\t{self.names[self.span_name[k]]}"
                        f"\t{self.span_start[k]!r}\t{self.span_end[k]!r}\n")
