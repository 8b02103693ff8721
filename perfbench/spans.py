"""Span tracing for the benchmark's traced run, kept outside the program.

``Tracer.install`` wraps every public function of the given modules and
rebinds the wrapper on every module attribute that holds the original, so
that copies made by ``from .exactalg import charpoly_oracle`` are traced
too.  Each call becomes a span ``(id, parent, name, start_ns, end_ns,
extra)`` on ``time.monotonic_ns()``, the system-wide monotonic clock, so
spans from different processes share one time line.

Pool workers forked while a span is open inherit the tracer and its open
span stack; their spans name the parent's open span as their parent.  A
worker notices the fork on its first span, drops the spans it inherited,
and writes its own spans to ``<spool>/spans-<pid>.json`` when the worker
process exits (a ``multiprocessing`` exit finalizer).  ``collect`` merges
those files into the parent's spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

# span tuple fields
ID, PARENT, NAME, START, END, EXTRA = range(6)


class Tracer:
    def __init__(self, spool: Path, extras: dict | None = None) -> None:
        """``extras`` maps a span name to ``f(args, kwargs, result) -> number``,
        summed per name as that layer's computed work count."""
        self.spool = Path(spool)
        self.extras = extras or {}
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self._pid = os.getpid()
        self._base = self._pid << 32
        self._next = 0

    # -- recording -------------------------------------------------------

    def _new_id(self) -> int:
        pid = os.getpid()
        if pid != self._pid:
            self._enter_child(pid)
        self._next += 1
        return self._base + self._next

    def _enter_child(self, pid: int) -> None:
        # first span in a forked worker: keep the inherited open stack (the
        # parent context), drop the parent's finished spans, flush at exit
        self._pid = pid
        self._base = pid << 32
        self._next = 0
        self.spans = []
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def flush(self) -> None:
        path = self.spool / f"spans-{self._pid}.json"
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def wrap(self, name: str, fn):
        tracer = self
        extra = self.extras.get(name)
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._new_id()
            stack = tracer.stack
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                x = extra(args, kwargs, result) if extra is not None else 0
                tracer.spans.append((sid, parent, name, start, end, x))

        return traced

    # -- installing ------------------------------------------------------

    def install(self, modules, prefix: str) -> list[str]:
        """Wrap the public functions defined in ``modules``; rebind them on
        every loaded module whose name is ``prefix`` or starts with
        ``prefix + "."``.  Returns the span names, ``<module>.<function>``."""
        wrappers: dict[int, object] = {}
        names = []
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self.wrap(name, obj)
                names.append(name)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return sorted(names)

    def collect(self) -> list[tuple]:
        """This process's spans plus those flushed by exited workers; resets both."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool.glob("spans-*.json")):
            with open(path) as fh:
                spans.extend(tuple(s) for s in json.load(fh))
            path.unlink()
        return spans


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and summed ``extra``.

    Self time is a span's duration minus the union of the parts of that
    interval its child spans cover, wherever (in whichever process) the
    children ran.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        start, end = s[START], s[END]
        kids = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(s[ID], ())
            if hi > start and lo < end
        ]
        self_ns = (end - start) - _covered(kids)
        agg = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "extra": 0})
        agg["calls"] += 1
        agg["self_s"] += self_ns / 1e9
        agg["extra"] += s[EXTRA]
    return out
