"""Span tracer for the traced benchmark run.

The tracer wraps layer entry points by replacing module and class
attributes at run time (the program itself carries no tracing code), and
records CPython's cyclic collector through ``gc.callbacks``.  Spans live
in flat ``array`` columns -- name, start, end, parent, op id -- so a run
with hundreds of thousands of spans adds no objects for the collector to
traverse; :meth:`Tracer.dump` writes them out when the run ends.

Each wrapper may also take counts at the same boundary: a ``probe`` reads
a tuple of counters before and after the outermost call of its layer,
and a ``post`` hook turns the call's result into a count (edits dirtied,
snapshot bytes, frames decoded).
"""

from __future__ import annotations

import contextvars
import gc
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "span", default=-1
        )
        self.op_id: contextvars.ContextVar = contextvars.ContextVar(
            "op", default=-1
        )
        #: (layer, key) -> accumulated count
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self.installed = False
        self._gc_start = 0.0
        self._gc_id = self._name_id("gc")
        self.gc_pauses: List[Tuple[float, float, int, int]] = []

    # -- span recording -------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _begin(self, idx: int) -> int:
        i = len(self.start)
        self.name.append(idx)
        self.parent.append(self.current.get())
        self.op.append(self.op_id.get())
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def _outermost(self, i: int) -> bool:
        idx = self.name[i]
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == idx:
                return False
            p = self.parent[p]
        return True

    def _count(self, layer: str, keys: Sequence[str], before, after) -> None:
        counts = self.counts
        for key, a, b in zip(keys, before, after):
            counts[layer, key] += b - a

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        *,
        probe: Optional[Callable[[Any], tuple]] = None,
        keys: Sequence[str] = (),
        post: Optional[Callable[[Any, tuple], float]] = None,
        post_key: str = "",
    ) -> None:
        """Register ``owner.attr`` to be timed as ``layer`` while installed.

        ``probe(first_arg)`` returns counters named ``keys``; their deltas
        over each outermost ``layer`` call accumulate into
        :attr:`counts`.  ``post(result, args)`` adds to
        ``counts[layer, post_key]`` after each outermost call.
        """
        fn = inspect.getattr_static(owner, attr)
        idx = self._name_id(layer)
        tracer = self

        def enter(args):
            i = tracer._begin(idx)
            token = tracer.current.set(i)
            outer = tracer._outermost(i)
            before = probe(args[0]) if probe is not None and outer else None
            return i, token, outer, before

        def leave(i, token):
            tracer.end[i] = perf_counter()
            tracer.current.reset(token)

        def counted(outer, before, args, result):
            # only calls that returned: a failed call has no result to count
            if before is not None:
                tracer._count(layer, keys, before, probe(args[0]))
            if post is not None and outer:
                tracer.counts[layer, post_key] += post(result, args)

        if inspect.iscoroutinefunction(fn):

            async def wrapper(*args, **kwargs):
                i, token, outer, before = enter(args)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    leave(i, token)
                counted(outer, before, args, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                i, token, outer, before = enter(args)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(i, token)
                counted(outer, before, args, result)
                return result

        wrapper.__wrapped__ = fn
        self._patches.append((owner, attr, fn, wrapper))

    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, _fn, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, fn, _wrapper in reversed(self._patches):
            setattr(owner, attr, fn)
        gc.callbacks.remove(self._on_gc)
        self.installed = False

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        end = perf_counter()
        self.name.append(self._gc_id)
        self.parent.append(self.current.get())
        self.op.append(self.op_id.get())
        self.start.append(self._gc_start)
        self.end.append(end)
        self.gc_pauses.append(
            (self._gc_start, end, info["generation"], info["collected"])
        )

    # -- analysis -------------------------------------------------------

    def layer_times(
        self, windows: Sequence[Tuple[float, float]]
    ) -> Dict[str, Dict[str, float]]:
        """Wall (outermost spans) and self time per layer for spans that
        start inside any of ``windows``."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end, name = self.parent, self.start, self.end, self.name
        for i in range(n):
            p = parent[i]
            if p >= 0 and end[i] > 0.0:
                child[p] += end[i] - start[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(n):
            if end[i] <= 0.0 or not _inside(start[i], windows):
                continue
            layer = self.names[name[i]]
            row = out.setdefault(layer, {"wall": 0.0, "self": 0.0, "calls": 0})
            dur = end[i] - start[i]
            row["self"] += dur - child[i]
            row["calls"] += 1
            if self._outermost(i):
                row["wall"] += dur
        return out

    def gc_summary(self, windows: Sequence[Tuple[float, float]]) -> dict:
        pauses = [p for p in self.gc_pauses if _inside(p[0], windows)]
        return {
            "pause_s": sum(e - s for s, e, _g, _c in pauses),
            "gen2": sum(1 for _s, _e, g, _c in pauses if g == 2),
            "max_pause_ms": max(((e - s) * 1e3 for s, e, _g, _c in pauses), default=0.0),
            "collected": sum(c for _s, _e, _g, c in pauses),
            "collections": len(pauses),
        }

    def dump(self, path: str, meta: dict) -> None:
        """Write every span (column-wise) plus ``meta`` as one JSON file."""
        doc = {
            "meta": meta,
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def _inside(t: float, windows: Sequence[Tuple[float, float]]) -> bool:
    for a, b in windows:
        if a <= t < b:
            return True
    return False
