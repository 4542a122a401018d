"""Structured trace events and the engine hook protocol.

The engine emits *callbacks*, not event objects: every emission site in
:class:`repro.sac.engine.Engine` is guarded by ``if self.hook is not None``,
so with no hook attached the only hot-path cost is that attribute check.
Hooks receive the live runtime objects (modifiables, read edges, memo
entries), which is what the invariant checker needs; the
:class:`EventLog` hook is the one that flattens them into plain
:class:`TraceEvent` records suitable for dumping.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Any, Dict, Iterable, List, NamedTuple, Optional


class TraceEvent(NamedTuple):
    """One structured engine event.

    ``seq`` is the emission index within the log, ``kind`` one of the event
    names below, and ``info`` a plain JSON-safe dict.  Kinds::

        mod-create  read-start  read-end  write  impwrite  change
        memo-hit    memo-miss   splice    discard
        reexec      propagate-begin       propagate-end
        dirty-mark  demand-begin          demand-end
        batch-begin batch-end
        reexec-abort poison     rollback
    """

    seq: int
    kind: str
    info: Dict[str, Any]

    def to_json(self) -> str:
        return json.dumps({"seq": self.seq, "kind": self.kind, **self.info})


class TraceHook:
    """No-op base hook: subclass and override the events you care about.

    The engine calls :meth:`on_attach` when the hook is installed via
    :meth:`repro.sac.engine.Engine.attach_hook`, so hooks that need engine
    state (the invariant checker inspects ``engine.reuse_limit``) can keep a
    reference.
    """

    engine: Any = None

    def on_attach(self, engine: Any) -> None:
        self.engine = engine

    # -- trace construction ------------------------------------------------
    def on_mod_create(self, mod: Any, is_input: bool, recycled: bool) -> None:
        """A modifiable was allocated (``recycled``: keyed allocation reused
        the modifiable of a site in the reuse zone)."""

    def on_read_start(self, edge: Any) -> None:
        """A read edge was created; its reader is about to run."""

    def on_read_end(self, edge: Any) -> None:
        """The reader returned; ``edge.end`` is now set."""

    def on_write(self, dest: Any, value: Any, changed: bool) -> None:
        """A ``write`` ran (``changed=False``: suppressed no-op write)."""

    def on_impwrite(self, dest: Any, value: Any, changed: bool, dirtied: int) -> None:
        """An imperative write ran, dirtying ``dirtied`` later reads."""

    def on_change(self, mod: Any, value: Any, changed: bool) -> None:
        """An input modifiable was changed between propagations."""

    # -- memoization ---------------------------------------------------------
    def on_memo_hit(self, entry: Any) -> None:
        """A memo hit was found (emitted *before* the splice)."""

    def on_memo_miss(self, key: Any) -> None:
        """No reusable memo entry; the thunk will run."""

    def on_splice(self, entry: Any) -> None:
        """The cursor jumped past ``entry``'s interval (after the hit)."""

    def on_discard(self, owner: Any) -> None:
        """A trace record (read edge or memo entry) was retracted."""

    # -- propagation ---------------------------------------------------------
    def on_reexec(self, edge: Any) -> None:
        """A dirty edge was popped from the queue for re-execution."""

    def on_propagate_begin(self, queued: int) -> None:
        """Change propagation started with ``queued`` queue entries."""

    def on_propagate_end(self, reexecuted: int) -> None:
        """Change propagation finished (``reexecuted`` edges re-run).

        Not emitted when propagation is cut short by a budget or deadline
        (:class:`repro.sac.exceptions.PropagationBudgetExceeded`); the next
        resuming propagation emits its own begin/end pair.
        """

    # -- lazy (demand-driven) propagation -------------------------------------
    def on_dirty_mark(self, mod: Any) -> None:
        """Lazy mode: an edit marked ``mod`` suspect (its value may now be
        stale; a demand reaching it will re-execute its dirty feeders)."""

    def on_demand_begin(self, mod: Any, queued: int) -> None:
        """A demand walk for ``mod`` started with ``queued`` queue entries.
        Also emitted (immediately followed by the end event) when the
        demand is served clean, with zero work."""

    def on_demand_end(self, mod: Any, reexecuted: int) -> None:
        """The demand walk finished (``reexecuted`` edges re-run within
        the demanded cone).  Unlike ``propagate-end``, the dirty queue may
        legitimately be non-empty here: edits outside the demanded cone
        stay staged.  Not emitted when the walk is cut short by a budget
        or deadline."""

    # -- failure and recovery -------------------------------------------------
    def on_reexec_abort(self, edge: Any, exc: BaseException, consistent: bool) -> None:
        """A re-executed reader raised; the engine spliced the edge's
        interval back out and re-queued it (``consistent=False``: the
        cleanup itself failed and the engine poisoned itself)."""

    def on_poison(self, reason: str) -> None:
        """The engine poisoned itself; all further operations will raise
        :class:`repro.sac.exceptions.EnginePoisonedError`."""

    def on_rollback(self, undone: int, recovery_reexecuted: int, restaged: int) -> None:
        """``Engine.rollback`` undid ``undone`` journalled edits, propagated
        back to the last-good state (``recovery_reexecuted`` reads), and
        re-staged ``restaged`` of them as pending edits."""

    # -- batching ---------------------------------------------------------------
    def on_batch_begin(self) -> None:
        """An outermost ``Engine.batch()`` scope opened."""

    def on_batch_end(self, changed: int, reexecuted: int) -> None:
        """The outermost batch scope closed: ``changed`` effective edits
        were coalesced into one pass that re-executed ``reexecuted`` reads."""


class FanoutHook(TraceHook):
    """Forward every event to several hooks (e.g. a log plus a checker)."""

    def __init__(self, hooks: Iterable[TraceHook]) -> None:
        self.hooks: List[TraceHook] = list(hooks)

    def on_attach(self, engine: Any) -> None:
        self.engine = engine
        for hook in self.hooks:
            hook.on_attach(engine)

    def on_mod_create(self, mod, is_input, recycled):
        for h in self.hooks:
            h.on_mod_create(mod, is_input, recycled)

    def on_read_start(self, edge):
        for h in self.hooks:
            h.on_read_start(edge)

    def on_read_end(self, edge):
        for h in self.hooks:
            h.on_read_end(edge)

    def on_write(self, dest, value, changed):
        for h in self.hooks:
            h.on_write(dest, value, changed)

    def on_impwrite(self, dest, value, changed, dirtied):
        for h in self.hooks:
            h.on_impwrite(dest, value, changed, dirtied)

    def on_change(self, mod, value, changed):
        for h in self.hooks:
            h.on_change(mod, value, changed)

    def on_memo_hit(self, entry):
        for h in self.hooks:
            h.on_memo_hit(entry)

    def on_memo_miss(self, key):
        for h in self.hooks:
            h.on_memo_miss(key)

    def on_splice(self, entry):
        for h in self.hooks:
            h.on_splice(entry)

    def on_discard(self, owner):
        for h in self.hooks:
            h.on_discard(owner)

    def on_reexec(self, edge):
        for h in self.hooks:
            h.on_reexec(edge)

    def on_propagate_begin(self, queued):
        for h in self.hooks:
            h.on_propagate_begin(queued)

    def on_propagate_end(self, reexecuted):
        for h in self.hooks:
            h.on_propagate_end(reexecuted)

    def on_dirty_mark(self, mod):
        for h in self.hooks:
            h.on_dirty_mark(mod)

    def on_demand_begin(self, mod, queued):
        for h in self.hooks:
            h.on_demand_begin(mod, queued)

    def on_demand_end(self, mod, reexecuted):
        for h in self.hooks:
            h.on_demand_end(mod, reexecuted)

    def on_reexec_abort(self, edge, exc, consistent):
        for h in self.hooks:
            h.on_reexec_abort(edge, exc, consistent)

    def on_poison(self, reason):
        for h in self.hooks:
            h.on_poison(reason)

    def on_rollback(self, undone, recovery_reexecuted, restaged):
        for h in self.hooks:
            h.on_rollback(undone, recovery_reexecuted, restaged)

    def on_batch_begin(self):
        for h in self.hooks:
            h.on_batch_begin()

    def on_batch_end(self, changed, reexecuted):
        for h in self.hooks:
            h.on_batch_end(changed, reexecuted)


def _short(value: Any, limit: int = 48) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


class EventLog(TraceHook):
    """Record engine events as structured :class:`TraceEvent` records.

    Keeps at most ``maxlen`` events (oldest dropped first); ``maxlen=None``
    is unbounded.  Modifiables are named ``m0, m1, ...`` in creation/first-
    seen order and read edges ``r0, r1, ...``; the log holds references to
    the named objects so names stay unique for the log's lifetime.
    """

    def __init__(self, maxlen: Optional[int] = 100_000, values: bool = False) -> None:
        self.events: deque = deque(maxlen=maxlen)
        self.values = values
        self._seq = 0
        self._mods: Dict[int, str] = {}
        self._mod_refs: list = []  # keep named objects alive (stable ids)
        self._edges: Dict[int, str] = {}
        self._edge_refs: list = []

    # -- naming ---------------------------------------------------------------

    def _mod_name(self, mod: Any) -> str:
        name = self._mods.get(id(mod))
        if name is None:
            name = f"m{len(self._mods)}"
            self._mods[id(mod)] = name
            self._mod_refs.append(mod)
        return name

    def _edge_name(self, edge: Any) -> str:
        name = self._edges.get(id(edge))
        if name is None:
            name = f"r{len(self._edges)}"
            self._edges[id(edge)] = name
            self._edge_refs.append(edge)
        return name

    def _emit(self, kind: str, **info: Any) -> None:
        self.events.append(TraceEvent(self._seq, kind, info))
        self._seq += 1

    # -- hook methods -----------------------------------------------------------

    def on_mod_create(self, mod, is_input, recycled):
        self._emit(
            "mod-create",
            mod=self._mod_name(mod),
            input=is_input,
            recycled=recycled,
        )

    def on_read_start(self, edge):
        self._emit(
            "read-start",
            edge=self._edge_name(edge),
            mod=self._mod_name(edge.mod),
            start=edge.start.label,
        )

    def on_read_end(self, edge):
        self._emit(
            "read-end",
            edge=self._edge_name(edge),
            start=edge.start.label,
            end=edge.end.label,
        )

    def on_write(self, dest, value, changed):
        info = {"mod": self._mod_name(dest), "changed": changed}
        if self.values:
            info["value"] = _short(value)
        self._emit("write", **info)

    def on_impwrite(self, dest, value, changed, dirtied):
        info = {"mod": self._mod_name(dest), "changed": changed, "dirtied": dirtied}
        if self.values:
            info["value"] = _short(value)
        self._emit("impwrite", **info)

    def on_change(self, mod, value, changed):
        info = {"mod": self._mod_name(mod), "changed": changed}
        if self.values:
            info["value"] = _short(value)
        self._emit("change", **info)

    def on_memo_hit(self, entry):
        self._emit(
            "memo-hit",
            key=_short(entry.key),
            start=entry.start.label,
            end=entry.end.label,
        )

    def on_memo_miss(self, key):
        self._emit("memo-miss", key=_short(key))

    def on_splice(self, entry):
        self._emit("splice", start=entry.start.label, end=entry.end.label)

    def on_discard(self, owner):
        kind = type(owner).__name__
        self._emit(
            "discard",
            record="read" if kind == "ReadEdge" else "memo",
            start=owner.start.label,
        )

    def on_reexec(self, edge):
        self._emit("reexec", edge=self._edge_name(edge), start=edge.start.label)

    def on_propagate_begin(self, queued):
        self._emit("propagate-begin", queued=queued)

    def on_propagate_end(self, reexecuted):
        self._emit("propagate-end", reexecuted=reexecuted)

    def on_dirty_mark(self, mod):
        self._emit("dirty-mark", mod=self._mod_name(mod))

    def on_demand_begin(self, mod, queued):
        self._emit("demand-begin", mod=self._mod_name(mod), queued=queued)

    def on_demand_end(self, mod, reexecuted):
        self._emit("demand-end", mod=self._mod_name(mod), reexecuted=reexecuted)

    def on_reexec_abort(self, edge, exc, consistent):
        self._emit(
            "reexec-abort",
            edge=self._edge_name(edge),
            error=_short(exc),
            consistent=consistent,
        )

    def on_poison(self, reason):
        self._emit("poison", reason=_short(reason, limit=120))

    def on_rollback(self, undone, recovery_reexecuted, restaged):
        self._emit(
            "rollback",
            undone=undone,
            recovery_reexecuted=recovery_reexecuted,
            restaged=restaged,
        )

    def on_batch_begin(self):
        self._emit("batch-begin")

    def on_batch_end(self, changed, reexecuted):
        self._emit("batch-end", changed=changed, reexecuted=reexecuted)

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def counts(self) -> Dict[str, int]:
        """Number of recorded events per kind."""
        return dict(Counter(e.kind for e in self.events))

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def to_jsonl(self) -> str:
        """One JSON object per line, in emission order."""
        return "\n".join(e.to_json() for e in self.events)

    def clear(self) -> None:
        self.events.clear()
