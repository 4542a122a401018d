"""Trace records: read edges and memo entries.

The *trace* of a self-adjusting run is the set of read edges ordered by their
start timestamps, together with the memo entries recorded during the run.
Both kinds of record are *anchored* at their start stamp (``stamp.owner``),
so that deleting a time range retracts exactly the records created in it.

A third record, :class:`AllocSite`, anchors a ``keyed_mod`` allocation.
Every keyed allocation site -- an ``AllocSite`` or a memo entry whose
miss allocated its callee's result under a key (``akey``) -- is indexed
in the engine's ``alloc_table`` while it lives and leaves it when its
stamp is deleted.

Read edges and memo entries are ``__slots__``-packed and recycled through
engine free-lists once fully retracted (see
:class:`repro.sac.engine.Engine`): a discarded
edge that is not sitting in the dirty queue goes straight back to the pool,
a queued one when it is finally popped, and a memo entry as soon as it
dies (it leaves its table bucket in the same step).  Recycling is skipped
while an observability hook is attached, because hooks name records by
identity.

The propagation heap does *not* compare these records: the engine stores
``(key, tiebreak, edge)`` tuples whose leading ints decide the order at C
speed, so the records need no ordering protocol at all.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sac.order import Stamp


class ReadEdge:
    """A recorded ``read`` of a modifiable.

    The edge remembers the reader closure and the timestamp interval
    ``[start, end]`` spanned by the reader's execution.  A *leaf* read,
    whose body recorded no stamp, closes on its own start: ``end is
    start`` names an empty interval and costs no end stamp (re-execution
    re-decides the shape).  When the modifiable
    changes, the edge becomes *dirty* and is queued; change propagation
    re-executes the closure within its interval, discarding whatever part of
    the old sub-trace is not reused through memoization.

    ``dest`` is the innermost enclosing ``mod`` destination at the time the
    read ran: the modifiable this read's re-execution ultimately writes.
    It is what lazy (demand-driven) propagation walks to decide whether a
    dirty edge feeds a demanded output (see ``Engine.demand``); eager
    propagation never looks at it.  ``None`` means the read ran with no
    enclosing destination on record, which demand treats as "feeds
    everything" (always sound, possibly eager).
    """

    __slots__ = ("mod", "reader", "start", "end", "dest", "dirty", "dead")

    def __init__(
        self,
        mod: Any,
        reader: Callable[[Any], None],
        start: Stamp,
        dest: Any = None,
    ) -> None:
        self.mod = mod
        self.reader = reader
        self.start: Optional[Stamp] = start
        self.end: Optional[Stamp] = None
        self.dest = dest
        self.dirty = False
        self.dead = False

    def discard(self, engine: Any) -> None:
        """Retract this edge: called when its start stamp is deleted.

        The reader closure and the modifiable reference are dropped eagerly:
        a dead edge can linger in the dirty queue (it is skipped when
        popped), and without this the closure's captured environment --
        often a whole sub-computation's worth of values -- would stay live
        until the queue drains.  An edge that is *not* queued is done for
        good and goes back to the engine's free-list immediately (queued
        ones are recycled at pop time instead: the queue entry still
        references them).
        """
        self.dead = True
        self.mod.readers.pop(self, None)
        self.mod = None
        self.reader = None
        self.dest = None
        engine.meter.live_edges -= 1
        if not self.dirty and engine.hook is None:
            pool = engine._edge_pool
            if len(pool) < engine.EDGE_POOL_CAP:
                self.start = None
                self.end = None
                pool.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ("dirty" if self.dirty else "") + (" dead" if self.dead else "")
        at = self.start.key if self.start is not None else "?"
        return f"<ReadEdge @{at} {flags}>"


class MemoEntry:
    """A memo-table record of one memoized computation.

    Stores the result and the timestamp interval of the computation.  During
    re-execution, a live entry whose interval lies inside the current reuse
    zone can be *spliced*: the engine skips over the entry's interval instead
    of recomputing, keeping the entire sub-trace (and its pending dirty
    reads, which are then propagated in timestamp order).

    ``akey`` is the allocation key when the entry's start stamp is also a
    keyed allocation site (see ``Engine.memo_probe``): ``alloc_table``
    maps it to this entry, and ``result`` is then the allocated
    modifiable.
    """

    __slots__ = ("key", "result", "start", "end", "dead", "akey")

    def __init__(self, key: Any, start: Stamp) -> None:
        self.key = key
        self.result: Any = None
        self.start: Optional[Stamp] = start
        self.end: Optional[Stamp] = None
        self.dead = False
        self.akey: Any = None

    def discard(self, engine: Any) -> None:
        """Retract this entry: called when its start stamp is deleted.

        The stored result is dropped (a dead entry can never be spliced),
        and a committed entry leaves its memo-table bucket at once, so the
        table never holds a dead entry.  An open entry (``end is None``,
        its body still running or aborted) was never in a bucket.
        """
        self.dead = True
        self.result = None
        engine.meter.live_memo_entries -= 1
        if self.end is not None:
            bucket = engine.memo_table[self.key]
            if len(bucket) == 1:
                del engine.memo_table[self.key]
            else:
                bucket.remove(self)
        if self.akey is not None:
            del engine.alloc_table[self.akey]
            self.akey = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        at = self.start.key if self.start is not None else "?"
        return f"<MemoEntry {self.key!r} @{at}>"


class AllocSite:
    """The allocation site of one ``keyed_mod``: its stamp and modifiable.

    An empty interval (``end is start``, like a leaf read) anchored at the
    allocation stamp.  ``alloc_table`` maps ``akey`` to the site while it
    lives; deleting the stamp retracts it.
    """

    __slots__ = ("akey", "result", "start", "end", "dead")

    def __init__(self, akey: Any, result: Any, start: Stamp) -> None:
        self.akey = akey
        self.result = result
        self.start: Optional[Stamp] = start
        self.end: Optional[Stamp] = start
        self.dead = False

    def discard(self, engine: Any) -> None:
        """Retract this site: called when its stamp is deleted."""
        self.dead = True
        del engine.alloc_table[self.akey]
        self.result = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        at = self.start.key if self.start is not None else "?"
        return f"<AllocSite {self.akey!r} @{at}>"
