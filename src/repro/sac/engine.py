"""The change-propagation engine.

This module implements the core of self-adjusting computation (paper
Sections 3.5-3.6, following Acar et al., TOPLAS 2006/2009):

* ``mod`` / ``read`` / ``write`` build the dynamic dependence graph (trace)
  during the initial run;
* ``change`` modifies input modifiables between runs;
* ``propagate`` re-executes exactly the reads that observed changed values,
  in timestamp order, discarding stale trace and splicing in *memoized*
  sub-traces where possible.

The memoization discipline is AFL's (Acar et al. 2009): during re-execution
of a read edge with interval ``[s, e]``, the not-yet-discarded old trace
between the current time cursor and ``e`` is the *reuse zone*.  A memo hit
whose interval lies inside the zone is spliced in: the trace between the
cursor and the hit is discarded, the cursor jumps past the hit, and any
dirty reads inside the reused interval remain queued and are propagated
later, in timestamp order.

Imperative references (paper Figure 4's ``impwrite``) are supported for the
common initialize-then-read pattern: an imperative write makes *later* reads
dirty, but earlier reads keep the value they legitimately observed.  General
read-before-write aliasing would need the versioned store of Acar et al.
2008 and is out of scope (see DESIGN.md Section 6).
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.sac.exceptions import (
    EnginePoisonedError,
    FeedsOracleError,
    PropagationBudgetExceeded,
    PropagationError,
    ReadOutsideModError,
    RecursionReexecutionError,
    ReexecutionError,
    SacError,
    UnwrittenModError,
)
from repro.sac.gcpause import gc_paused
from repro.sac.meter import Meter
from repro.sac.modifiable import UNWRITTEN, Modifiable
from repro.sac.order import Order, Stamp
from repro.sac.trace import AllocSite, MemoEntry, ReadEdge

#: bit 0 of every reverse-reachability summary bitset: "feeds a
#: ``dest=None`` edge", i.e. conservatively feeds everything.  Demand
#: roots own the higher bits (see ``Modifiable.root_bit``).
UNIV = 1


def _values_equal(a: Any, b: Any) -> bool:
    """Conservative value equality used to suppress no-op writes.

    A write may be suppressed only when the new value is observationally
    identical to the old one, and Python's ``==`` is too coarse for that:
    ``True == 1 == 1.0`` and ``0.0 == -0.0`` conflate observably different
    values.  Equality here is therefore *type-sensitive*.  Two NaNs of the
    same type count as equal (a reader that observed NaN recomputes the
    same results from a fresh NaN, so cutting off is consistent).
    Modifiables compare by identity; tuples and constructor values compare
    structurally under the same rules.  Returning False for incomparable
    values is always sound (it only causes extra propagation).

    This is the runtime's only value equality: constructor values are not
    hash-consed, so equal cells built separately are compared by this walk.
    The walk stops at modifiables (identity), so a list cell costs O(1).
    It is iterative -- an explicit pair stack instead of recursion -- so a
    cutoff check on a 10k-deep constructor chain cannot overflow the
    interpreter stack.
    """
    if a is b:
        return True
    stack = [(a, b)]
    pop = stack.pop
    while stack:
        a, b = pop()
        if a is b:
            continue
        ta = type(a)
        if ta is not type(b):
            return False
        if ta is float:
            if a == b:
                if a == 0.0 and math.copysign(1.0, a) != math.copysign(1.0, b):
                    return False
                continue
            if a != a and b != b:  # NaN == NaN for cutoff purposes
                continue
            return False
        if ta is tuple:
            if len(a) != len(b):
                return False
            stack.extend(zip(a, b))
            continue
        tag = getattr(a, "tag", None)
        if tag is not None and hasattr(a, "arg"):
            # Constructor values, duck-typed so the runtime does not import
            # the interpreter layer: same tag, argument equal under these
            # rules.
            if tag != b.tag:
                return False
            stack.append((a.arg, b.arg))
            continue
        try:
            if a == b:
                continue
        except Exception:
            return False
        return False
    return True


class _DemandStaleRead(Exception):
    """Internal control flow for demand drains (never user-visible).

    A demand pass defers dirty reads outside the demanded cone, so a
    re-executed reader can reach a modifiable whose pending feeders were
    set aside -- a *stale* one.  Reading it anyway is hazardous: with
    ``keyed_mod`` identity recycling the stale structure can be *cyclic*,
    and a reader following the loop recurses to the interpreter limit
    instead of converging through re-dirtying.  :meth:`Engine.read`
    raises this when a suspect modifiable with no current reader path to
    the demand target is about to be read (and, as a backstop, when any
    modifiable is re-entered :data:`Engine.CYCLE_READ_DEPTH` reads deep);
    the drain undoes the partial re-execution transactionally, widens the
    relevance set so the stale feeders run first, and retries in
    timestamp order -- degrading to a full propagation if hazards exceed
    :data:`Engine.DEMAND_HAZARD_CAP`.
    """

    def __init__(self, mod: "Modifiable") -> None:
        self.mod = mod


class Engine:
    """One self-adjusting computation: a trace plus a change queue.

    An Engine owns a timestamp order, a priority queue of dirty read edges,
    memo tables, and instrumentation counters.  All primitives are methods,
    so independent computations (e.g. a benchmark and its verifier) never
    interfere.
    """

    #: Self-adjusting programs nest reader closures deeply (one level per
    #: list cell); CPython 3.11+ keeps pure-Python frames on the heap, so a
    #: high recursion limit is safe.  Override with the
    #: ``REPRO_RECURSION_LIMIT`` environment variable (deeper inputs need
    #: more; a :class:`RecursionReexecutionError` names the variable when
    #: the limit is hit anyway).
    RECURSION_LIMIT = 600_000

    #: bounds on the trace-record free-lists (see ``_edge_pool`` /
    #: ``_memo_pool`` in ``__init__``).
    EDGE_POOL_CAP = 8192
    MEMO_POOL_CAP = 8192

    #: how many reads deep the *same* modifiable may be re-entered during
    #: a demand drain before the engine concludes the reader is chasing
    #: stale cyclic structure and unwinds it (see
    #: :class:`_DemandStaleRead`).  Honest programs recurse through a
    #: *different* cell per read, so any small value works; 8 keeps a
    #: false positive implausible.
    CYCLE_READ_DEPTH = 8
    #: how many stale-read hazards one demand drain may unwind before it
    #: stops trusting relevance filtering and degrades to a full
    #: propagation (each unwind rebuilds a cone from scratch, so past
    #: this point the full pass is the cheaper sound option).
    DEMAND_HAZARD_CAP = 32

    def __init__(
        self,
        *,
        mode: str = "eager",
        feeds: Optional[str] = None,
        feeds_oracle: Optional[bool] = None,
    ) -> None:
        import os
        import sys

        if mode not in ("eager", "lazy"):
            raise ValueError(f'mode must be "eager" or "lazy", got {mode!r}')
        #: propagation mode.  ``"eager"`` (default): ``propagate`` drains
        #: the whole dirty queue.  ``"lazy"``: edits additionally mark the
        #: *suspect* cone (writer -> dependent reads -> enclosing mod
        #: destinations) so :meth:`demand` can re-execute only the dirty
        #: subgraph feeding one demanded output; a full ``propagate``
        #: still works and clears every suspect bit.
        self.mode = mode
        self.lazy = mode == "lazy"
        #: how lazy demand decides relevance (``"summary"``: maintained
        #: reverse-reachability bitsets, O(1) amortized per queue entry;
        #: ``"dfs"``: the retired per-demand memoized DFS, kept as the
        #: benchmark baseline and a fallback).  Selected per engine or via
        #: the ``REPRO_FEEDS`` environment variable; irrelevant to eager
        #: engines.
        if feeds is None:
            feeds = os.environ.get("REPRO_FEEDS") or "summary"
        if feeds not in ("summary", "dfs"):
            raise ValueError(f'feeds must be "summary" or "dfs", got {feeds!r}')
        self.feeds_impl = feeds
        #: differential debug oracle: every summary relevance verdict
        #: recomputes reachability from scratch and raises
        #: :class:`FeedsOracleError` on divergence.  ``REPRO_FEEDS_ORACLE=1``
        #: turns it on for chaos sweeps.
        if feeds_oracle is None:
            feeds_oracle = os.environ.get(
                "REPRO_FEEDS_ORACLE", ""
            ).lower() in ("1", "true", "yes", "on")
        self.feeds_oracle = bool(feeds_oracle)
        self._feeds_summary = self.lazy and feeds == "summary"
        #: union of the summary bitsets of every live dirty queue entry's
        #: destination (``UNIV`` for ``dest=None`` entries): the set of
        #: demand roots that pending work can still reach.  Maintained
        #: incrementally on dirty transitions (exact at rest, a sound
        #: over-approximation mid-drain) and reconciled against the queue
        #: at every drain exit.  A registered target whose root bit is
        #: absent here is provably clean -- that is the O(1) demand fast
        #: path.
        self._dirty_roots = 0
        #: whether ``_dirty_roots`` is currently exact (it is always a
        #: sound over-approximation; rewiring through *invalid* summaries
        #: can hide growth, in which case this flips False and relevance
        #: stops trusting "provably clean" until the next reconciliation).
        self._dirty_roots_exact = True
        self._next_root_bit = UNIV << 1
        #: edge-death invalidations queued while a summary demand drain is
        #: running (see :meth:`_note_edge_death`); flushed at drain exit.
        self._deferred_deaths: List[Modifiable] = []
        #: non-None exactly while a summary-impl demand drain runs: the
        #: drained targets' root bits ``| UNIV``, the mask a destination's
        #: summary is tested against for relevance.
        self._drain_mask: Optional[int] = None
        limit = self.RECURSION_LIMIT
        env_limit = os.environ.get("REPRO_RECURSION_LIMIT")
        if env_limit:
            limit = int(env_limit)
        self.recursion_limit = limit
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)
        #: allocation key -> its live keyed allocation site (an
        #: :class:`AllocSite` or a keyed :class:`MemoEntry`).  A site
        #: leaves the table when its stamp is deleted, so the table holds
        #: exactly the live sites.
        self.alloc_table: dict = {}
        self.order = Order()
        self.now: Stamp = self.order.base
        #: bound once: ``insert_after`` is the single hottest engine call.
        self._insert_after = self.order.insert_after
        #: propagation heap of ``(key, tiebreak, edge)`` entries.  Keys are
        #: snapshots of ``edge.start.key`` so heap sifts compare plain ints;
        #: when the order's epoch moves (a relabel changed some keys) the
        #: whole heap is re-keyed at once (see :meth:`_rekey_queue`).
        self.queue: List[Tuple[int, int, ReadEdge]] = []
        self._queue_epoch = self.order.epoch
        self._queue_seq = 0
        self._queue_peak = 0
        #: free-lists recycling discarded trace records (allocator churn is
        #: measurable during compaction-heavy propagation).  Recycling is
        #: disabled while an observability hook is attached: hooks name
        #: records by identity, which reuse would alias.
        self._edge_pool: List[ReadEdge] = []
        self._memo_pool: List[MemoEntry] = []
        self.edges_reused = 0
        self.memo_entries_reused = 0
        self.memo_table: dict = {}
        self.reuse_limit: Optional[Stamp] = None
        self.meter = Meter()
        self._mod_depth = 0
        self._reexec_depth = 0
        #: stack of enclosing ``mod`` destinations; the top is recorded on
        #: every read edge as its ``dest`` (the DDG node the read feeds).
        #: Maintained unconditionally -- it is two list operations per mod
        #: -- so a session can be switched to lazy inspection tooling
        #: without re-running, and so eager and lazy traces stay identical.
        self._dest_stack: List[Optional[Modifiable]] = []
        #: lazy mode: every modifiable whose suspect bit is currently set
        #: (for bulk clearing after a full propagation).
        self._suspect_mods: set = set()
        #: set on the first *in-run* imperative write (``:=``).  Imperative
        #: writes can reach modifiables outside their reader's destination
        #: cone, which demand's relevance filter cannot see before the
        #: reader runs; once one is observed, :meth:`demand` degrades to a
        #: full propagation (still correct, no longer lazy).
        self._has_imperative = False
        #: non-None exactly while a demand drain is re-executing: the
        #: the active demand drain's relevance memo (None outside demand
        #: drains), consulted by :meth:`read` to refuse reads of
        #: possibly-stale modifiables (see :class:`_DemandStaleRead`).
        self._drain_feeds: Optional[dict] = None
        #: generation for negative relevance verdicts (see :meth:`_feeds`);
        #: starts at 2 so a stored generation can never equal ``True``.
        self._drain_gen = 2
        #: id -> nesting count of modifiables currently being read inside
        #: the demand drain (cycle backstop).
        self._demand_reads: dict = {}
        self._demand_degrade = False
        self.propagating = False
        #: open ``batch()`` scopes; while positive, edits accumulate in the
        #: dirty queue and propagation runs once at the outermost exit.
        self._batch_depth = 0
        self._batch_changes = 0
        #: poisoning reason, or None while the engine is healthy.  Set when
        #: failure cleanup could not restore a consistent trace; every
        #: public operation then raises :class:`EnginePoisonedError`.
        self._poison: Optional[str] = None
        #: journal of ``(mod, old_value)`` pairs for every effective input
        #: edit staged since the last *complete* propagation; consumed by
        #: :meth:`rollback` to restore the last-good state after a failed
        #: propagation.
        self._edit_log: List[Tuple[Modifiable, Any]] = []
        self._journal_enabled = True
        #: Optional observability hook (see :mod:`repro.obs.events`).  When
        #: None -- the default -- every emission site costs one attribute
        #: check, keeping the hot path fast.
        self.hook: Optional[Any] = None

    def attach_hook(self, hook: Any) -> None:
        """Install an observability hook (a ``repro.obs.events.TraceHook``).

        The hook receives structured engine events (mod-create,
        read-start/end, write, memo-hit/miss, splice, discard,
        propagate-begin/end, ...).  Pass ``None`` to detach.  To install
        several hooks at once, wrap them in a
        :class:`repro.obs.events.FanoutHook`.
        """
        self.hook = hook
        if hook is not None:
            hook.on_attach(self)

    # ------------------------------------------------------------------
    # Failure model: poisoning and recovery (see DESIGN.md Section 7)

    @property
    def poisoned(self) -> bool:
        """Whether the engine has been poisoned (see :meth:`poison`)."""
        return self._poison is not None

    def poison(self, reason: str) -> None:
        """Mark the engine unusable: the trace can no longer be trusted.

        Called by the engine itself when failure cleanup cannot restore a
        consistent trace (and available to hosts that detect external
        corruption).  Afterwards every public operation raises
        :class:`EnginePoisonedError`; the only way forward is a rebuild on
        a fresh engine (``Session.propagate(on_error="rebuild")``).
        """
        if self._poison is None:
            self._poison = reason
            if self.hook is not None:
                try:
                    self.hook.on_poison(reason)
                except Exception:  # the hook must not mask the poisoning
                    pass

    def _check_usable(self) -> None:
        if self._poison is not None:
            raise EnginePoisonedError(
                f"engine is poisoned and refuses further work: {self._poison}",
                reason=self._poison,
            )

    def truncate_after(self, checkpoint: Stamp) -> bool:
        """Delete all trace after ``checkpoint`` and restore the cursor.

        The recovery primitive behind transactional initial runs: take
        ``checkpoint = engine.now`` before running new computation; if the
        run raises, ``truncate_after(checkpoint)`` retracts everything the
        partial run recorded, leaving the engine exactly as it was.
        Returns True when the cleanup succeeded; on an internal failure the
        engine poisons itself and returns False (never raises, so callers
        can re-raise the run's original exception).
        """
        try:
            self._delete_range(checkpoint, None)
            self.now = checkpoint
            self.meter.run_aborts += 1
            return True
        except BaseException as exc:  # cleanup itself failed: poison
            self.poison(
                f"trace truncation after a failed run raised {exc!r}"
            )
            return False

    # ------------------------------------------------------------------
    # Dirty queue

    def _enqueue(self, edge: ReadEdge) -> None:
        """Push a (just-dirtied) edge onto the propagation heap.

        Heap entries snapshot the start stamp's packed key.  Snapshots
        taken at different order epochs are not mutually comparable, so a
        pending epoch change re-keys the existing entries *before* the
        push -- afterwards every entry in the heap agrees with the current
        epoch again.
        """
        if self.order.epoch != self._queue_epoch:
            self._rekey_queue()
        seq = self._queue_seq + 1
        self._queue_seq = seq
        self.meter.queue_pushes += 1
        queue = self.queue
        heapq.heappush(queue, (edge.start.key, seq, edge))
        if len(queue) > self._queue_peak:
            self._queue_peak = len(queue)

    def _rekey_queue(self) -> None:
        """Rebuild every heap entry's key snapshot after a relabel.

        Dead entries are kept (their stale keys still form a total order,
        and dropping them here would skew the drain accounting); they are
        skipped and recycled when popped, as usual.
        """
        queue = self.queue
        for i, (_key, seq, edge) in enumerate(queue):
            queue[i] = (edge.start.key, seq, edge)
        heapq.heapify(queue)
        self._queue_epoch = self.order.epoch
        self.meter.queue_rekeys += 1

    # ------------------------------------------------------------------
    # Persistence hooks (see ``repro.persist``)

    def snapshot_precondition(self) -> None:
        """Raise unless the engine is in a serializable (quiescent) state.

        Quiescent means: no propagation, re-execution, batch, or ``mod``
        scope in flight, and not poisoned.  Staged-but-unpropagated edits
        (a non-empty dirty queue, suspect bits) are fine -- lazy sessions
        live in that state -- because the input cells already hold the
        edited values a checkpoint records.
        """
        from repro.persist.errors import SnapshotStateError

        if self._poison is not None:
            raise SnapshotStateError(f"engine is poisoned: {self._poison}")
        if (
            self.propagating
            or self._batch_depth
            or self._mod_depth
            or self._reexec_depth
            or self._dest_stack
            or self.reuse_limit is not None
        ):
            raise SnapshotStateError(
                "snapshot requires a quiescent engine (no propagation, "
                "batch, or mod scope in flight)"
            )

    # ------------------------------------------------------------------
    # Trace construction primitives

    def _advance(self) -> Stamp:
        stamp = self._insert_after(self.now)
        self.now = stamp
        return stamp

    def make_input(self, value: Any) -> Modifiable:
        """Create an input modifiable holding ``value``.

        Inputs are created outside the traced computation; change them with
        :meth:`change` and then call :meth:`propagate`.
        """
        self._check_usable()
        self.meter.mods_created += 1
        mod = Modifiable(value)
        if self.hook is not None:
            self.hook.on_mod_create(mod, True, False)
        return mod

    def mod(
        self,
        comp: Callable[[Modifiable], None],
        recycle: Optional[Modifiable] = None,
    ) -> Modifiable:
        """Run changeable computation ``comp`` into a fresh modifiable
        (``recycle``, if given: see :meth:`mod_begin`).

        ``comp`` receives the destination and must finish with a
        :meth:`write` to it (possibly inside nested reads).

        An *outermost* ``mod`` (no enclosing mod and not inside change
        propagation) is transactional: if ``comp`` raises, the partial
        trace it recorded is truncated back to the pre-call checkpoint
        before the exception propagates, so a failed initial run leaves
        the engine exactly as it was.  Failures inside propagation are
        handled by :meth:`propagate`'s transactional re-execution instead.
        """
        dest, checkpoint = self.mod_begin(None, recycle)
        try:
            comp(dest)
        except BaseException:
            self.mod_abort(dest, checkpoint)
            raise
        self.mod_end(dest, checkpoint)
        return dest

    def keyed_mod(self, key: Hashable, comp: Callable[[Modifiable], None]) -> Modifiable:
        """``mod`` with *keyed destination allocation* (AFL's "unsafe"
        low-level interface, paper Section 4.9).

        When a computation is re-executed, a plain ``mod`` allocates a fresh
        modifiable, so consumers holding the old one see an identity change
        even if the contents are equal.  ``keyed_mod`` recycles the
        modifiable previously allocated under ``key`` when that allocation
        site lies in the current reuse zone (i.e. is about to be
        discarded), so an equal re-write is a no-op and propagation cuts
        off.  The recycle continues at the old site exactly like a memo
        hit: the trace between the cursor and the site is discarded and
        the site's stamp is kept, so no stale copy of the site remains to
        be spliced back in later.  This is what makes merge-based
        algorithms' output spines identity-stable (see
        ``repro.bench.handwritten``'s keyed msort).

        Unlike ``memo``, the computation always re-runs; only the
        *identity* is reused.  The caller must ensure keys are unique among
        simultaneously live allocations (e.g. include the element value and
        an instance identifier); when a live allocation outside the reuse
        zone already holds the key, a fresh unkeyed modifiable is
        allocated instead, which is always sound.

        Like :meth:`mod`, an outermost ``keyed_mod`` is transactional: a
        raising ``comp`` truncates the partial trace (including this
        call's allocation stamp) back to the pre-call checkpoint.
        """
        dest, checkpoint = self.mod_begin(key)
        try:
            comp(dest)
        except BaseException:
            self.mod_abort(dest, checkpoint)
            raise
        self.mod_end(dest, checkpoint)
        return dest

    def read(self, mod: Modifiable, reader: Callable[[Any], None]) -> None:
        """Record a dependency on ``mod`` and run ``reader`` on its value.

        ``reader`` is changeable code: it will be re-executed (with the new
        value) whenever ``mod`` changes.
        """
        edge, value = self.read_begin(mod, reader)
        try:
            reader(value)
        except BaseException:
            self.read_abort(edge)
            raise
        self.read_end(edge)

    def write(self, dest: Modifiable, value: Any) -> None:
        """Write ``value`` into destination ``dest``.

        During re-execution, a write of an equal value is a no-op, which is
        what stops change propagation from cascading further than needed.
        """
        self.meter.writes += 1
        if dest.value is not UNWRITTEN and _values_equal(dest.value, value):
            if self.hook is not None:
                self.hook.on_write(dest, value, False)
            return
        dest.value = value
        self.meter.changed_writes += 1
        if self.hook is not None:
            self.hook.on_write(dest, value, True)
        if dest.readers:
            self._dirty_readers(dest)

    def impwrite(self, dest: Modifiable, value: Any) -> None:
        """Imperative update (translation of ``:=``, paper Figure 4).

        Inside a run, later reads (start stamp after the current time)
        become dirty while earlier reads keep the value they legitimately
        observed.  Outside any run it is an input change: all readers
        become dirty.
        """
        self._check_usable()
        self.meter.writes += 1
        if dest.value is not UNWRITTEN and _values_equal(dest.value, value):
            if self.hook is not None:
                self.hook.on_impwrite(dest, value, False, 0)
            return
        inside_run = self._mod_depth > 0 or self._reexec_depth > 0
        if inside_run:
            # An in-run imperative write can reach modifiables outside its
            # reader's destination cone, which lazy demand's relevance
            # filter cannot anticipate; record it so :meth:`demand`
            # degrades to a full propagation from here on.
            self._has_imperative = True
        if (
            self._journal_enabled
            and not inside_run
            and dest.value is not UNWRITTEN
        ):
            # An imperative write outside any run is an input edit; journal
            # it so rollback can restore the last-good state.
            self._edit_log.append((dest, dest.value))
        dest.value = value
        self.meter.changed_writes += 1
        now_key = self.now.key
        lazy = self.lazy
        summary = self._feeds_summary
        dirtied = 0
        for edge in list(dest.readers):
            if edge.dead or edge.dirty:
                continue
            if not inside_run or edge.start.key > now_key:
                edge.dirty = True
                self._enqueue(edge)
                dirtied += 1
                if lazy:
                    self._mark_suspect(edge.dest)
                    if summary:
                        d = edge.dest
                        self._dirty_roots |= (
                            UNIV if d is None else self._bits(d)
                        )
        if self.hook is not None:
            self.hook.on_impwrite(dest, value, True, dirtied)

    def _dirty_readers(self, mod: Modifiable) -> int:
        dirtied = 0
        lazy = self.lazy
        summary = self._feeds_summary
        # Dirtying never mutates the reader set, so no defensive copy.
        for edge in mod.readers:
            if not edge.dead and not edge.dirty:
                edge.dirty = True
                self._enqueue(edge)
                dirtied += 1
                if lazy:
                    # Invariant: a dirty live edge's destination chain is
                    # suspect.  An already-dirty edge was marked when it
                    # became dirty, and demand recomputes suspicion from
                    # the still-queued edges when it completes, so marking
                    # on the clean->dirty transition suffices.
                    self._mark_suspect(edge.dest)
                    if summary:
                        # Keep the dirty-roots union exact at edit time:
                        # the demand fast path reads it before any drain
                        # runs, so a conservative UNIV here would cost a
                        # full drain on a provably clean target.
                        d = edge.dest
                        self._dirty_roots |= (
                            UNIV if d is None else self._bits(d)
                        )
        return dirtied

    def _mark_suspect(self, mod: Optional[Modifiable]) -> None:
        """Mark ``mod`` and everything downstream of it suspect (lazy mode).

        Follows reader edges to their enclosing destinations, stopping at
        already-marked nodes, so a burst of edits costs time proportional
        to the newly suspect region rather than edits x depth.
        """
        if mod is None or mod.suspect:
            return
        suspect_mods = self._suspect_mods
        meter = self.meter
        hook = self.hook
        stack = [mod]
        pop = stack.pop
        while stack:
            d = pop()
            if d.suspect:
                continue
            d.suspect = True
            suspect_mods.add(d)
            meter.suspect_marks += 1
            if hook is not None:
                hook.on_dirty_mark(d)
            for edge in d.readers:
                if not edge.dead:
                    dest = edge.dest
                    if dest is not None and not dest.suspect:
                        stack.append(dest)

    def _refresh_suspects(self) -> None:
        """Recompute the suspect set from the queue (after a demand pass).

        Suspicion is sound only while it covers the upward reader-closure
        of every dirty live edge's destination.  A demand pass cannot
        simply clear the destinations it proved to feed its target: a mod
        can feed the target *and* still have a second, deferred dirty
        feeder whose cone was irrelevant to this demand -- clearing it
        would let a later demand fast-path a stale value.  So on
        completion the suspect set is recomputed exactly: the closure of
        the dests still queued dirty.  (A ``None`` dest feeds everything,
        so it pins the whole current set.)
        """
        roots = []
        for _key, _seq, edge in self.queue:
            if edge.dead or not edge.dirty:
                continue
            if edge.dest is None:
                return  # feeds everything: no suspicion can clear
            roots.append(edge.dest)
        closure: dict = {}
        stack = roots
        pop = stack.pop
        while stack:
            d = pop()
            if id(d) in closure:
                continue
            closure[id(d)] = d
            for edge in d.readers:
                if not edge.dead:
                    dest = edge.dest
                    if dest is not None and id(dest) not in closure:
                        stack.append(dest)
        for d in self._suspect_mods:
            if id(d) not in closure:
                d.suspect = False
        kept = set(closure.values())
        for d in kept:
            # A re-execution may have built a fresh reader chain over a
            # deferred dirty dest; its mods were clean when marked-on-dirty
            # ran, so (re)assert the bit for the whole closure.
            d.suspect = True
        self._suspect_mods = kept

    # ------------------------------------------------------------------
    # Maintained reverse-reachability summaries (lazy feeds="summary")
    #
    # Each modifiable carries ``fsum``, an int bitset of the demand roots
    # its value can flow into through live reader edges (bit 0 = UNIV =
    # "feeds a dest=None edge, i.e. everything"), plus ``fsum_valid`` and
    # a lazily allocated reverse index ``in_edges`` (live edges whose
    # ``dest`` is this modifiable -- its feeders).  The core invariant is
    # *invalid-closed-upstream*: whenever a summary is invalid, the
    # summaries of everything feeding it are invalid too.  Invalidation
    # therefore walks upstream with stop-at-invalid (amortized O(1) per
    # edge death), growth walks upstream monotonically, and revalidation
    # recomputes a whole invalid region -- which is downstream-closed by
    # the same invariant -- in one fixpoint on first query.  The result:
    # the drain loop's per-entry relevance check is a bitmask test against
    # ``_drain_mask`` instead of the per-demand DFS that ``feeds="dfs"``
    # still runs.

    def _note_new_edge(self, edge: ReadEdge) -> None:
        """Summary maintenance for a just-registered reader edge.

        The new edge makes ``edge.mod`` feed ``edge.dest``: register the
        reverse index entry and grow the upstream summaries by whatever
        ``dest`` reaches that ``mod`` did not already.  When ``dest``'s
        own summary is invalid its reach is unknown, so ``mod``'s cone
        is invalidated instead (the recompute will see this edge).
        """
        m = edge.mod
        d = edge.dest
        if d is None:
            if m.fsum_valid and not m.fsum & UNIV:
                self._grow_upstream(m, UNIV)
                # A queued dirty dest upstream of m just gained UNIV; keep
                # the dirty-roots union a superset until reconciliation.
                self._dirty_roots |= UNIV
            return
        ie = d.in_edges
        if ie is None:
            d.in_edges = {edge}
        else:
            ie.add(edge)
        if d.fsum_valid:
            if m.fsum_valid:
                add = d.fsum & ~m.fsum
                if add:
                    self._grow_upstream(m, add)
                    # Every upstream dest's summary grew by a subset of
                    # ``add``: OR it in so _dirty_roots stays a superset
                    # of every queued dirty dest's summary mid-rewiring.
                    self._dirty_roots |= add
            else:
                # m invalid: everything upstream is invalid too
                # (invalid-closed-upstream), so the recompute covers this
                # edge -- but the growth it will reveal is invisible to
                # the dirty-roots union now.
                self._dirty_roots_exact = False
        else:
            # d's reach is unknown, so any growth through this edge is
            # unknowable until recomputation.
            self._dirty_roots_exact = False
            if m.fsum_valid:
                self._invalidate_upstream(m)

    def _note_edge_death(self, edge: ReadEdge) -> None:
        """Summary maintenance for an edge about to be discarded.

        Must run before the edge's ``mod``/``dest`` fields are cleared.
        Removing a ``mod -> dest`` flow can only shrink upstream
        summaries, so they are invalidated (lazily recomputed on next
        query).  Skipped when the edge provably contributed nothing:
        ``mod`` already invalid (upstream already invalid) or reaching
        nothing, or a valid ``dest`` reaching nothing -- which keeps
        initial-run splicing free of summary churn before any root
        exists.

        During a demand drain the invalidation is *deferred* to drain
        exit: relevance must be monotone non-shrinking within one drain.
        A re-execution can splice out the very edges that connected an
        as-yet-unpopped dirty entry to the demanded cone (the retry round
        will rebuild them); shrinking its verdict mid-drain would defer
        the entry past later relevant re-executions, and their readers
        would then consume values the entry was supposed to refresh
        first.  The retired DFS got this monotonicity for free from its
        never-retracted positive memo; the summaries get it by letting
        bits only grow until the drain is over.
        """
        d = edge.dest
        if d is not None:
            ie = d.in_edges
            if ie is not None:
                ie.discard(edge)
        m = edge.mod
        if m is not None and m.fsum_valid and m.fsum:
            if d is None or not d.fsum_valid or d.fsum:
                if self._drain_mask is not None:
                    self._deferred_deaths.append(m)
                else:
                    self._invalidate_upstream(m)

    def _grow_upstream(self, mod: Modifiable, add: int) -> None:
        """OR ``add`` into ``mod``'s summary and its valid upstream cone.

        Monotone: stops where the bits are already present (or at invalid
        nodes, whose summaries will be recomputed from scratch anyway and
        whose upstream is invalid too).  Because a demand root's bits only
        shrink through invalidation, growth never needs to revisit.
        """
        meter = self.meter
        stack = [(mod, add)]
        pop = stack.pop
        while stack:
            u, b = pop()
            if not u.fsum_valid:
                continue
            nb = b & ~u.fsum
            if not nb:
                continue
            u.fsum |= nb
            meter.feeds_updates += 1
            ie = u.in_edges
            if ie:
                for e in ie:
                    if not e.dead and e.mod is not None:
                        stack.append((e.mod, nb))

    def _invalidate_upstream(self, mod: Modifiable) -> None:
        """Invalidate ``mod``'s summary and everything feeding it.

        Stop-at-invalid keeps this amortized: a node is invalidated at
        most once per revalidation, and the invariant that invalid nodes
        have invalid upstream makes the early stop sound.
        """
        meter = self.meter
        stack = [mod]
        pop = stack.pop
        while stack:
            u = pop()
            if not u.fsum_valid:
                continue
            u.fsum_valid = False
            meter.feeds_updates += 1
            ie = u.in_edges
            if ie:
                for e in ie:
                    if not e.dead and e.mod is not None:
                        stack.append(e.mod)

    def _bits(self, mod: Modifiable) -> int:
        """Current summary bitset of ``mod``, recomputing if invalid."""
        if mod.fsum_valid:
            self.meter.feeds_hits += 1
            return mod.fsum
        self._recompute_region(mod)
        return mod.fsum

    def _recompute_region(self, start: Modifiable) -> None:
        """Revalidate the invalid region reachable downstream of ``start``.

        By invalid-closed-upstream, every path from ``start`` to another
        invalid node runs through invalid nodes only, so the region is
        discovered by following reader edges and stopping at valid nodes
        (the *frontier*, whose summaries are trusted as-is).  Each region
        node is seeded with its own root bit plus UNIV for ``dest=None``
        edges plus the frontier contributions, then an OR-fixpoint closes
        the region -- exact even on the cyclic stale structure that
        ``keyed_mod`` identity recycling can create.
        """
        region: List[Modifiable] = []
        seen = set()
        stack = [start]
        pop = stack.pop
        while stack:
            n = pop()
            i = id(n)
            if i in seen or n.fsum_valid:
                continue
            seen.add(i)
            region.append(n)
            for e in n.readers:
                if not e.dead:
                    d = e.dest
                    if d is not None and not d.fsum_valid and id(d) not in seen:
                        stack.append(d)
        for n in region:
            b = n.root_bit
            for e in n.readers:
                if e.dead:
                    continue
                d = e.dest
                if d is None:
                    b |= UNIV
                elif d.fsum_valid:
                    b |= d.fsum
            n.fsum = b
        changed = True
        while changed:
            changed = False
            # Discovery pushed downstream nodes later, so sweeping the
            # region in reverse moves bits a whole chain per pass instead
            # of one hop (deep chains would otherwise cost O(n^2)).
            for n in reversed(region):
                b = n.fsum
                for e in n.readers:
                    if e.dead:
                        continue
                    d = e.dest
                    if d is not None and not d.fsum_valid:
                        b |= d.fsum
                if b != n.fsum:
                    n.fsum = b
                    changed = True
        for n in region:
            n.fsum_valid = True
        self.meter.feeds_recomputes += len(region)

    def _register_root(self, t: Modifiable) -> None:
        """Make ``t`` a demand root: assign its bit and seed it upstream.

        The fresh bit is stamped into every *valid* summary upstream of
        ``t`` (stop-at-marked: the bit is new, so "already present" means
        "already visited").  Invalid nodes are skipped -- their upstream
        is invalid too, and recomputation derives the bit from
        ``t.root_bit`` directly.
        """
        bit = self._next_root_bit
        self._next_root_bit = bit << 1
        t.root_bit = bit
        meter = self.meter
        meter.feeds_roots += 1
        stack = [t]
        pop = stack.pop
        while stack:
            n = pop()
            if not n.fsum_valid or n.fsum & bit:
                continue
            n.fsum |= bit
            meter.feeds_updates += 1
            ie = n.in_edges
            if ie:
                for e in ie:
                    if not e.dead and e.mod is not None:
                        stack.append(e.mod)

    def _reconcile_dirty_roots(self) -> int:
        """Recompute ``_dirty_roots`` exactly from the live dirty queue.

        Runs at every drain exit (including budget/deadline/hazard exits):
        mid-drain rewiring keeps the incremental union a sound
        over-approximation, and this O(queue) scan restores exactness so
        the demand fast path and targeted suspect clearing can trust it.
        Returns the number of live dirty entries.
        """
        bits = 0
        ndirty = 0
        for _key, _seq, edge in self.queue:
            if edge.dead or not edge.dirty:
                continue
            ndirty += 1
            d = edge.dest
            bits |= UNIV if d is None else self._bits(d)
        self._dirty_roots = bits
        self._dirty_roots_exact = True
        return ndirty

    def _suspectish(self, mod: Modifiable) -> bool:
        """Whether ``mod`` may be stale (summary impl).

        The raw ``suspect`` flag is a sound over-approximation for
        unregistered modifiables, but a registered root's flag can be
        stale-False: a later edit's suspect-marking walk stops at
        still-flagged nodes, so a cleared root below them is not
        re-flagged.  ``_dirty_roots`` is authoritative for registered
        roots, so OR it in.
        """
        if mod.suspect:
            return True
        rb = mod.root_bit
        if not rb:
            return False
        if not self._dirty_roots_exact:
            # The union may be missing bits; do not trust a miss.
            return True
        return bool(self._dirty_roots & (rb | UNIV))

    def _dest_relevant(self, dest: Optional[Modifiable], feeds: dict) -> bool:
        """Summary-impl relevance: does ``dest`` feed a demanded target?

        O(1) amortized: a bitmask test against the drained targets' root
        bits (``_drain_mask``).  The overlay ``feeds`` dict holds the
        drain's *widened* positives (hazard unwinds, pre-scan widening);
        when non-empty, the legacy DFS runs over it so widening semantics
        are unchanged -- its verdict generations and round restarts
        operate on the overlay exactly as under ``feeds="dfs"``.
        """
        if dest is None:
            return True
        verdict = bool(self._bits(dest) & self._drain_mask)
        if not verdict and feeds:
            verdict = self._feeds(dest, feeds)
        if self.feeds_oracle:
            self._oracle_check(dest)
        return verdict

    def _reference_bits(self, start: Modifiable) -> int:
        """Exact summary recomputed from scratch (oracle only)."""
        b = start.root_bit
        seen = {id(start)}
        stack = [start]
        pop = stack.pop
        while stack:
            n = pop()
            for e in n.readers:
                if e.dead:
                    continue
                d = e.dest
                if d is None:
                    b |= UNIV
                elif id(d) not in seen:
                    seen.add(id(d))
                    b |= d.root_bit
                    stack.append(d)
        return b

    def _oracle_check(self, mod: Modifiable) -> None:
        """Assert ``mod``'s maintained summary matches the exact one.

        Mid-drain, edge-death invalidations are deferred for relevance
        monotonicity, so the maintained bits are allowed to be a superset
        of the exact reachability; at rest they must be equal.
        """
        got = self._bits(mod)
        ref = self._reference_bits(mod)
        if got != ref and (
            self._drain_mask is None or (got | ref) != got
        ):
            raise FeedsOracleError(
                f"maintained feeds summary diverged on {mod!r}: "
                f"maintained {got:#x}, exact {ref:#x} "
                f"(roots registered: {self.meter.feeds_roots})"
            )

    def _oracle_check_clean(self, t: Modifiable) -> None:
        """Assert the O(1) "provably clean" fast-path verdict for root ``t``:
        no live dirty queue entry's destination actually reaches it."""
        mask = t.root_bit | UNIV
        for _key, _seq, edge in self.queue:
            if edge.dead or not edge.dirty:
                continue
            d = edge.dest
            if d is None or self._reference_bits(d) & mask:
                raise FeedsOracleError(
                    f"demand fast path judged {t!r} clean, but dirty "
                    f"entry {edge!r} reaches it (dirty_roots "
                    f"{self._dirty_roots:#x}, root bit {t.root_bit:#x})"
                )

    # ------------------------------------------------------------------
    # Memoization

    def memo(self, key: Hashable, thunk: Callable[[], Any]) -> Any:
        """Memoized evaluation of ``thunk`` under ``key``.

        On a *hit* (a live entry for ``key`` whose interval lies inside the
        current reuse zone) the old sub-trace is spliced in and the stored
        result returned without recomputation.  Otherwise ``thunk`` runs and
        its interval and result are recorded.
        """
        hit, result, entry = self.memo_probe(key)
        if hit:
            return result
        result = thunk()
        self.memo_commit(entry, result)
        return result

    # ------------------------------------------------------------------
    # Split primitives: the one implementation of ``read`` and ``mod``
    #
    # Each primitive is a begin half, which does everything before the
    # body callback, and an end half (body returned) or abort half (body
    # raised).  ``read``, ``mod``, ``keyed_mod`` and ``memo`` above are
    # thin wrappers that call the body between the halves; the
    # stack-machine backend (:mod:`repro.compile.stackmachine`) calls the
    # halves directly and interleaves them with its own dispatch, so an
    # explicit control stack replaces host recursion.  Both shapes thus
    # share every stamp, meter, hook emission and hazard check.

    def read_begin(
        self, mod: Modifiable, reader: Callable[[Any], None]
    ) -> Tuple[ReadEdge, Any]:
        """First half of :meth:`read`: register the edge, return its value.

        Performs everything up to (but excluding) the ``reader(value)``
        callback: hazard checks, start stamp, edge allocation and
        registration, meters, hooks, and the demand-drain depth count.  The
        caller must execute the reader body itself and finish with
        :meth:`read_end` (success) or :meth:`read_abort` (exception
        unwinding).
        """
        if self._mod_depth == 0 and self._reexec_depth == 0:
            raise ReadOutsideModError("read outside the scope of any mod")
        value = mod.value
        if value is UNWRITTEN:
            raise UnwrittenModError("read of an unwritten modifiable")
        drain_feeds = self._drain_feeds
        if drain_feeds is not None:
            # Demand-drain hazard checks (see :class:`_DemandStaleRead`).
            # A suspect modifiable outside the demand's relevance cone may
            # be arbitrarily stale -- and stale structure can be *cyclic*
            # (keyed allocation recycles identities), in which case
            # following it diverges rather than converging through
            # re-dirtying.  Refuse the read and let the drain widen the cone
            # so the feeders run first.  The depth count is the backstop
            # for a reader that slipped past the refusal and is chasing a
            # loop anyway.
            if self._drain_mask is not None:
                if self._suspectish(mod) and not self._dest_relevant(
                    mod, drain_feeds
                ):
                    raise _DemandStaleRead(mod)
            elif mod.suspect and not self._feeds(mod, drain_feeds):
                raise _DemandStaleRead(mod)
            if self._demand_reads.get(id(mod), 0) >= self.CYCLE_READ_DEPTH:
                raise _DemandStaleRead(mod)
        start = self.now = self._insert_after(self.now)
        dest_stack = self._dest_stack
        dest = dest_stack[-1] if dest_stack else None
        pool = self._edge_pool
        if pool:
            edge = pool.pop()
            edge.mod = mod
            edge.reader = reader
            edge.start = start
            edge.end = None
            edge.dest = dest
            edge.dirty = False
            edge.dead = False
            self.edges_reused += 1
        else:
            edge = ReadEdge(mod, reader, start, dest)
        start.owner = edge
        mod.readers.add(edge)
        if self._feeds_summary:
            self._note_new_edge(edge)
        meter = self.meter
        meter.reads_executed += 1
        meter.live_edges += 1
        if self.hook is not None:
            self.hook.on_read_start(edge)
        if drain_feeds is not None:
            # Depth-count this read for the cycle backstop above.  Every mod
            # is counted, not just suspect ones: a stale loop can pass
            # through recycled cells that sit on no dirty dest chain.
            reads = self._demand_reads
            rkey = id(mod)
            reads[rkey] = reads.get(rkey, 0) + 1
        return edge, value

    def read_end(self, edge: ReadEdge) -> None:
        """Second half of :meth:`read`: the reader body completed normally."""
        if self._drain_feeds is not None:
            reads = self._demand_reads
            rkey = id(edge.mod)
            depth = reads[rkey] - 1
            if depth:
                reads[rkey] = depth
            else:
                del reads[rkey]
        # A leaf read -- its body recorded nothing -- closes on its own
        # start stamp: an empty interval costs no end stamp.
        now = self.now
        if now is not edge.start:
            now = self.now = self._insert_after(now)
        edge.end = now
        if self.hook is not None:
            self.hook.on_read_end(edge)

    def read_abort(self, edge: ReadEdge) -> None:
        """Unwind half of :meth:`read`: the reader body raised.

        Only the demand-drain depth count is released -- no end stamp, no
        hook.  Trace surgery is owned by the enclosing transaction
        (outermost :meth:`mod` truncation or ``_unwind_reexec``).
        """
        if self._drain_feeds is not None:
            reads = self._demand_reads
            rkey = id(edge.mod)
            depth = reads.get(rkey, 0) - 1
            if depth > 0:
                reads[rkey] = depth
            elif depth == 0:
                del reads[rkey]

    def mod_begin(
        self,
        key: Optional[Hashable] = None,
        recycle: Optional[Modifiable] = None,
    ) -> Tuple[Modifiable, Optional[Stamp]]:
        """First half of :meth:`mod` and :meth:`keyed_mod`: allocate the
        destination.

        Returns ``(dest, checkpoint)``; ``checkpoint`` is non-None exactly
        when this is an *outermost* mod (no enclosing mod, not inside
        propagation), in which case the caller must pass it back to
        :meth:`mod_end`/:meth:`mod_abort` so a failed body truncates the
        partial trace.  With a ``key``, the destination is allocated as
        :meth:`keyed_mod` describes: a fresh one gets an allocation stamp
        (after the checkpoint) anchoring an :class:`AllocSite` under
        ``key``.  ``recycle`` is the modifiable a keyed memo miss handed
        over (see :meth:`memo_probe`); the callee's opening mod reuses it
        instead of allocating.
        """
        if self._poison is not None:
            self._check_usable()
        checkpoint = (
            self.now
            if self._mod_depth == 0 and self._reexec_depth == 0
            else None
        )
        if key is None:
            if recycle is None:
                dest = Modifiable()
                self.meter.mods_created += 1
            else:
                dest = recycle
            if self.hook is not None:
                self.hook.on_mod_create(dest, False, recycle is not None)
        else:
            site = self.alloc_table.get(key)
            recycled = self._continue_at(site, AllocSite)
            if recycled:
                dest = site.result
            else:
                dest = Modifiable()
                self.meter.mods_created += 1
            if self.hook is not None:
                self.hook.on_mod_create(dest, False, recycled)
            if site is None:
                stamp = self._advance()
                stamp.owner = self.alloc_table[key] = AllocSite(key, dest, stamp)
        self._mod_depth += 1
        self._dest_stack.append(dest)
        return dest, checkpoint

    def mod_end(
        self, dest: Modifiable, checkpoint: Optional[Stamp]
    ) -> None:
        """Second half of :meth:`mod`: the body completed normally."""
        if dest.value is UNWRITTEN:
            # The outermost transaction truncates before the depth/dest
            # bookkeeping unwinds, as in :meth:`mod_abort`.
            if checkpoint is not None:
                self.truncate_after(checkpoint)
            self._mod_depth -= 1
            self._dest_stack.pop()
            raise UnwrittenModError("mod body finished without writing")
        self._mod_depth -= 1
        self._dest_stack.pop()

    def mod_abort(
        self, dest: Modifiable, checkpoint: Optional[Stamp]
    ) -> None:
        """Unwind half of :meth:`mod`: the body raised."""
        if checkpoint is not None:
            self.truncate_after(checkpoint)
        self._mod_depth -= 1
        self._dest_stack.pop()

    def memo_probe(
        self,
        key: Hashable,
        alloc_key: Optional[Callable[[Any], Hashable]] = None,
        frame: Any = None,
    ) -> Tuple[bool, Any, Optional[MemoEntry]]:
        """First half of :meth:`memo`: look up ``key``, splice on a hit.

        Returns ``(True, result, None)`` on a hit (the old sub-trace is
        already spliced in) or ``(False, None, entry)`` on a miss, in
        which case the caller must run the thunk body and finish with
        :meth:`memo_commit`.  If the body raises, no cleanup call is
        needed: the entry's open interval is reclaimed by the enclosing
        transaction's truncation.

        ``alloc_key`` asks for *keyed allocation* of the callee's result:
        the caller promises that the body's first mod is the modifiable it
        returns (``repro.core.sxmlutil.opening_mod``).  On a miss --
        and only then, so a hit costs no key -- ``alloc_key(frame)``
        computes the allocation key, and the entry's start stamp becomes
        that allocation's site, recorded in ``alloc_table`` under the
        key.  When the table names a site
        inside the reuse zone, the miss continues at it instead, like a
        memo hit: the trace between the cursor and the site is
        discarded, and the site's entry is re-keyed and returned open
        with ``entry.result`` holding the old modifiable, which the caller
        passes to the body's opening ``mod_begin(recycle=...)``.  A key
        whose site is live elsewhere allocates unkeyed.
        """
        self._check_usable()
        entries = self.memo_table.get(key)
        limit = self.reuse_limit
        if entries is not None and limit is not None:
            # Every bucket entry is live and committed (dead ones leave in
            # ``_delete_range``); the first in insertion order inside the
            # reuse zone is the hit.
            now_key = self.now.key
            limit_key = limit.key
            for hit in entries:
                if now_key < hit.start.key and hit.end.key <= limit_key:
                    if self.hook is not None:
                        self.hook.on_memo_hit(hit)
                    self._delete_range(self.now, hit.start)
                    self.now = hit.end
                    self.meter.memo_hits += 1
                    if self.hook is not None:
                        self.hook.on_splice(hit)
                    return True, hit.result, None
        self.meter.memo_misses += 1
        if self.hook is not None:
            self.hook.on_memo_miss(key)
        # Eager engines only: on lazy ones keyed allocation changes which
        # trace a demand re-executes, and that hides -- without fixing --
        # the stale-demand defect of the summary relevance filter, which
        # ``perfbench/test_canary.py`` pins as an expected failure.
        # Replacing that filter lifts this condition.
        akey = None if alloc_key is None or self.lazy else alloc_key(frame)
        if akey is not None:
            site = self.alloc_table.get(akey)
            if site is not None:
                if self._continue_at(site, MemoEntry):
                    # Reopen the site's entry under this call's key.
                    bucket = self.memo_table[site.key]
                    if len(bucket) == 1:
                        del self.memo_table[site.key]
                    else:
                        bucket.remove(site)
                    site.key = key
                    site.end = None
                    return False, None, site
                akey = None  # the key's site is live elsewhere
        start = self.now = self._insert_after(self.now)
        pool = self._memo_pool
        if pool:
            entry = pool.pop()
            entry.key = key
            entry.result = None
            entry.start = start
            entry.end = None
            entry.dead = False
            self.memo_entries_reused += 1
        else:
            entry = MemoEntry(key, start)
        start.owner = entry
        if akey is not None:
            entry.akey = akey
            self.alloc_table[akey] = entry
        self.meter.live_memo_entries += 1
        return False, None, entry

    def _continue_at(self, site: Any, kind: type) -> bool:
        """Recycle ``site``, an ``alloc_table`` entry, if it is a ``kind``
        record inside the reuse zone: continue at it as a memo hit would,
        discarding the trace between the cursor and the site and moving
        the cursor onto the site's stamp, which then serves the new
        allocation.  Keeping no second copy of the site is what stops a
        later splice from bringing the old one back."""
        limit = self.reuse_limit
        if (
            type(site) is not kind
            or limit is None
            or not self.now.key < site.start.key <= limit.key
        ):
            return False
        self._delete_range(self.now, site.start)
        self.now = site.start
        return True

    def memo_commit(self, entry: MemoEntry, result: Any) -> None:
        """Second half of :meth:`memo`: record the thunk's result."""
        entry.end = self.now = self._insert_after(self.now)
        entry.result = result
        self.memo_table.setdefault(entry.key, []).append(entry)

    # ------------------------------------------------------------------
    # Changes and propagation

    def change(self, mod: Modifiable, value: Any) -> int:
        """Change an input modifiable (between propagations).

        Returns the number of read edges the change dirtied (0 when the new
        value equals the old one and the edit cuts off immediately).  This
        is the uniform return convention of every edit entry point
        (``Session.edit`` and the ``ModList`` handles): stage the change,
        report the dirtied reads, and leave propagation to an explicit
        :meth:`propagate` call or an enclosing :meth:`batch`.

        Every effective edit is journaled until the next complete
        propagation, so :meth:`rollback` can restore the last-good input
        state after a failed propagation.
        """
        self._check_usable()
        if _values_equal(mod.value, value):
            if self.hook is not None:
                self.hook.on_change(mod, value, False)
            return 0
        if self._journal_enabled:
            self._edit_log.append((mod, mod.value))
        mod.value = value
        if self._batch_depth:
            self._batch_changes += 1
        if self.hook is not None:
            self.hook.on_change(mod, value, True)
        return self._dirty_readers(mod)

    def batch(self, *, budget: Optional[int] = None,
              deadline: Optional[float] = None) -> "Batch":
        """Open a batched-edit scope: many changes, one propagation pass.

        Usage::

            with engine.batch() as b:
                engine.change(m1, 5)
                engine.change(m2, 7)
            b.reexecuted  # reads re-executed by the single pass

        Inside the scope, edits only accumulate dirty reads; the outermost
        exit runs one :meth:`propagate`.  A read that observed several of
        the changed inputs therefore re-executes *once*, where separate
        change/propagate cycles would re-execute it once per edit -- this
        per-read deduplication is where batched propagation wins
        asymptotically on overlapping edits (see
        ``benchmarks/bench_batch_propagate.py``).

        Nested ``batch()`` scopes coalesce into the outermost one.  If the
        body raises, nothing is propagated (the dirty queue keeps the edits
        staged, so a later ``propagate`` still applies them).  ``budget``
        and ``deadline`` are forwarded to the closing :meth:`propagate`.

        On a lazy engine (``mode="lazy"``) the scope stages its edits
        without a closing propagation -- the drain is deferred to the next
        :meth:`demand` / :meth:`propagate`, where any budget/deadline
        applies.  ``b.reexecuted`` is then 0 by construction.
        """
        return Batch(self, budget=budget, deadline=deadline)

    def change_many(
        self,
        changes: Iterable[Tuple[Modifiable, Any]],
        *,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Apply ``(mod, value)`` edits and propagate once; return the
        number of reads re-executed by the single coalesced pass."""
        with self.batch(budget=budget, deadline=deadline) as b:
            for mod, value in changes:
                self.change(mod, value)
        return b.reexecuted

    @gc_paused
    def propagate(
        self,
        *,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Run change propagation to completion.

        Returns the number of read edges re-executed.  After propagation the
        outputs of the computation are up to date with all changes made via
        :meth:`change` / :meth:`impwrite`.

        ``budget`` caps the number of read re-executions and ``deadline``
        the wall-clock seconds this call may spend; when either limit is
        reached with real work still queued, the call stops *between*
        re-executions and raises :class:`PropagationBudgetExceeded`.  The
        trace stays consistent and the remaining dirty reads stay queued,
        so a later ``propagate`` resumes where this one stopped.  The
        limits guard long-lived instances against pathological edit
        sequences that would otherwise propagate for unbounded time.

        Re-execution is *transactional*: if a reader raises, the engine
        splices the edge's whole interval back out (the partially rebuilt
        new trace together with the not-yet-reused old trace), restores
        the cursor, re-queues the edge as dirty, and raises a
        :class:`ReexecutionError` (a :class:`RecursionReexecutionError`
        for stack overflows) wrapping the original exception.  The trace
        stays structurally consistent -- retry, :meth:`rollback`, or
        rebuild -- unless the abort cleanup itself fails, in which case
        the engine poisons itself (``consistent=False`` on the error) and
        refuses further work with :class:`EnginePoisonedError`.

        The cyclic collector is paused for the call
        (:func:`repro.sac.gcpause.gc_paused`), as it is for :meth:`demand`.
        """
        self._check_usable()
        if self._batch_depth:
            raise PropagationError("propagate called inside an open batch()")
        if self.propagating:
            raise PropagationError("propagate is not reentrant")
        self.propagating = True
        hook = self.hook
        if hook is not None:
            hook.on_propagate_begin(len(self.queue))
        try:
            reexecuted = self._drain(budget, deadline, False, None)
        except BaseException:
            # Mid-drain rewiring can outgrow the incremental dirty-roots
            # union; restore exactness before handing control back with
            # work still queued.
            if self._feeds_summary:
                self._reconcile_dirty_roots()
            raise
        finally:
            self.propagating = False
        # A complete pass leaves the outputs consistent with all inputs:
        # this is the new last-good state, so the rollback journal resets
        # and (in lazy mode) every suspect bit clears.
        self._edit_log = []
        self._dirty_roots = 0
        self._dirty_roots_exact = True
        if self._suspect_mods:
            for d in self._suspect_mods:
                d.suspect = False
            self._suspect_mods.clear()
        if hook is not None:
            hook.on_propagate_end(reexecuted)
        return reexecuted

    @gc_paused
    def demand(
        self,
        mod: Union[Modifiable, Sequence[Modifiable]],
        *,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Any:
        """Bring modifiable(s) up to date and return the value(s) (lazy mode).

        The demand-driven half of ``mode="lazy"``: re-executes, in
        timestamp order, exactly the dirty reads whose enclosing
        destination chain feeds the demanded target(s); everything else
        stays dirty (its cone suspect) for a later demand or
        :meth:`propagate`.  A modifiable whose suspect bit is clear is
        served with zero propagation work -- that is the
        many-edits-few-reads win.

        ``mod`` may be a single :class:`Modifiable` (returns its value) or
        a sequence of them (returns a list of values, in order).  A
        multi-target demand drains all targets in *one*
        reachability-filtered pass: the relevance cone is seeded with
        every target, so shared feeders re-execute once instead of once
        per target and one timestamp sweep serves the whole read batch.

        ``budget`` / ``deadline`` behave as in :meth:`propagate`: on
        overrun the call raises :class:`PropagationBudgetExceeded` between
        re-executions, with all remaining work still queued *and every
        suspect bit still set*, so an interrupted demand can never cause a
        later one to serve a stale value.

        Programs that performed in-run imperative writes (``:=``) degrade
        to a full :meth:`propagate`: an imperative write can reach
        modifiables outside its reader's destination cone, which the
        relevance filter cannot see before the reader runs.  This keeps
        demand sound for the full language; the pure fragment (every
        registered benchmark app) gets the real demand-driven walk.
        """
        self._check_usable()
        if not self.lazy:
            raise PropagationError(
                'demand requires an engine in lazy mode (Engine(mode="lazy"))'
            )
        if self._batch_depth:
            raise PropagationError("demand called inside an open batch()")
        if self.propagating:
            raise PropagationError("demand is not reentrant with propagation")
        single = isinstance(mod, Modifiable)
        targets: Tuple[Modifiable, ...] = (mod,) if single else tuple(mod)
        if not targets:
            raise PropagationError("demand of an empty target sequence")
        for t in targets:
            if not isinstance(t, Modifiable):
                raise TypeError(
                    f"demand target must be a Modifiable, got {type(t).__name__}"
                )
            if t.value is UNWRITTEN:
                raise UnwrittenModError("demand of an unwritten modifiable")
        meter = self.meter
        meter.demands += len(targets)
        if self._has_imperative:
            self.propagate(budget=budget, deadline=deadline)
            if single:
                return targets[0].value
            return [t.value for t in targets]
        hook = self.hook
        if self._feeds_summary:
            if not self._dirty_roots_exact:
                # Rewiring outside a drain (e.g. keyed_mod recycling in a
                # fresh run) can leave the union inexact; the fast path
                # below needs exactness.
                self._reconcile_dirty_roots()
            suspect = []
            dr = self._dirty_roots
            for t in targets:
                rb = t.root_bit
                if rb:
                    # Registered root: the maintained dirty-roots union is
                    # authoritative -- O(1), exact at rest -- where the raw
                    # flag can linger True (sibling cones) or go
                    # stale-False (cleared root below a still-flagged
                    # node stops a later marking walk early).
                    if dr & (rb | UNIV):
                        if not t.suspect:
                            t.suspect = True
                            self._suspect_mods.add(t)
                        suspect.append(t)
                    else:
                        if self.feeds_oracle:
                            self._oracle_check_clean(t)
                        if t.suspect:
                            t.suspect = False
                            self._suspect_mods.discard(t)
                elif t.suspect:
                    suspect.append(t)
        else:
            suspect = [t for t in targets if t.suspect]
        meter.demands_clean += len(targets) - len(suspect)
        if not suspect:
            if hook is not None:
                for t in targets:
                    hook.on_demand_begin(t, len(self.queue))
                    hook.on_demand_end(t, 0)
            if single:
                return targets[0].value
            return [t.value for t in targets]
        self.propagating = True
        if hook is not None:
            for t in targets:
                hook.on_demand_begin(t, len(self.queue))
        started = None if deadline is None else time.monotonic()
        if self._feeds_summary:
            # Relevance is the drained targets' root bits (| UNIV) tested
            # against maintained summaries; ``feeds`` starts empty and
            # only ever holds widened positives (hazards, pre-scans).
            fresh = [t for t in suspect if not t.root_bit]
            for t in fresh:
                self._register_root(t)
            if fresh:
                # Queued dirty dests may now carry the new bits.
                self._reconcile_dirty_roots()
            mask = UNIV
            for t in suspect:
                mask |= t.root_bit
            self._drain_mask = mask
            feeds: dict = {}
        else:
            # Every target seeds the relevance memo positively, so the
            # drain's _feeds checks treat "reaches any target" as relevant.
            feeds = {t: True for t in targets}
        try:
            reexecuted = self._drain(budget, deadline, True, feeds)
        except BaseException:
            # Budget/deadline/hazard exits leave work queued; restore the
            # exact dirty-roots union before handing back (the stash was
            # merged back by _drain's finally).
            if self._feeds_summary:
                self._reconcile_dirty_roots()
            raise
        finally:
            self.propagating = False
        if self._demand_degrade:
            # A cycle hazard fired (see _DemandStaleRead): relevance
            # filtering cannot finish this demand soundly, so fall back to
            # one full pass under whatever budget/deadline remains.
            self._demand_degrade = False
            left_b = None if budget is None else max(budget - reexecuted, 0)
            left_d = (
                None
                if deadline is None
                else max(deadline - (time.monotonic() - started), 0.0)
            )
            reexecuted += self.propagate(budget=left_b, deadline=left_d)
        # Suspicion cannot be cleared from the relevance verdicts: a mod
        # can feed the target *and* retain a second, deferred dirty
        # feeder.  The summary impl reconciles the dirty-roots union and
        # clears exactly what it proves clean (every drained target whose
        # root bit no pending work reaches; everything, when nothing is
        # dirty); raw flags elsewhere stay as a sound over-approximation
        # that later root-bit checks refine.  The dfs impl recomputes the
        # suspect set exactly from what is still queued, as before.
        if self._feeds_summary:
            ndirty = self._reconcile_dirty_roots()
            if ndirty == 0:
                if self._suspect_mods:
                    for d in self._suspect_mods:
                        d.suspect = False
                    self._suspect_mods.clear()
            else:
                dr = self._dirty_roots
                if not dr & UNIV:
                    for t in suspect:
                        rb = t.root_bit
                        if rb and not dr & rb and t.suspect:
                            t.suspect = False
                            self._suspect_mods.discard(t)
        else:
            self._refresh_suspects()
        if not self.queue:
            # Nothing dirty anywhere, so this demand was in fact a
            # complete pass: the new last-good state, and the rollback
            # journal resets exactly as after a full propagation.
            self._edit_log = []
        if hook is not None:
            for t in targets:
                hook.on_demand_end(t, reexecuted)
        if single:
            return targets[0].value
        return [t.value for t in targets]

    def _drain(
        self,
        budget: Optional[int],
        deadline: Optional[float],
        demanding: bool,
        feeds: Optional[dict],
    ) -> int:
        """The propagation loop shared by :meth:`propagate` and
        :meth:`demand`.

        Pops dirty edges in timestamp order and re-executes them
        transactionally.  With ``demanding`` set (a demand pass, the
        targets seeded positively in ``feeds``), entries whose destination
        chain does not currently feed a target are set aside
        instead of re-executed.  Because a re-execution can rewire the
        trace -- a branch flip creating a fresh read of a previously
        irrelevant (and stale) modifiable -- the pass runs in *rounds*:
        when the queue exhausts with re-executions having happened since
        the last round, the set-aside entries are pushed back and the
        cached negative reachability verdicts dropped, so every survivor
        is re-tested against the final trace (positive verdicts can only
        become conservative, so they are kept).  The fixpoint -- a round
        that re-executes nothing -- leaves only genuinely irrelevant
        entries deferred.  The caller owns ``self.propagating`` and the
        begin/end hook events.
        """
        hook = self.hook
        deadline_at = None if deadline is None else time.monotonic() + deadline
        meter = self.meter
        order = self.order
        queue = self.queue
        dest_stack = self._dest_stack
        reexecuted = 0
        prev_round = 0
        hazards = 0
        summary = self._drain_mask is not None
        stash: List[Tuple[int, int, ReadEdge]] = []
        if demanding:
            self._drain_feeds = feeds
            self._demand_reads = {}
        try:
            while True:
                if not queue:
                    if not demanding or not stash or reexecuted == prev_round:
                        break
                    # End of a round with re-executions behind it: they
                    # may have rewired the trace so that a set-aside
                    # edge now feeds the target.  Push the stash back,
                    # drop the stale negative verdicts, and re-test;
                    # stop at the fixpoint round that defers everything.
                    prev_round = reexecuted
                    self._restash(stash)
                    self._drain_gen += 1
                    continue
                # Re-executed readers insert stamps, which can relabel; a
                # pending epoch change invalidates every key snapshot in
                # the heap, so re-key before trusting the heap order.
                if order.epoch != self._queue_epoch:
                    self._rekey_queue()
                entry_key, entry_seq, edge = heapq.heappop(queue)
                if edge.dead or not edge.dirty:
                    meter.queue_drained += 1
                    if (
                        edge.dead
                        and hook is None
                        and len(self._edge_pool) < self.EDGE_POOL_CAP
                    ):
                        # A discarded edge leaves the queue for good here;
                        # recycle it (discard already dropped mod/reader).
                        edge.start = None
                        edge.end = None
                        self._edge_pool.append(edge)
                    continue
                if demanding and not (
                    self._dest_relevant(edge.dest, feeds)
                    if summary
                    else self._feeds(edge.dest, feeds)
                ):
                    # Dirty but not feeding the demanded output: set the
                    # entry aside, still dirty, still suspect upstream.
                    stash.append((entry_key, entry_seq, edge))
                    meter.demand_deferred += 1
                    continue
                if budget is not None and reexecuted >= budget:
                    heapq.heappush(queue, (entry_key, entry_seq, edge))
                    raise PropagationBudgetExceeded(
                        f"propagation budget of {budget} re-execution(s) "
                        f"exhausted with {len(queue) + len(stash)} queue "
                        f"entries left",
                        reexecuted=reexecuted,
                        pending=len(queue) + len(stash),
                    )
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    heapq.heappush(queue, (entry_key, entry_seq, edge))
                    raise PropagationBudgetExceeded(
                        f"propagation deadline of {deadline:g}s exceeded "
                        f"with {len(queue) + len(stash)} queue entries left",
                        reexecuted=reexecuted,
                        pending=len(queue) + len(stash),
                    )
                meter.queue_drained += 1
                assert edge.end is not None
                if demanding:
                    # Pre-scan the edge's old interval for suspect
                    # modifiables outside the relevance cone.  The reader
                    # consumed them last time, so it will very likely read
                    # them again; widening the cone up front lets their
                    # feeders (earlier timestamps) run first, so the
                    # re-execution sees fresh values instead of reading
                    # stale ones that must then be fixed up by an extra
                    # re-dirty round -- and instead of ever entering stale
                    # cyclic structure, which would trip the
                    # _DemandStaleRead backstop and throw the whole
                    # partial re-execution away.
                    widened = False
                    interval_end = edge.end
                    node = (
                        None if interval_end is edge.start
                        else edge.start.next
                    )
                    while node is not None and node is not interval_end:
                        owner = node.owner
                        if (
                            type(owner) is ReadEdge
                            and not owner.dead
                            and owner.mod is not None
                            and feeds.get(owner.mod) is not True
                            and (
                                (
                                    self._suspectish(owner.mod)
                                    and not self._dest_relevant(
                                        owner.mod, feeds
                                    )
                                )
                                if summary
                                else (
                                    owner.mod.suspect
                                    and not self._feeds(owner.mod, feeds)
                                )
                            )
                        ):
                            feeds[owner.mod] = True
                            widened = True
                        node = node.next
                    if widened:
                        self._drain_gen += 1
                        if stash:
                            self._restash(stash)
                        heapq.heappush(queue, (entry_key, entry_seq, edge))
                        continue
                edge.dirty = False
                if hook is not None:
                    hook.on_reexec(edge)
                saved_now, saved_limit = self.now, self.reuse_limit
                self.now = edge.start
                self.reuse_limit = edge.end
                self._reexec_depth += 1
                dest_stack.append(edge.dest)
                try:
                    try:
                        edge.reader(edge.mod.value)
                    finally:
                        self._reexec_depth -= 1
                        dest_stack.pop()
                    # Discard whatever old trace was neither re-created
                    # nor spliced, and re-decide the leaf shape: the edge
                    # keeps an end stamp only while its body records
                    # something.  Inside the protected region: skipping
                    # this splice-out would silently corrupt the DDG, so a
                    # failure here must go through the same abort path.
                    now, start, end = self.now, edge.start, edge.end
                    if end is start:
                        if now is not start:
                            edge.end = self._insert_after(now)
                    elif now is start:
                        self._delete_range(start, end.next)
                        edge.end = start
                    else:
                        self._delete_range(now, end)
                    if saved_now is end:
                        # The cursor was parked on this interval's end.
                        saved_now = edge.end
                except BaseException as exc:
                    if isinstance(exc, _DemandStaleRead):
                        # The reader is chasing a stale loop.  Widen the
                        # cone to the looping modifiable and to every
                        # suspect modifiable the not-yet-consumed rest of
                        # the old interval still names (the retry will
                        # read them again), unwind transactionally, and
                        # retry with the feeders scheduled first.  Each
                        # hazard grows the monotone positive set, so this
                        # terminates; if hazards keep firing anyway, give
                        # up on relevance filtering and finish as a full
                        # propagation.
                        meter.demand_hazards += 1
                        hazards += 1
                        feeds[exc.mod] = True
                        node = (
                            None if edge.end is edge.start
                            else self.now.next
                        )
                        while node is not None and node is not edge.end:
                            owner = node.owner
                            if (
                                type(owner) is ReadEdge
                                and not owner.dead
                                and owner.mod is not None
                                and (
                                    self._suspectish(owner.mod)
                                    if summary
                                    else owner.mod.suspect
                                )
                            ):
                                feeds[owner.mod] = True
                            node = node.next
                        if not self._unwind_reexec(
                            edge, exc, saved_now, saved_limit,
                            keep_remainder=True,
                        ):
                            self._check_usable()  # poisoned: raises
                        if hazards > self.DEMAND_HAZARD_CAP:
                            self._demand_degrade = True
                            break
                        self._drain_gen += 1
                        self._restash(stash)
                        continue
                    wrapped = self._abort_reexec(
                        edge, exc, saved_now, saved_limit, reexecuted
                    )
                    if wrapped is None:
                        raise  # KeyboardInterrupt & co: cleaned up, re-raise
                    raise wrapped from exc
                self.now, self.reuse_limit = saved_now, saved_limit
                reexecuted += 1
                meter.edges_reexecuted += 1
        finally:
            if demanding:
                self._drain_feeds = None
                self._drain_mask = None
                self._demand_reads = {}
                if self._deferred_deaths:
                    # Apply the edge deaths withheld for drain-local
                    # monotonicity; summaries shrink back to exact before
                    # anything outside the drain trusts them.
                    for m in self._deferred_deaths:
                        if m.fsum_valid and m.fsum:
                            self._invalidate_upstream(m)
                    self._deferred_deaths.clear()
            if stash:
                self._restash(stash)
        return reexecuted

    def _restash(self, stash: List[Tuple[int, int, ReadEdge]]) -> None:
        """Push set-aside demand entries back onto the dirty queue.

        Keys are re-snapshotted (a re-execution in between may have
        relabelled stamps); original tiebreaks are kept so equal keys
        still pop in their dirtying order.
        """
        if self.order.epoch != self._queue_epoch:
            self._rekey_queue()
        queue = self.queue
        for _key, seq, edge in stash:
            heapq.heappush(queue, (edge.start.key, seq, edge))
        if len(queue) > self._queue_peak:
            self._queue_peak = len(queue)
        stash.clear()

    def _feeds(self, start: Optional[Modifiable], memo: dict) -> bool:
        """Whether ``start``'s value can flow into any demanded target
        through the current trace, following reader edges to their
        enclosing destinations.

        The demand targets themselves are seeded ``True`` in ``memo``, so
        "reaches a target" is simply "reaches a positive verdict"; one
        memo serves single- and multi-target demands alike.
        ``None`` (a read with no recorded destination) is conservatively
        treated as feeding everything.  ``memo`` caches verdicts for one
        demand pass; the search is bounded by the suspect region, because
        edit-time marking walked the same reader->destination relation.

        Positive verdicts are ``True`` and permanent (a re-execution can
        only make them conservative).  Negative verdicts are stored as
        the drain generation (``self._drain_gen``) they were computed in:
        bumping the generation -- after a round restart, a widening, or a
        hazard unwind rewires relevance -- invalidates every negative at
        once without sweeping the memo.
        """
        if start is None:
            return True
        gen = self._drain_gen
        cached = memo.get(start)
        if cached is not None:
            if cached is True:
                return True
            if cached == gen:
                return False
        # Iterative memoized DFS.  ``path`` holds the open frames; every
        # frame reaches the node under exploration, so one hit marks the
        # whole path True at once.
        meter = self.meter
        meter.feeds_dfs_visits += 1
        path: List[Tuple[Modifiable, Any]] = [(start, iter(start.readers))]
        on_path = {start}
        while path:
            node, readers = path[-1]
            advanced = False
            for edge in readers:
                if edge.dead:
                    continue
                dest = edge.dest
                if dest is None or memo.get(dest) is True:
                    for frame, _readers in path:
                        memo[frame] = True
                    return True
                cached = memo.get(dest)
                if (
                    (cached is None or (cached is not True and cached != gen))
                    and dest not in on_path
                ):
                    meter.feeds_dfs_visits += 1
                    path.append((dest, iter(dest.readers)))
                    on_path.add(dest)
                    advanced = True
                    break
            if not advanced:
                memo[node] = gen
                on_path.discard(node)
                path.pop()
        return False

    def _unwind_reexec(
        self,
        edge: ReadEdge,
        exc: BaseException,
        saved_now: Stamp,
        saved_limit: Optional[Stamp],
        keep_remainder: bool = False,
    ) -> bool:
        """Splice out one interrupted re-execution and restage it.

        The partial new trace goes, the cursor and reuse zone are
        restored, and the edge is re-queued dirty so the undone work
        stays staged.  By default the unreused old trace goes too (a
        *failed* reader may have corrupted anything it touched);
        ``keep_remainder`` preserves it for a stale-read hazard unwind --
        the reader itself was fine, only scheduled too early, so the
        retry can keep memo-splicing the untouched rest of its old
        sub-trace instead of rebuilding the whole cone from scratch.
        Returns True on success; on a cleanup failure the engine is
        poisoned and False returned.
        """
        try:
            if keep_remainder or edge.end is edge.start:
                # Everything from the interval start through the cursor is
                # partial new trace (with the reused splices it swallowed);
                # self.now.next starts the well-formed old remainder, which
                # a leaf's empty old interval does not have.
                self._delete_range(edge.start, self.now.next)
            else:
                self._delete_range(edge.start, edge.end)
            self.now, self.reuse_limit = saved_now, saved_limit
            if not edge.dead and not edge.dirty:
                edge.dirty = True
                self._enqueue(edge)
                if self._feeds_summary:
                    # Cleanup path: no recomputation here (it must not
                    # raise).  A conservative UNIV for an invalid summary
                    # is sound; the next drain exit reconciles exactly.
                    d = edge.dest
                    self._dirty_roots |= (
                        UNIV if d is None or not d.fsum_valid else d.fsum
                    )
            return True
        except BaseException as cleanup_exc:
            self.poison(
                f"abort cleanup after a failed re-execution raised "
                f"{cleanup_exc!r} (original reader error: {exc!r})"
            )
            return False

    def _abort_reexec(
        self,
        edge: ReadEdge,
        exc: BaseException,
        saved_now: Stamp,
        saved_limit: Optional[Stamp],
        reexecuted: int,
    ) -> Optional[ReexecutionError]:
        """Transactional abort of one failed re-execution.

        :meth:`_unwind_reexec` does the splice-out and restaging; this
        wrapper owns the abort accounting and constructs the typed
        :class:`ReexecutionError` to raise -- None when ``exc`` is not an
        :class:`Exception` (KeyboardInterrupt and friends): those are
        cleaned up after but re-raised unchanged.
        """
        self.meter.reexec_aborts += 1
        consistent = self._unwind_reexec(edge, exc, saved_now, saved_limit)
        if self.hook is not None:
            self.hook.on_reexec_abort(edge, exc, consistent)
        if not isinstance(exc, Exception):
            return None
        pending = len(self.queue)
        if isinstance(exc, RecursionError):
            return RecursionReexecutionError(
                f"re-execution of {edge!r} overflowed the interpreter "
                f"stack; this session was explicitly put on the "
                f"interp backend (backend=, --backend or "
                f"$REPRO_BACKEND), which nests one Python frame per "
                f"traced cell. Deep inputs need the default, "
                f'recursion-free backend="stack" (drop the explicit '
                f"choice), a recursion limit above the current "
                f"{self.recursion_limit} (set REPRO_RECURSION_LIMIT), or a "
                f"smaller input",
                edge=edge,
                original=exc,
                consistent=consistent,
                reexecuted=reexecuted,
                pending=pending,
            )
        verdict = (
            "the stale interval was spliced out and the edge re-queued"
            if consistent
            else "abort cleanup failed and the engine is now poisoned"
        )
        return ReexecutionError(
            f"re-execution of {edge!r} raised "
            f"{type(exc).__name__}: {exc}; {verdict}",
            edge=edge,
            original=exc,
            consistent=consistent,
            reexecuted=reexecuted,
            pending=pending,
        )

    def rollback(self) -> Tuple[int, int, int]:
        """Recover from a failed propagation by restoring the last-good
        state, then re-staging the edits.

        Uses the journal of input edits staged since the last complete
        propagation: each edited modifiable is restored to its last-good
        value (in reverse edit order) and a recovery propagation re-runs
        every affected read -- including the re-queued failing edge, now
        with its old input again -- bringing the outputs back to the state
        before the edits.  The edits are then re-applied, *staged but not
        propagated*, so the host can fix the environment and propagate
        again (or inspect/abandon the edits).

        Returns ``(undone, recovery_reexecuted, restaged)``: journal
        entries undone, reads re-executed by the recovery propagation, and
        edits re-staged (one per touched modifiable whose edited value
        differs from its last-good value).  If the recovery propagation
        itself fails, the last-good state is unreachable and the engine
        poisons itself before re-raising.
        """
        self._check_usable()
        if self.propagating:
            raise PropagationError("rollback called during propagation")
        if self._batch_depth:
            raise PropagationError("rollback called inside an open batch()")
        journal = self._edit_log
        self._edit_log = []
        # Redo plan: the current (edited) value of each touched modifiable,
        # in first-edit order, captured before the undo overwrites them.
        redo = []
        seen = set()
        for mod, _old in journal:
            if id(mod) not in seen:
                seen.add(id(mod))
                redo.append((mod, mod.value))
        self.meter.rollbacks += 1
        self._journal_enabled = False
        try:
            for mod, old in reversed(journal):
                self.change(mod, old)
            try:
                recovery_reexecuted = self.propagate()
            except SacError as exc:
                self.poison(f"rollback recovery propagation failed: {exc!r}")
                raise
        finally:
            self._journal_enabled = True
        restaged = 0
        for mod, new in redo:
            if not _values_equal(mod.value, new):
                self.change(mod, new)
                restaged += 1
        if self.hook is not None:
            self.hook.on_rollback(len(journal), recovery_reexecuted, restaged)
        return len(journal), recovery_reexecuted, restaged

    def mark_last_good(self) -> None:
        """Take the current inputs as the last-good state :meth:`rollback`
        restores, forgetting the edits staged so far.  Sound only with
        nothing dirty, i.e. every read consistent with every input."""
        self._edit_log = []

    # ------------------------------------------------------------------
    # Table inspection

    def table_residency(self) -> dict:
        """Entry counts of the auxiliary tables.

        ``memo_entries`` always equals ``meter.live_memo_entries`` at rest
        (the table indexes exactly the live committed entries), and
        ``alloc_entries`` counts exactly the live keyed allocation sites.
        """
        return {
            "memo_entries": sum(len(v) for v in self.memo_table.values()),
            "memo_buckets": len(self.memo_table),
            "alloc_entries": len(self.alloc_table),
        }

    def hot_stats(self) -> dict:
        """Hot-path data-structure statistics (profiling harness surface).

        Groups the order-maintenance, dirty-queue, and free-list counters
        that ``python -m repro profile`` reports next to the per-phase
        meter numbers.
        """
        meter = self.meter
        return {
            "order": self.order.stats(),
            "queue": {
                "size": len(self.queue),
                "peak": self._queue_peak,
                "pushes": meter.queue_pushes,
                "rekeys": meter.queue_rekeys,
                "drained": meter.queue_drained,
            },
            "pools": {
                "edges_reused": self.edges_reused,
                "edges_pooled": len(self._edge_pool),
                "memo_entries_reused": self.memo_entries_reused,
                "memo_entries_pooled": len(self._memo_pool),
            },
            "feeds": {
                "impl": self.feeds_impl if self.lazy else "n/a",
                "roots": meter.feeds_roots,
                "dirty_root_bits": bin(self._dirty_roots).count("1"),
                "hits": meter.feeds_hits,
                "updates": meter.feeds_updates,
                "recomputes": meter.feeds_recomputes,
                "demands": meter.demands,
                "demands_clean": meter.demands_clean,
                "deferred": meter.demand_deferred,
                "hazards": meter.demand_hazards,
            },
        }

    # ------------------------------------------------------------------
    # Trace deletion

    def _delete_range(self, a: Stamp, b: Optional[Stamp]) -> None:
        """Delete stamps strictly between ``a`` and ``b``, retracting owners.

        One walk: :meth:`~repro.sac.order.Order.delete_range` unlinks the
        chain and hands back the records anchored on it.  A dead memo
        entry leaves its table bucket here, and a dead allocation site its
        ``alloc_table`` entry, so both tables only ever index live
        records.
        """
        owners = self.order.delete_range(a, b)
        if not owners:
            return
        hook = self.hook
        if hook is not None:
            for owner in owners:
                owner.discard(self)
                hook.on_discard(owner)
            return
        # Inlined ReadEdge.discard / MemoEntry.discard bodies (plus
        # recycling, which hooks forbid): this loop retracts every record
        # of a re-executed read's old sub-trace, so the per-record method
        # call is measurable.
        meter = self.meter
        edge_pool = self._edge_pool
        edge_cap = self.EDGE_POOL_CAP
        memo_pool = self._memo_pool
        memo_cap = self.MEMO_POOL_CAP
        memo_table = self.memo_table
        alloc_table = self.alloc_table
        feeds_summary = self._feeds_summary
        for owner in owners:
            if type(owner) is ReadEdge:
                owner.dead = True
                if feeds_summary:
                    self._note_edge_death(owner)
                owner.mod.readers.discard(owner)
                owner.mod = None
                owner.reader = None
                owner.dest = None
                meter.live_edges -= 1
                if not owner.dirty and len(edge_pool) < edge_cap:
                    owner.start = None
                    owner.end = None
                    edge_pool.append(owner)
            elif type(owner) is MemoEntry:
                owner.dead = True
                owner.result = None
                meter.live_memo_entries -= 1
                if owner.end is not None:
                    bucket = memo_table[owner.key]
                    if len(bucket) == 1:
                        del memo_table[owner.key]
                    else:
                        bucket.remove(owner)
                if owner.akey is not None:
                    del alloc_table[owner.akey]
                    owner.akey = None
                if len(memo_pool) < memo_cap:
                    owner.key = None
                    owner.start = None
                    owner.end = None
                    memo_pool.append(owner)
            else:
                owner.discard(self)

    # ------------------------------------------------------------------
    # Convenience combinators (AFL-style library surface)

    def read2(
        self,
        m1: Modifiable,
        m2: Modifiable,
        reader: Callable[[Any, Any], None],
    ) -> None:
        """Read two modifiables and run ``reader`` on both values."""
        self.read(m1, lambda v1: self.read(m2, lambda v2: reader(v1, v2)))

    def read_list(
        self, mods: Sequence[Modifiable], reader: Callable[[list], None]
    ) -> None:
        """Read a sequence of modifiables, then run ``reader`` on the values."""

        def go(index: int, acc: list) -> None:
            if index == len(mods):
                reader(acc)
            else:
                self.read(mods[index], lambda v: go(index + 1, acc + [v]))

        go(0, [])

    def lift(self, func: Callable, *mods: Modifiable) -> Modifiable:
        """Apply a pure function to modifiable arguments, yielding a new one.

        ``lift(f, a, b)`` is ``mod(read a as x in read b as y in write f(x,y))``
        -- the coercion the paper inserts for stable functions applied to
        changeable arguments (Section 3.3).
        """

        def comp(dest: Modifiable) -> None:
            self.read_list(list(mods), lambda vals: self.write(dest, func(*vals)))

        return self.mod(comp)

    def trace_size(self) -> int:
        """Current live trace size (memory proxy; see :mod:`repro.sac.meter`)."""
        return self.meter.trace_size(self)


class Batch:
    """One open batched-edit scope (see :meth:`Engine.batch`).

    After the scope closes normally, :attr:`changed` holds the number of
    effective edits coalesced and :attr:`reexecuted` the reads re-executed
    by the single propagation pass.
    """

    __slots__ = ("engine", "budget", "deadline", "changed", "reexecuted")

    def __init__(
        self,
        engine: Engine,
        *,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.budget = budget
        self.deadline = deadline
        self.changed = 0
        self.reexecuted = 0

    def __enter__(self) -> "Batch":
        engine = self.engine
        engine._check_usable()
        if engine._batch_depth == 0:
            engine._batch_changes = 0
            if engine.hook is not None:
                engine.hook.on_batch_begin()
        engine._batch_depth += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        engine = self.engine
        engine._batch_depth -= 1
        if engine._batch_depth > 0 or exc_type is not None:
            # Inner scope, or an aborted body: leave the edits staged in
            # the dirty queue and let the outermost scope (or a later
            # explicit propagate) apply them.
            return False
        self.changed = engine._batch_changes
        engine.meter.batches += 1
        if engine.lazy:
            # A lazy engine has no closing propagation: the coalesced
            # edits stay staged (dirty + suspect) for the next demand /
            # get / propagate, which is where budget/deadline then apply.
            # The batch scope is pure edit-coalescing under laziness.
            self.reexecuted = 0
            if engine.hook is not None:
                engine.hook.on_batch_end(self.changed, 0)
            return False
        try:
            self.reexecuted = engine.propagate(
                budget=self.budget, deadline=self.deadline
            )
        except (PropagationBudgetExceeded, ReexecutionError) as prop_exc:
            # The closing propagation stopped early: record the partial
            # re-execution count before re-raising.  The staged edits (and
            # any re-queued failing edge) survive in the dirty queue, so a
            # later propagate resumes or retries them.
            self.reexecuted = prop_exc.reexecuted
            raise
        if engine.hook is not None:
            engine.hook.on_batch_end(self.changed, self.reexecuted)
        return False
