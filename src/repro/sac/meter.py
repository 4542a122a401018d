"""Instrumentation counters for the self-adjusting runtime.

The paper's space plots (Figure 7, Figure 9) report memory consumption.  We
run on a garbage-collected interpreter where ``maxrss`` is noisy, so the
benchmarks report *trace size* instead: live timestamps, read edges, memo
entries, and modifiables created.  Trace size is the quantity that the
paper's theoretical bounds speak about (space is proportional to the trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Meter:
    """Counters maintained by :class:`repro.sac.engine.Engine`."""

    mods_created: int = 0
    reads_executed: int = 0
    writes: int = 0
    changed_writes: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    edges_reexecuted: int = 0
    #: dirty-queue entries conclusively popped during propagation; the gap
    #: to ``edges_reexecuted`` is stale entries (dead or already-clean
    #: edges) skipped without work.
    queue_drained: int = 0
    #: dirty-queue entries pushed (edges newly dirtied or re-queued).
    queue_pushes: int = 0
    #: whole-queue re-key passes forced by order-maintenance relabels: heap
    #: entries snapshot their stamp's packed key, so when the order's epoch
    #: moves the engine rebuilds every snapshot at once (see
    #: :mod:`repro.sac.order`).
    queue_rekeys: int = 0
    #: coalesced edit groups propagated via ``Engine.batch``/``change_many``.
    batches: int = 0
    #: re-executions aborted because the reader raised; each abort spliced
    #: the edge's interval back out and re-queued the edge (see
    #: :class:`repro.sac.exceptions.ReexecutionError`).
    reexec_aborts: int = 0
    #: ``Engine.rollback`` recoveries (undo staged edits, propagate back to
    #: the last-good state, re-stage).
    rollbacks: int = 0
    #: failed initial runs whose partial trace was truncated back to the
    #: pre-run checkpoint (transactional ``mod`` / ``Session.run``).
    run_aborts: int = 0
    #: lazy mode (``Engine(mode="lazy")``): demand calls served, demand
    #: calls answered without any propagation work (the demanded
    #: modifiable was not suspect), suspect bits set by edit-time dirty
    #: marking, dirty-queue entries set aside by a demand pass because
    #: they do not feed the demanded output, and stale-read hazards a
    #: demand drain unwound (a re-execution reached a possibly-stale
    #: modifiable outside the relevance cone; the drain widened the cone
    #: and retried, or degraded to a full pass on a cycle).  All five stay
    #: zero on eager engines, so eager meter pins are unaffected.
    demands: int = 0
    demands_clean: int = 0
    suspect_marks: int = 0
    demand_deferred: int = 0
    demand_hazards: int = 0
    #: reader-graph nodes explored by the lazy relevance walk
    #: (``Engine._feeds``, one increment per DFS frame pushed): the
    #: deterministic measure of demand's filtering work.  Zero on eager
    #: engines.
    feeds_dfs_visits: int = 0
    live_edges: int = 0
    live_memo_entries: int = 0

    def snapshot(self) -> dict:
        """Return a plain-dict copy of all counters."""
        return dict(self.__dict__)

    def reset(self) -> None:
        for key in list(self.__dict__):
            setattr(self, key, 0)

    def trace_size(self, engine) -> int:
        """A memory proxy: live stamps + edges + memo entries."""
        return engine.order.n_live + self.live_edges + self.live_memo_entries


@dataclass
class MeterDiff:
    """Difference between two meter snapshots (work done by one phase)."""

    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)

    def __getitem__(self, key: str) -> int:
        return self.after.get(key, 0) - self.before.get(key, 0)
