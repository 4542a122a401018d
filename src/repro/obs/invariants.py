"""Trace invariant checking.

"A Consistent Semantics of Self-Adjusting Computation" (Acar, Blume,
Donham 2011) proves change propagation consistent *given* that the runtime
maintains a well-formed trace.  The properties the proof leans on are
checkable in one walk of the timestamp order:

1. **Timestamp monotonicity** -- labels strictly increase along the list
   and every interval satisfies ``start < end``, except a leaf read's
   empty interval, which closes on its own start (``end is start``).
2. **Interval nesting** -- read-edge and memo-entry intervals form a
   properly nested forest (no partial overlap); equivalently the trace is
   a well-parenthesized string of starts and ends.
3. **Anchoring** -- every record found at a live stamp is itself live,
   anchored at that stamp, with a live end stamp; read edges are
   registered with their modifiable, and no dead record is reachable.
4. **Dirty-queue discipline** -- the queue is a valid min-heap on its
   ``(key, tiebreak)`` snapshot entries, holds only dirty live edges (plus
   harmless dead entries), every dirty live edge in the trace is queued,
   and -- when no order relabel is pending -- every live entry's key
   snapshot agrees with its edge's current start key.
5. **Suspicion covers dirtiness** (lazy engines only) -- every modifiable
   in the upward reader-closure of a dirty live edge's recorded
   destination is suspect, so a demand can never fast-path a modifiable
   that still has stale feeders anywhere below it.
6. **Memo-table residency** -- ``memo_table`` indexes exactly the
   committed memo entries of the trace: no dead entry, no empty bucket.

:func:`check_trace` performs these structural checks on a quiescent
engine.  :class:`InvariantChecker` is a :class:`~repro.obs.events.TraceHook`
that additionally validates the *dynamic* discipline as it happens: memo
splices must land inside the current reuse zone (ahead of the cursor, at
or before the zone limit) and dirty edges must pop in timestamp order;
after every propagation it re-runs the full structural check.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.events import TraceHook


class InvariantViolation(AssertionError):
    """The engine's trace violates a required invariant."""


class TraceCheckReport:
    """Summary of one structural trace check."""

    def __init__(self, stamps: int, reads: int, memos: int, depth: int, queued: int) -> None:
        self.stamps = stamps
        self.reads = reads
        self.memos = memos
        self.depth = depth
        self.queued = queued

    def __str__(self) -> str:
        return (
            f"trace OK: {self.stamps} stamps, {self.reads} reads, "
            f"{self.memos} memo entries, nesting depth {self.depth}, "
            f"{self.queued} queued"
        )


def check_trace(
    engine: Any, *, expect_quiescent: bool = True, expect_empty_queue: bool = False
) -> TraceCheckReport:
    """Validate the structural trace invariants of ``engine``.

    Raises :class:`InvariantViolation` on the first violation; returns a
    :class:`TraceCheckReport` otherwise.  ``expect_quiescent=False`` allows
    unfinished intervals (``end is None``), for checks taken mid-run.
    """
    # 1. The order itself: strictly increasing labels, intact links.
    try:
        engine.order.check()
    except AssertionError as exc:
        raise InvariantViolation(f"timestamp order corrupt: {exc}") from exc

    reads = memos = committed_memos = 0
    depth = max_depth = 0
    stack: list = []  # open records, innermost last
    end_map: Dict[int, Any] = {}  # id(end stamp) -> record
    dirty_live: list = []

    node = engine.order.base.next
    stamps = 0
    while node is not None:
        stamps += 1
        record = end_map.pop(id(node), None)
        if record is not None:
            if not stack or stack[-1] is not record:
                raise InvariantViolation(
                    f"interval nesting violated: {record!r} ends at label "
                    f"{node.label} while {stack[-1]!r} is still open"
                    if stack
                    else f"interval nesting violated: stray end for {record!r}"
                )
            stack.pop()
            depth -= 1
        owner = node.owner
        if owner is not None:
            if owner.dead:
                raise InvariantViolation(
                    f"live stamp {node.label} anchors dead record {owner!r}"
                )
            if owner.start is not node:
                raise InvariantViolation(
                    f"record {owner!r} anchored at a stamp that is not its start"
                )
            end = owner.end
            if end is None:
                if expect_quiescent:
                    raise InvariantViolation(
                        f"unfinished interval for {owner!r} in a quiescent trace"
                    )
            elif end is node and type(owner).__name__ == "ReadEdge":
                pass  # a leaf read: empty interval closed on its start
            else:
                if not end.live:
                    raise InvariantViolation(f"{owner!r} has a dead end stamp")
                if not owner.start.label < end.label:
                    raise InvariantViolation(
                        f"non-monotonic interval for {owner!r}: "
                        f"[{owner.start.label}, {end.label}]"
                    )
                end_map[id(end)] = owner
                stack.append(owner)
                depth += 1
                max_depth = max(max_depth, depth)
            if type(owner).__name__ == "ReadEdge":
                reads += 1
                if owner not in owner.mod.readers:
                    raise InvariantViolation(
                        f"{owner!r} is not registered with its modifiable"
                    )
                if owner.dirty:
                    dirty_live.append(owner)
            else:
                memos += 1
                if owner.end is not None:
                    committed_memos += 1
        node = node.next

    if stack:
        raise InvariantViolation(
            f"{len(stack)} interval(s) never closed; innermost: {stack[-1]!r}"
        )

    # 4. Dirty-queue discipline.
    queue = engine.queue
    if expect_empty_queue and queue:
        raise InvariantViolation(
            f"queue not empty after propagation: {len(queue)} entries"
        )
    queued_ids = set()
    # The heap stores (key, tiebreak, edge) snapshots; when the engine has
    # caught up with the order's epoch, live snapshots must also agree with
    # the stamps they were taken from.
    caught_up = engine._queue_epoch == engine.order.epoch
    for i, entry in enumerate(queue):
        key, tiebreak, edge = entry
        for child in (2 * i + 1, 2 * i + 2):
            if child < len(queue) and queue[child][:2] < (key, tiebreak):
                raise InvariantViolation("dirty queue is not a valid min-heap")
        if edge.dead:
            continue  # stale entries are popped and skipped; harmless
        if not edge.dirty:
            raise InvariantViolation(f"queued live edge {edge!r} is not dirty")
        if caught_up and key != edge.start.key:
            raise InvariantViolation(
                f"queue key snapshot {key} is stale for {edge!r} with no "
                f"pending relabel epoch"
            )
        queued_ids.add(id(edge))
    if not engine.propagating:
        for edge in dirty_live:
            if id(edge) not in queued_ids:
                raise InvariantViolation(f"dirty live edge {edge!r} is not queued")

    # 5. Lazy engines: suspicion must cover dirtiness -- not just the
    # edge's own destination, but everything upward-reachable from it
    # through live readers -- or a demand could serve a stale value
    # without re-executing the dirty feeder below it.
    if getattr(engine, "lazy", False):
        visited = set()
        stack = [e.dest for e in dirty_live if e.dest is not None]
        while stack:
            dest = stack.pop()
            if id(dest) in visited:
                continue
            visited.add(id(dest))
            if not dest.suspect:
                raise InvariantViolation(
                    f"{dest!r} is fed (transitively) by a dirty live edge "
                    f"but is not marked suspect"
                )
            for r in dest.readers:
                if not r.dead and r.dest is not None and id(r.dest) not in visited:
                    stack.append(r.dest)

    # 6. Memo-table residency: the table indexes exactly the committed
    # entries of the trace (a dead one leaves its bucket as it dies).
    indexed = 0
    for bucket in engine.memo_table.values():
        if not bucket:
            raise InvariantViolation("empty memo-table bucket left behind")
        for entry in bucket:
            start = entry.start
            if entry.end is None or start is None or start.owner is not entry:
                raise InvariantViolation(
                    f"memo table indexes {entry!r}, not a live committed entry"
                )
            indexed += 1
    if indexed != committed_memos:
        raise InvariantViolation(
            f"memo table indexes {indexed} entries; the trace has "
            f"{committed_memos} committed ones"
        )

    return TraceCheckReport(stamps, reads, memos, max_depth, len(queue))


class InvariantChecker(TraceHook):
    """A hook that validates propagation discipline as it happens.

    * every memo splice must lie inside the current reuse zone: strictly
      after the cursor and ending at or before the zone limit;
    * dirty edges must pop from the queue in timestamp order within one
      propagation;
    * read intervals must open and close with stack discipline;
    * after every propagation (unless ``check_every_propagation=False``),
      the full structural :func:`check_trace` runs with an
      empty-queue requirement.

    ``checks`` counts validations performed, for reporting.
    """

    def __init__(self, check_every_propagation: bool = True) -> None:
        self.check_every_propagation = check_every_propagation
        self.checks: Dict[str, int] = {
            "splice_containment": 0,
            "queue_order": 0,
            "read_nesting": 0,
            "full_trace": 0,
            "abort_trace": 0,
            "demand_trace": 0,
        }
        self.last_report: Optional[TraceCheckReport] = None
        self._last_popped: Any = None
        self._open_reads: list = []
        self._in_demand = False

    def total_checks(self) -> int:
        return sum(self.checks.values())

    # -- dynamic discipline -------------------------------------------------

    def on_memo_hit(self, entry: Any) -> None:
        engine = self.engine
        limit = engine.reuse_limit
        if limit is None:
            raise InvariantViolation(
                f"memo hit on {entry!r} outside any reuse zone"
            )
        if not engine.now.label < entry.start.label:
            raise InvariantViolation(
                f"memo splice of {entry!r} is behind the cursor "
                f"(now={engine.now.label})"
            )
        if not entry.end.label <= limit.label:
            raise InvariantViolation(
                f"memo splice of {entry!r} escapes the reuse zone "
                f"(limit={limit.label})"
            )
        self.checks["splice_containment"] += 1

    def on_reexec(self, edge: Any) -> None:
        # A demand pass legitimately revisits earlier timestamps: entries
        # set aside as irrelevant are re-tested after every re-execution,
        # and one that became relevant pops behind the cursor.  Strict
        # pop-order monotonicity therefore only holds for eager passes.
        if not self._in_demand:
            last = self._last_popped
            if last is not None and edge.start.label < last.label:
                raise InvariantViolation(
                    f"dirty queue popped out of timestamp order: "
                    f"{edge.start.label} after {last.label}"
                )
            self._last_popped = edge.start
            self.checks["queue_order"] += 1
        # Each re-execution resets the reader's local nesting context.
        self._open_reads.clear()

    def on_read_start(self, edge: Any) -> None:
        self._open_reads.append(edge)

    def on_read_end(self, edge: Any) -> None:
        if self._open_reads:
            if self._open_reads[-1] is not edge:
                raise InvariantViolation(
                    f"read intervals closed out of order: expected "
                    f"{self._open_reads[-1]!r}, got {edge!r}"
                )
            self._open_reads.pop()
            self.checks["read_nesting"] += 1

    def on_propagate_begin(self, queued: int) -> None:
        self._last_popped = None
        self._open_reads.clear()
        self._in_demand = False

    def on_demand_begin(self, mod: Any, queued: int) -> None:
        self._last_popped = None
        self._open_reads.clear()
        self._in_demand = True

    def on_demand_end(self, mod: Any, reexecuted: int) -> None:
        """After a demand walk the trace must be structurally whole and
        quiescent, but -- unlike after a full propagation -- the queue may
        still hold dirty edges outside the demanded cone."""
        self._in_demand = False
        self._last_popped = None
        if self.check_every_propagation:
            self.last_report = check_trace(
                self.engine, expect_quiescent=True, expect_empty_queue=False
            )
            self.checks["demand_trace"] += 1

    def on_propagate_end(self, reexecuted: int) -> None:
        self._last_popped = None
        if self.check_every_propagation:
            self.last_report = check_trace(
                self.engine, expect_quiescent=True, expect_empty_queue=True
            )
            self.checks["full_trace"] += 1

    def on_reexec_abort(self, edge: Any, exc: BaseException, consistent: bool) -> None:
        """After a transactional abort the trace must be structurally whole
        again -- quiescent intervals, but with the failing edge (and any
        remaining work) still queued."""
        self._last_popped = None
        self._open_reads.clear()
        if consistent and self.check_every_propagation:
            self.last_report = check_trace(
                self.engine, expect_quiescent=True, expect_empty_queue=False
            )
            self.checks["abort_trace"] += 1
