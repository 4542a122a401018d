"""`SessionPool`: hundreds of independent incremental sessions, one process.

Each client *document* is a :class:`repro.api.Session` -- its own engine,
trace, and handle namespace -- keyed by a document name.  The pool layers
three things on top that a lone ``Session`` cannot provide:

* **Admission + fair scheduling.**  Propagation is synchronous CPU work,
  so the pool never drains one document to completion while others wait:
  eager documents drain in ``propagate(budget=slice_budget)`` slices
  under a round-robin :class:`~repro.server.scheduler.FairScheduler`,
  lazy documents drain in equally sliced ``demand`` calls at read time,
  and the loop yields between slices so every client's frames keep
  flowing.
* **Wire addressing.**  ``open`` binds every input cell to a stable
  string handle (``"cell:<i>"``) plus ``"out"`` for the output, via the
  :meth:`Session.handle` layer -- so edits and reads address cells by
  serializable name, never by in-process object.
* **Per-document recovery.**  A fault inside one document's propagation
  is contained there: the pool rolls the document back
  (``on_error="rollback"``), escalates after ``max_rollbacks``
  consecutive rollbacks to a from-scratch rebuild on the document's
  current inputs, and marks the document failed only when the rebuild
  fails too.  Sibling documents never see any of it -- their engines
  share nothing but the event loop.
* **Durability** (``checkpoint_dir=...``).  Every document gets a
  checkpoint file recording its input data plus an fsync'd write-ahead
  edit journal (:mod:`repro.persist`): edits are journaled before they
  are acknowledged, checkpoints are written every ``checkpoint_every``
  acknowledged edits (piggybacking on drain completion, so checkpoints
  never race a propagation), and ``open`` of a previously checkpointed
  document recovers it in one run: the journal suffix is applied to the
  recorded inputs before the run, and the journal is resumed, not
  re-checkpointed.  The checkpoint is the only copy of the
  edits it absorbed, so one that cannot be read is refused with a
  :class:`DocError` (its files left as they are) rather than silently
  reverting them; siblings are unaffected.
* **Typed edits.**  A wire edit whose value does not have its cell's
  type is refused with :class:`CellTypeError` before it is staged or
  journaled; propagating it would fault every recovery rung.  Ints and
  floats are one kind; a float cell stays a float cell.
* **Admission quotas.**  ``max_edits_per_round`` / ``max_bytes_per_round``
  cap what one document may stage between drains; over-quota edits are
  rejected with :class:`QuotaExceededError` (a typed, per-request error)
  so one chatty client cannot starve the ring or balloon the journal.

The pool is asyncio-single-threaded: engine calls happen inline on the
loop (no locks), and concurrency comes from interleaving slices, not
threads.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, NoReturn, Optional, Sequence, Tuple

from repro.api import Session
from repro.persist import (
    JournalCorruptError,
    JournalError,
    PersistError,
    SnapshotMismatchError,
)
# (a module-level name, so a profiler can wrap it as the replay layer)
from repro.persist import read_journal as _replay_journal
from repro.sac.exceptions import (
    EnginePoisonedError,
    PropagationBudgetExceeded,
    ReexecutionError,
)

__all__ = [
    "CellTypeError",
    "DocError",
    "DocFailedError",
    "PooledDoc",
    "QuotaExceededError",
    "SessionPool",
    "UnknownDocError",
]

log = logging.getLogger("repro.server.pool")

#: Cell value types an edit may swap for one another (``bool`` is not one).
_NUMBERS = (int, float)


class DocError(Exception):
    """Base class for per-document pool errors."""

    def __init__(self, doc: str, message: str) -> None:
        super().__init__(message)
        self.doc = doc


class UnknownDocError(DocError):
    """The named document is not open in this pool."""

    def __init__(self, doc: str) -> None:
        super().__init__(doc, f"unknown document {doc!r}")


class DocFailedError(DocError):
    """The document faulted and no recovery policy applied."""

    def __init__(self, doc: str, message: str) -> None:
        super().__init__(doc, f"document {doc!r} failed: {message}")


class QuotaExceededError(DocError):
    """The document hit its per-round admission quota.

    Raised *before* the edit is staged or journaled: the request fails,
    the document stays consistent and usable, and the quota clears when
    the document's staged work next drains.  On a lazy document (which
    otherwise drains only at reads) the quota hit itself schedules that
    drain, so retrying after it is never a dead end.
    """

    def __init__(self, doc: str, kind: str, used: int, limit: int) -> None:
        super().__init__(
            doc,
            f"document {doc!r} exceeded its per-round {kind} quota "
            f"({used} > {limit}); retry after the next drain",
        )
        self.kind = kind
        self.used = used
        self.limit = limit


class CellTypeError(DocError):
    """A wire edit's value does not have its cell's type.

    Raised *before* anything is staged or journaled: propagating a
    mistyped input would fault every recovery rung that re-runs on it
    (rebuilds included), so it is refused at the door instead.  Ints
    and floats are one kind here.
    """

    def __init__(self, doc: str, cell: str, expected: type, value: Any) -> None:
        super().__init__(
            doc,
            f"edit of {cell!r} in document {doc!r} needs a "
            f"{expected.__name__} value, got {type(value).__name__}",
        )
        self.cell = cell


@dataclass
class PooledDoc:
    """One hosted document: a session plus pool-side accounting."""

    name: str
    session: Session
    mode: str
    cells: List[str] = field(default_factory=list)
    out: Optional[str] = None
    #: futures resolved when the document's staged edits are fully drained
    waiters: List[asyncio.Future] = field(default_factory=list)
    #: write-ahead journal (checkpointing pools only)
    journal: Optional[Any] = None
    failed: bool = False
    error: Optional[str] = None
    edits: int = 0
    batches: int = 0
    reads: int = 0
    drains: int = 0
    slices: int = 0
    rollbacks: int = 0
    rebuilds: int = 0
    faults: int = 0
    consecutive_rollbacks: int = 0
    #: durability accounting (all zero when checkpointing is off)
    recovered: bool = False
    replayed: int = 0
    checkpoints: int = 0
    snapshot_failures: int = 0
    ops_since_checkpoint: int = 0
    #: admission-quota accounting for the current scheduling round
    round_edits: int = 0
    round_bytes: int = 0
    quota_rejections: int = 0

    def check_usable(self) -> None:
        if self.failed:
            raise DocFailedError(self.name, self.error or "unrecoverable fault")

    def resolve_waiters(self, exc: Optional[BaseException] = None) -> None:
        waiters, self.waiters = self.waiters, []
        for fut in waiters:
            if fut.done():
                continue
            if exc is None:
                fut.set_result(None)
            else:
                fut.set_exception(exc)

    def snapshot(self) -> dict:
        return {
            "doc": self.name,
            "mode": self.mode,
            "cells": len(self.cells),
            "failed": self.failed,
            "error": self.error,
            "edits": self.edits,
            "batches": self.batches,
            "reads": self.reads,
            "drains": self.drains,
            "slices": self.slices,
            "rollbacks": self.rollbacks,
            "rebuilds": self.rebuilds,
            "faults": self.faults,
            "recovered": self.recovered,
            "replayed": self.replayed,
            "checkpoints": self.checkpoints,
            "snapshot_failures": self.snapshot_failures,
            "quota_rejections": self.quota_rejections,
            "trace_size": self.session.engine.trace_size(),
            "demand": self._demand_stats(),
        }

    def _demand_stats(self) -> dict:
        """Lazy-demand counters for stats frames: how much work demand
        skipped (deferrals, clean hits) and how often it unwound a stale
        read (hazards)."""
        meter = self.session.engine.meter
        return {
            "demands": meter.demands,
            "demands_clean": meter.demands_clean,
            "deferred": meter.demand_deferred,
            "hazards": meter.demand_hazards,
        }


class SessionPool:
    """Host many independent :class:`Session` documents in one process.

    ``mode`` is the default propagation discipline for opened documents
    (``"lazy"`` recommended for servers: edits ack immediately, reads
    drive sliced demands).  ``slice_budget`` caps re-executions per
    scheduling slice; ``on_error`` is the per-document recovery policy
    (``"rollback"``, ``"rebuild"``, or ``"raise"`` to surface faults to
    the caller); after ``max_rollbacks`` consecutive rollbacks on one
    document the pool escalates it to a rebuild.

    ``checkpoint_dir`` turns on durability: per-document checkpoint +
    write-ahead journal files live there, edits are fsync'd durable
    before they are acknowledged (``journal_fsync=False`` trades that
    for latency), and a fresh checkpoint is cut every
    ``checkpoint_every`` acknowledged edits, at drain boundaries.
    ``max_edits_per_round`` / ``max_bytes_per_round`` bound what one
    document may stage between drains (:class:`QuotaExceededError`).
    """

    def __init__(
        self,
        *,
        mode: str = "lazy",
        backend: Optional[str] = None,
        slice_budget: int = 256,
        on_error: str = "rollback",
        max_sessions: int = 1024,
        max_rollbacks: int = 3,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 64,
        journal_fsync: bool = True,
        max_edits_per_round: Optional[int] = None,
        max_bytes_per_round: Optional[int] = None,
    ) -> None:
        if on_error not in ("raise", "rollback", "rebuild"):
            raise ValueError(
                f'on_error must be "raise", "rollback" or "rebuild", '
                f"got {on_error!r}"
            )
        if slice_budget < 1:
            raise ValueError("slice_budget must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.mode = mode
        self.backend = backend
        self.slice_budget = slice_budget
        self.on_error = on_error
        self.max_sessions = max_sessions
        self.max_rollbacks = max_rollbacks
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.journal_fsync = journal_fsync
        self.max_edits_per_round = max_edits_per_round
        self.max_bytes_per_round = max_bytes_per_round
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
        self.docs: Dict[str, PooledDoc] = {}
        from repro.server.scheduler import FairScheduler

        self.scheduler = FairScheduler()
        self._pump_task: Optional[asyncio.Task] = None
        self._running = False
        self.opened = 0
        self.closed = 0
        self.checkpoints = 0
        self.snapshot_failures = 0
        self.quota_rejections = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "SessionPool":
        """Start the background drain pump (idempotent)."""
        if self._pump_task is None or self._pump_task.done():
            self._running = True
            self._pump_task = asyncio.get_running_loop().create_task(
                self._pump(), name="sessionpool-pump"
            )
        return self

    async def stop(self) -> None:
        """Stop the pump; open documents stay queryable synchronously.

        With checkpointing on, every document that absorbed edits since
        its last checkpoint gets a new one (best effort), so a graceful
        shutdown reopens without any journal replay.
        """
        self._running = False
        if self._pump_task is not None:
            self.scheduler.kick()
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        if self.checkpoint_dir is not None:
            for doc in self.docs.values():
                if not doc.failed and doc.ops_since_checkpoint:
                    self._checkpoint(doc)

    # -- documents ------------------------------------------------------

    def _doc(self, name: str) -> PooledDoc:
        doc = self.docs.get(name)
        if doc is None:
            raise UnknownDocError(name)
        return doc

    def open(
        self,
        name: str,
        *,
        app: str = "vec-reduce",
        n: int = 64,
        seed: int = 0,
        data: Optional[Sequence[Any]] = None,
        mode: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> dict:
        """Open a document backed by a registered app; return its info.

        Builds a fresh :class:`Session`, runs it on ``data`` (or
        ``app.make_data(n, seed)``), and binds the wire handles: one
        ``"cell:<i>"`` per addressable input cell, plus ``"out"`` when the
        output is a single modifiable.

        With ``checkpoint_dir`` set, a document that was checkpointed by
        a previous process is **recovered** (:meth:`_open_checkpoint`):
        the durable state (every acknowledged edit) wins over the
        ``data``/``seed`` arguments.  A checkpoint of another app yields
        to them, journal and all (counted under ``snapshot_failures``);
        an open on fresh data checkpoints at once.  One that cannot be
        read -- torn, flipped, truncated, or recording no inputs -- makes
        ``open`` raise :class:`DocError` and leaves its files as they are.
        """
        if name in self.docs:
            raise DocError(name, f"document {name!r} is already open")
        if len(self.docs) >= self.max_sessions:
            raise DocError(
                name, f"pool is full ({self.max_sessions} documents)"
            )
        doc_mode = mode or self.mode
        doc_backend = backend if backend is not None else self.backend
        doc = None
        if self.checkpoint_dir is not None:
            snap, wal = self._doc_paths(name)
            if os.path.exists(snap):
                try:
                    doc = self._open_checkpoint(
                        name, app, doc_mode, doc_backend
                    )
                except SnapshotMismatchError as exc:
                    self.snapshot_failures += 1
                    log.warning(
                        "document %r: %s; opening on the given data", name, exc
                    )
                except (PersistError, OSError) as exc:
                    lost = (
                        f"journal {wal} does not extend checkpoint {snap}"
                        if isinstance(exc, JournalError)
                        else f"checkpoint {snap} cannot be read, so its "
                        f"recorded inputs are lost"
                    )
                    raise DocError(
                        name,
                        f"{lost} ({type(exc).__name__}: {exc}); refusing an "
                        f"open that would drop acknowledged edits "
                        f"(checkpoint files left in place)",
                    ) from exc
        if doc is None:
            session = Session(app, mode=doc_mode, backend=doc_backend)
            if data is None:
                data = session.app.make_data(n, random.Random(seed))
            session.run(data=data)
            doc = PooledDoc(name=name, session=session, mode=doc_mode)
            self._bind_handles(doc)
            if self.checkpoint_dir is not None:
                # Any journal on disk extended a checkpoint this document
                # does not run on; the fresh checkpoint resets it.
                doc.journal = session.enable_journal(
                    wal, fsync=self.journal_fsync
                )
                self._checkpoint(doc)
        session = doc.session
        self.docs[name] = doc
        self.opened += 1
        value = session.output
        if session.app is not None:
            value = session.app.readback(value)
        return {
            "doc": name,
            "mode": doc_mode,
            "backend": session.backend,
            "cells": len(doc.cells),
            "value": value,
            "recovered": doc.recovered,
            "replayed": doc.replayed,
        }

    def adopt(
        self,
        name: str,
        session: Session,
        *,
        cells: Sequence[Tuple[str, Any]] = (),
        out: Any = None,
    ) -> PooledDoc:
        """Register an externally built session as a pool document.

        ``cells`` is ``(handle_name, modifiable)`` pairs to bind;
        ``out`` optionally binds ``"out"``.  This is the programmatic
        escape hatch for sessions whose input shape the generic ``open``
        marshaller does not know.
        """
        if name in self.docs:
            raise DocError(name, f"document {name!r} is already open")
        doc = PooledDoc(name=name, session=session, mode=session.mode)
        for handle_name, mod in cells:
            doc.cells.append(session.handle(mod, handle_name))
        if out is not None:
            doc.out = session.handle(out, "out")
        self.docs[name] = doc
        self.opened += 1
        return doc

    def _bind_handles(self, doc: PooledDoc) -> None:
        """(Re)bind the wire handles against the session's current input.

        Called at open and again after a rebuild (which replaces the
        engine and clears the handle registry).
        """
        from repro.sac.modifiable import Modifiable

        session = doc.session
        mods = getattr(session.input_handle, "mods", ())
        doc.cells = [session.handle(m, f"cell:{i}") for i, m in enumerate(mods)]
        doc.out = None
        if isinstance(session.output, Modifiable):
            doc.out = session.handle(session.output, "out")

    async def close(self, name: str) -> dict:
        doc = self._doc(name)
        doc.resolve_waiters()
        if (
            self.checkpoint_dir is not None
            and not doc.failed
            and doc.ops_since_checkpoint
        ):
            self._checkpoint(doc)
        if doc.journal is not None:
            doc.session.disable_journal()
            doc.journal = None
        self.scheduler.discard(name)
        del self.docs[name]
        self.closed += 1
        return {"doc": name, "closed": True}

    # -- durability -----------------------------------------------------

    def _doc_paths(self, name: str) -> Tuple[str, str]:
        """Snapshot and journal paths for a document (name sanitized)."""
        safe = "".join(
            c if c.isalnum() or c in "-_." else "%%%02x" % ord(c)
            for c in name
        )
        base = os.path.join(self.checkpoint_dir, safe)
        return base + ".snap", base + ".wal"

    def _open_checkpoint(
        self,
        name: str,
        app: Optional[str],
        mode: str,
        backend: Optional[str],
    ) -> PooledDoc:
        """The document run once on its checkpoint's inputs with the
        journal suffix applied, its journal resumed (the replayed edits
        count toward the next checkpoint).

        A checkpoint absorbs the journal it supersedes, so its inputs may
        be the only copy of acknowledged edits.  A torn journal tail is
        the normal crash signature and is dropped; corruption earlier in
        the file keeps the clean prefix, so every acknowledged-and-durable
        edit that can be recovered, is.  Raises
        :class:`SnapshotMismatchError` for a checkpoint of another app and
        other ``PersistError``/``OSError`` when it cannot be read.  The
        recorded backend applies unless ``backend`` overrides it or this
        build lacks it.
        """
        from repro.persist import load_session

        snap, wal = self._doc_paths(name)
        failures = 0
        try:
            records, resume = _replay_journal(wal)
        except JournalCorruptError as exc:
            failures = 1
            self.snapshot_failures += 1
            log.warning(
                "document %r: journal corrupt after %d record(s); "
                "replaying the clean prefix",
                name,
                len(exc.records),
            )
            records, resume = exc.records, exc.resume
        session = load_session(
            snap,
            app,
            backend=backend,
            mode=mode,
            journal=records,
            backend_fallback=True,
        )
        replayed = sum(len(edits) for _seq, edits in records)
        doc = PooledDoc(
            name=name,
            session=session,
            mode=mode,
            recovered=True,
            replayed=replayed,
            snapshot_failures=failures,
            ops_since_checkpoint=replayed,
        )
        self._bind_handles(doc)
        doc.journal = session.enable_journal(
            wal, fsync=self.journal_fsync, resume=resume
        )
        return doc

    def _checkpoint(self, doc: PooledDoc) -> bool:
        """Cut a checkpoint and truncate the absorbed journal (best
        effort).

        Runs at drain boundaries, so the engine is quiescent (staged
        lazy edits are fine: the input cells already hold them).  Failure
        is contained: the journal is retained, the previous checkpoint
        file is untouched (writes are atomic), and the document keeps
        serving.
        """
        snap, _wal = self._doc_paths(doc.name)
        try:
            doc.session.snapshot(snap)
        except (PersistError, OSError) as exc:
            doc.snapshot_failures += 1
            self.snapshot_failures += 1
            log.warning(
                "document %r: checkpoint failed (%s: %s); journal retained",
                doc.name,
                type(exc).__name__,
                exc,
            )
            return False
        if doc.journal is not None:
            doc.journal.reset()
        doc.ops_since_checkpoint = 0
        doc.checkpoints += 1
        self.checkpoints += 1
        return True

    def _maybe_checkpoint(self, doc: PooledDoc) -> None:
        if (
            self.checkpoint_dir is not None
            and not doc.failed
            and doc.ops_since_checkpoint >= self.checkpoint_every
        ):
            self._checkpoint(doc)

    def _round_complete(self, doc: PooledDoc) -> None:
        """A drain finished: clear the admission quotas, maybe checkpoint."""
        doc.round_edits = 0
        doc.round_bytes = 0
        self._maybe_checkpoint(doc)

    async def _kick_lazy_round(self, doc: PooledDoc) -> None:
        """Make a lazy document's round actually end after a quota hit.

        Rounds end at drain boundaries, but lazy documents drain only at
        reads -- a write-only client that hit its quota would otherwise
        be told to "retry after the next drain" forever, because edits
        alone never schedule one.  So the quota hit itself schedules the
        drain (or, without a pump, runs it inline) and the round closes
        without requiring a read."""
        if doc.mode != "lazy":
            return  # eager documents drain on every edit; rounds end there
        if not doc.session.engine.queue:
            # Every staged edit cut off (or none are staged): there is
            # no drain to run, so close the round directly.
            self._round_complete(doc)
        elif self._running:
            self.scheduler.enqueue(doc.name)
        else:
            await self._drain_inline(doc)

    # -- admission quotas -----------------------------------------------

    def _admit(self, doc: PooledDoc, n_edits: int, payload: Any) -> None:
        """Charge an incoming edit batch against the per-round quotas.

        Raises :class:`QuotaExceededError` *before* anything is staged
        or journaled; the quotas clear when the document next drains."""
        if (
            self.max_edits_per_round is None
            and self.max_bytes_per_round is None
        ):
            return
        cost = 0
        if self.max_bytes_per_round is not None:
            try:
                cost = len(json.dumps(payload, separators=(",", ":")))
            except (TypeError, ValueError):
                cost = len(repr(payload))
        if (
            self.max_edits_per_round is not None
            and doc.round_edits + n_edits > self.max_edits_per_round
        ):
            doc.quota_rejections += 1
            self.quota_rejections += 1
            raise QuotaExceededError(
                doc.name,
                "edit",
                doc.round_edits + n_edits,
                self.max_edits_per_round,
            )
        if (
            self.max_bytes_per_round is not None
            and doc.round_bytes + cost > self.max_bytes_per_round
        ):
            doc.quota_rejections += 1
            self.quota_rejections += 1
            raise QuotaExceededError(
                doc.name,
                "byte",
                doc.round_bytes + cost,
                self.max_bytes_per_round,
            )
        doc.round_edits += n_edits
        doc.round_bytes += cost

    # -- edits ----------------------------------------------------------

    def _typed_edits(
        self, doc: PooledDoc, edits: Sequence[Sequence[Any]]
    ) -> List[Tuple[str, Any]]:
        """Return ``edits`` with each value given its cell's type.

        Raises :class:`CellTypeError` unless every value has the type of
        its cell's current value.  Ints and floats are one kind (a JSON
        client sends ``3.0`` as ``3``); an int bound for a float cell is
        staged as a float, so the cell keeps its type.
        """
        session = doc.session
        typed = []
        for cell, value in edits:
            want = type(session.resolve(cell).value)
            got = type(value)
            if got is not want:
                if not (want in _NUMBERS and got in _NUMBERS):
                    raise CellTypeError(doc.name, cell, want, value)
                if want is float:
                    value = float(value)
            typed.append((cell, value))
        return typed

    async def edit(self, name: str, cell: str, value: Any) -> dict:
        """Stage one cell edit; ack when the document is consistent again.

        Lazy documents ack immediately (the edit only marks suspicion;
        the drain happens at the next read).  Eager documents ack once
        the pool's pump has fully drained the staged work -- that drain
        runs in fair slices, so the ack latency is bounded by the ring,
        not by siblings' queue depths.
        """
        doc = self._doc(name)
        doc.check_usable()
        ((cell, value),) = self._typed_edits(doc, [(cell, value)])
        try:
            self._admit(doc, 1, value)
        except QuotaExceededError:
            await self._kick_lazy_round(doc)
            raise
        dirtied = doc.session.edit(cell, value)
        doc.edits += 1
        doc.ops_since_checkpoint += 1
        if doc.mode != "lazy":
            await self._await_drain(doc)
        else:
            # Lazy documents may never be read; checkpoint on the edit
            # cadence too so the journal stays bounded (staged edits
            # checkpoint fine -- the input cells already hold them).
            self._maybe_checkpoint(doc)
        return {"doc": name, "dirtied": dirtied}

    async def batch(self, name: str, edits: Sequence[Sequence[Any]]) -> dict:
        """Stage many ``(cell, value)`` edits; one coalesced drain and,
        with checkpointing, one journal record, all or nothing."""
        doc = self._doc(name)
        doc.check_usable()
        edits = self._typed_edits(doc, edits)
        try:
            self._admit(doc, len(edits), edits)
        except QuotaExceededError:
            await self._kick_lazy_round(doc)
            raise
        with doc.session.batch() as b:
            for cell, value in edits:
                doc.session.edit(cell, value)
        doc.edits += len(edits)
        doc.batches += 1
        doc.ops_since_checkpoint += len(edits)
        if doc.mode != "lazy":
            await self._await_drain(doc)
        else:
            self._maybe_checkpoint(doc)
        return {"doc": name, "changed": b.changed}

    async def _await_drain(self, doc: PooledDoc) -> None:
        """Eager path: wait until the document's dirty queue is empty."""
        if not doc.session.engine.queue:
            doc.resolve_waiters()
            self._round_complete(doc)
            return
        if not self._running:
            # No pump (pool used synchronously, e.g. in tests): drain
            # inline with recovery, still sliced to bound each await.
            await self._drain_inline(doc)
            return
        fut = asyncio.get_running_loop().create_future()
        doc.waiters.append(fut)
        self.scheduler.enqueue(doc.name)
        await fut

    async def _drain_inline(self, doc: PooledDoc) -> None:
        while doc.session.engine.queue:
            done = await self._run_slice(doc)
            if done:
                break
            await asyncio.sleep(0)
        doc.resolve_waiters()

    # -- reads ----------------------------------------------------------

    async def get(self, name: str, cell: str) -> dict:
        """Up-to-date value of one handle (sliced demand under lazy)."""
        doc = self._doc(name)
        doc.check_usable()
        doc.reads += 1
        if doc.mode == "lazy":
            value = await self._demand_sliced(doc, target=cell, single=True)
        else:
            await self._await_drain(doc)
            value = doc.session.get(cell)
        return {"doc": name, "value": value}

    async def demand(
        self, name: str, cells: Optional[Sequence[str]] = None
    ) -> dict:
        """Bring cells (or the whole output) up to date in one drain.

        With ``cells``, all of them are demanded in a single
        reachability-filtered pass (multi-target demand) and their values
        returned in order.  Without, the whole output value is demanded
        and returned via the app's readback.
        """
        doc = self._doc(name)
        doc.check_usable()
        doc.reads += 1
        if cells is not None:
            if doc.mode == "lazy":
                values = await self._demand_sliced(
                    doc, target=list(cells), single=False
                )
            else:
                await self._await_drain(doc)
                values = [doc.session.get(c) for c in cells]
            return {"doc": name, "values": values}
        if doc.mode == "lazy":
            await self._demand_sliced(doc, target=None, single=False)
        else:
            await self._await_drain(doc)
        session = doc.session
        value = session.output
        if session.app is not None:
            value = session.app.readback(value)
        return {"doc": name, "value": value}

    async def _demand_sliced(
        self, doc: PooledDoc, *, target: Any, single: bool
    ) -> Any:
        """Run a lazy demand in ``slice_budget`` chunks, yielding between
        chunks and recovering per-document on faults."""
        session = doc.session
        while True:
            doc.check_usable()
            try:
                if single or target is not None:
                    value = session.engine.demand(
                        session.resolve(target)
                        if isinstance(target, str)
                        else [session.resolve(t) for t in target],
                        budget=self.slice_budget,
                    )
                else:
                    session.demand(budget=self.slice_budget)
                    value = None
            except PropagationBudgetExceeded:
                doc.slices += 1
                await asyncio.sleep(0)
                continue
            except (ReexecutionError, EnginePoisonedError) as exc:
                self._recover(doc, exc)
                await asyncio.sleep(0)
                continue
            doc.consecutive_rollbacks = 0
            doc.drains += 1
            if not session.engine.queue:
                doc.resolve_waiters()
            self._round_complete(doc)
            return value

    # -- stats ----------------------------------------------------------

    def stats(self, name: Optional[str] = None) -> dict:
        if name is not None:
            doc = self._doc(name)
            snap = doc.snapshot()
            snap["session"] = doc.session.stats()
            return snap
        return {
            "documents": len(self.docs),
            "opened": self.opened,
            "closed": self.closed,
            "failed": sum(1 for d in self.docs.values() if d.failed),
            "checkpoint_dir": self.checkpoint_dir,
            "checkpoints": self.checkpoints,
            "snapshot_failures": self.snapshot_failures,
            "quota_rejections": self.quota_rejections,
            "scheduler": self.scheduler.stats(),
            "docs": {n: d.snapshot() for n, d in self.docs.items()},
        }

    # -- the pump: sliced, fair, recovering drains ----------------------

    async def _pump(self) -> None:
        """Background task: round-robin one propagation slice at a time."""
        while self._running:
            await self.scheduler.wait()
            if not self._running:
                return
            name = self.scheduler.next()
            if name is None:
                continue
            doc = self.docs.get(name)
            if doc is None or doc.failed:
                continue
            try:
                done = await self._run_slice(doc)
            except DocFailedError:
                continue  # recorded on the doc; siblings unaffected
            if not done:
                self.scheduler.requeue(name)
            # The yield that makes hundreds of documents share one loop:
            # between every slice, control returns to the event loop so
            # pending frames and other clients' work interleave.
            await asyncio.sleep(0)

    async def _run_slice(self, doc: PooledDoc) -> bool:
        """One bounded propagation slice; ``True`` when the doc drained."""
        session = doc.session
        try:
            session.propagate(budget=self.slice_budget)
        except PropagationBudgetExceeded:
            doc.slices += 1
            return False
        except (ReexecutionError, EnginePoisonedError) as exc:
            self._recover(doc, exc)  # raises DocFailedError if terminal
            # A rollback re-stages the undone edits; a rebuild (a fresh
            # engine) leaves nothing queued, which counts as drained.
            done = not session.engine.queue
            if done:
                doc.resolve_waiters()
            return done
        doc.consecutive_rollbacks = 0
        doc.drains += 1
        doc.resolve_waiters()
        self._round_complete(doc)
        return True

    def _recover(self, doc: PooledDoc, exc: BaseException) -> str:
        """Apply the per-document recovery policy; contain the fault.

        Rollback undoes the staged edits back to the document's last-good
        state and re-stages them for retry (a one-shot fault then drains
        clean on the next slice).  After ``max_rollbacks`` consecutive
        rollbacks -- or when the trace is inconsistent or the engine
        poisoned -- escalate to a from-scratch **rebuild** on the
        document's current input cells: a fresh engine (shedding a
        faulting hook), the wire handles re-bound, and with checkpointing
        a checkpoint re-based on it.  The input cells hold exactly the
        checkpoint plus the journal suffix -- a refused edit whose undo
        fails and a rollback whose recovery fails both leave them so
        before poisoning the engine -- so the rebuild keeps every
        acknowledged edit and serves no refused one.  If the rebuild
        fails too, or does not apply, the document (and only the
        document) is marked failed.
        """
        doc.faults += 1
        session = doc.session
        policy = self.on_error
        if (
            policy == "rollback"
            and isinstance(exc, ReexecutionError)
            and getattr(exc, "consistent", False)
            and doc.consecutive_rollbacks < self.max_rollbacks
        ):
            try:
                session.engine.rollback()
            except (ReexecutionError, EnginePoisonedError):
                pass
            else:
                doc.rollbacks += 1
                doc.consecutive_rollbacks += 1
                return "rollback"
        if policy == "raise" or session.app is None:
            self._fail(doc, exc)
        try:
            session.rebuild()
        except BaseException as rebuild_exc:  # noqa: BLE001
            self._fail(doc, rebuild_exc)
        doc.rebuilds += 1
        doc.consecutive_rollbacks = 0
        self._bind_handles(doc)
        if self.checkpoint_dir is not None:
            # Best effort: when it fails, the previous checkpoint plus
            # the retained journal still reopen to these inputs.
            self._checkpoint(doc)
        doc.resolve_waiters()
        return "rebuild"

    def _fail(self, doc: PooledDoc, exc: BaseException) -> NoReturn:
        doc.failed = True
        doc.error = f"{type(exc).__name__}: {exc}"
        self.scheduler.discard(doc.name)
        failure = DocFailedError(doc.name, doc.error)
        doc.resolve_waiters(failure)
        raise failure from exc
