"""The unified host-program API: one object drives one incremental program.

Everything a host needs to run an LML program incrementally used to be
scattered over three modules with three backend-selection mechanisms
(``App.instance``, the old ``repro.testing.verify_app``, the removed
``CompiledProgram.self_adjusting_instance``).  :class:`Session` is now the
single entry point::

    from repro.api import Session

    session = Session(SOURCE)                  # LML source, app name,
                                               # App, or CompiledProgram
    xs = session.input_list([1, 2, 3])
    output = session.run(xs.head)              # initial run builds the trace
    xs.insert(1, 10)                           # edits stage; nothing re-runs
    session.propagate()                        # one change-propagation pass

    with session.batch():                      # coalesce many edits into
        xs.insert(0, 7)                        # ... one propagation pass
        xs.remove(4)                           # (auto-propagates at exit)

    session.stats()                            # meter, trace size, tables

Backend selection happens in exactly one place,
:func:`repro.backends.resolve_backend`, with precedence *explicit
``backend=`` argument > ``$REPRO_BACKEND`` > ``"stack"``*: unless told
otherwise, sessions re-execute through the flat stack machine, and the
tree-walking ``"interp"`` is the reference it is checked against.

The edit convention, uniform across the API: an edit entry point
(:meth:`Session.edit`, ``ModList.insert/set/remove``, the marshalled input
handles) stages the change **without propagating** and returns the number
of read edges it dirtied; propagation is always an explicit
:meth:`Session.propagate` or the close of a :meth:`Session.batch` scope.

This module also hosts the canonical verification
(:func:`verify_app`, :func:`oracle_app`) and measurement
(:func:`measure_app`) drivers, reimplemented on top of ``Session``.  (Their
old homes, ``repro.testing`` and ``repro.bench.runner.measure_app``, were
deprecation shims for two releases and have been removed.)
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Tuple, Union

from repro.backends import BACKENDS, resolve_backend
from repro.core.pipeline import CompiledProgram, compile_program
from repro.sac.engine import Batch, Engine
from repro.sac.exceptions import (
    EnginePoisonedError,
    PropagationBudgetExceeded,
    ReexecutionError,
)
from repro.sac.gcpause import gc_paused
from repro.sac.modifiable import Modifiable

__all__ = [
    "BACKENDS",
    "EnginePoisonedError",
    "OracleResult",
    "PropagateStats",
    "PropagationBudgetExceeded",
    "ReexecutionError",
    "Session",
    "VerificationError",
    "VerifyResult",
    "measure_app",
    "oracle_app",
    "resolve_backend",
    "values_close",
    "verify_app",
]

_UNSET = object()


@dataclass
class PropagateStats:
    """Outcome of one :meth:`Session.propagate` call.

    ``reexecuted`` counts read edges actually re-run; ``drained`` counts
    dirty-queue entries conclusively popped (the difference is stale
    entries skipped without work); ``seconds`` is wall time.

    ``path`` reports which route ran: ``"propagate"`` for a normal eager
    pass, ``"demand"`` for a lazy :meth:`Session.demand` walk,
    ``"rollback"`` when a failed re-execution was undone back to the
    last-good state (``undone`` edits reverted, ``restaged`` of them left
    staged for a later propagate), ``"rebuild"`` when the session fell
    back to a from-scratch re-run.  On a recovery path ``error`` holds
    the exception that triggered it.

    ``demanded`` / ``skipped_clean`` are filled by demand walks: the
    number of modifiables demanded and how many of those were served with
    zero propagation work because they were not suspect.
    """

    reexecuted: int
    drained: int
    seconds: float
    path: str = "propagate"
    undone: int = 0
    restaged: int = 0
    demanded: int = 0
    skipped_clean: int = 0
    error: Optional[BaseException] = None

    def __str__(self) -> str:
        if self.path == "demand":
            return (
                f"demanded in {self.seconds:.6f}s: {self.demanded} "
                f"modifiable(s) walked ({self.skipped_clean} already clean), "
                f"{self.reexecuted} reads re-executed, {self.drained} queue "
                f"entries drained"
            )
        if self.path == "rollback":
            return (
                f"rolled back in {self.seconds:.6f}s: {self.undone} edits "
                f"undone, {self.reexecuted} reads re-executed to recover, "
                f"{self.restaged} edits re-staged"
            )
        if self.path == "rebuild":
            return f"rebuilt from scratch in {self.seconds:.6f}s"
        return (
            f"propagated in {self.seconds:.6f}s: {self.reexecuted} reads "
            f"re-executed, {self.drained} queue entries drained"
        )


class Session:
    """One incremental computation: compile pipeline + engine + instance +
    edits + propagation + metering behind a single object.

    ``app`` may be:

    * LML source text -- compiled through the full pipeline;
    * the name of a registered benchmark app (``python -m repro apps``);
    * an :class:`repro.apps.base.App` object;
    * an already-compiled :class:`repro.core.pipeline.CompiledProgram`
      (the compiler options then come from the program, and the
      ``optimize``/``memoize``/``coarse`` arguments must be left at their
      defaults).

    ``backend`` resolves through :func:`repro.backends.resolve_backend`
    (explicit argument > ``$REPRO_BACKEND`` > ``"stack"``).  ``engine``
    lets several sessions share one engine (or supply a pre-instrumented
    one); ``hook`` attaches an observability hook
    (:class:`repro.obs.events.TraceHook`) before anything runs.

    ``mode`` selects the propagation discipline:

    * ``"eager"`` (default) -- :meth:`propagate` drains the whole dirty
      queue in timestamp order; reads of the output are plain peeks.
    * ``"lazy"`` -- edits only mark the affected part of the dependence
      graph *suspect*; work happens when a value is *demanded*
      (:meth:`get` / :meth:`demand`), and only the dirty cone feeding the
      demanded modifiable re-executes.  :meth:`propagate` still works and
      flushes everything.

    When an ``engine`` is supplied its mode wins; asking for
    ``mode="lazy"`` with an eager engine is an error.
    """

    def __init__(
        self,
        app: Any,
        *,
        backend: Optional[str] = None,
        optimize: bool = True,
        memoize: bool = True,
        coarse: bool = False,
        engine: Optional[Engine] = None,
        hook: Optional[Any] = None,
        mode: str = "eager",
    ) -> None:
        if mode not in ("eager", "lazy"):
            raise ValueError(f'mode must be "eager" or "lazy", got {mode!r}')
        if engine is not None and mode == "lazy" and not engine.lazy:
            raise ValueError(
                'mode="lazy" conflicts with the supplied eager engine; '
                'construct it with Engine(mode="lazy")'
            )
        self.backend = resolve_backend(backend)
        self.app = None
        if isinstance(app, CompiledProgram):
            if (optimize, memoize, coarse) != (True, True, False):
                raise ValueError(
                    "compiler options cannot be overridden for an "
                    "already-compiled program"
                )
            self.program = app
        else:
            if isinstance(app, str):
                from repro.apps import REGISTRY

                if app in REGISTRY:
                    app = REGISTRY[app]
                else:
                    self.program = compile_program(
                        app,
                        memoize=memoize,
                        optimize_flag=optimize,
                        coarse=coarse,
                    )
            if self.app is None and not isinstance(app, str):
                # An App object (directly or via the registry).
                self.app = app
                self.program = app.compiled(
                    memoize=memoize, optimize_flag=optimize, coarse=coarse
                )
        self.options = self.program.options
        self.engine = engine if engine is not None else Engine(mode=mode)
        self.mode = self.engine.mode
        if hook is not None:
            self.engine.attach_hook(hook)
        self.instance = None
        self.input_handle = None
        self.input_value: Any = _UNSET
        self.output: Any = None
        self.propagations = 0
        self.demands = 0
        self.rebuilds = 0
        # Wire-addressable handle layer (see :meth:`handle`): stable
        # string names for modifiables, so out-of-process callers can
        # address cells without holding engine objects.
        self._handles: Dict[str, Modifiable] = {}
        self._handle_names: Dict[int, str] = {}
        self._handle_seq = 0
        #: Optional write-ahead journal (see :meth:`enable_journal`).
        self._journal = None
        #: The edits of the open journaled :meth:`batch` scope, which
        #: become its one journal record; None outside such a scope.
        self._record: Optional[List[Tuple[str, Any]]] = None

    # -- running --------------------------------------------------------

    def _ensure_instance(self):
        if self.instance is None:
            self.instance = self.program._self_adjusting_instance(
                self.engine, backend=self.backend
            )
        return self.instance

    def prepare(self, data: Any = _UNSET, *, input_value: Any = _UNSET) -> "Session":
        """Stage the instance and (optionally) the input without running.

        For an app-backed session, ``data`` is plain Python input; the
        app's marshaller builds the runtime input and the change *handle*
        (exposed as :attr:`input_handle`).  Splitting preparation from
        :meth:`run` keeps input construction and backend staging out of
        timed sections, as the paper's methodology requires.
        """
        self._ensure_instance()
        if data is not _UNSET:
            if self.app is None:
                raise ValueError(
                    "data= requires an app-backed Session; pass input_value="
                )
            self.input_value, self.input_handle = self.app.make_sa_input(
                self.engine, data
            )
        elif input_value is not _UNSET:
            self.input_value = input_value
        return self

    def run(self, input_value: Any = _UNSET, *, data: Any = _UNSET) -> Any:
        """Perform a complete (trace-building) run and return the output.

        ``input_value`` is a runtime input (a modifiable, constructor
        value, tuple, ...); ``data`` is plain Python input for an
        app-backed session (marshalled via the app, setting
        :attr:`input_handle`).  With neither, runs on whatever a previous
        :meth:`prepare` staged.  May be called again with a new input to
        grow the same trace (each run extends the engine's timeline).
        """
        if data is not _UNSET or input_value is not _UNSET:
            self.prepare(data, input_value=input_value)
        else:
            self._ensure_instance()
        if self.input_value is _UNSET:
            raise ValueError("no input: pass input_value=/data= or prepare() first")
        # Transactional initial run: a raising program must not leave a
        # half-built trace behind, or later runs on this engine would stack
        # on garbage.  Truncate back to the pre-run checkpoint and re-raise.
        # The whole trace the run builds survives it, so the cyclic
        # collector is paused (DESIGN.md Section 3.1).
        checkpoint = self.engine.now
        try:
            self.output = gc_paused(self.instance.apply)(self.input_value)
        except BaseException:
            self.engine.truncate_after(checkpoint)
            raise
        if not self.engine.queue:
            # Nothing is dirty, so the run left every read consistent
            # with every input, edits staged before it included.
            self.engine.mark_last_good()
        return self.output

    # -- edits and propagation ------------------------------------------

    def edit(self, mod: Union[str, Modifiable], value: Any) -> int:
        """Stage one input edit; return the number of reads it dirtied.

        ``mod`` is a modifiable or a handle string bound via
        :meth:`handle`.  Nothing re-executes until :meth:`propagate` (or
        the enclosing :meth:`batch` scope closes).  A return of 0 means
        the new value compared equal and the edit cut off immediately.

        With a write-ahead journal enabled (:meth:`enable_journal`) the
        edit must address a named handle with a JSON-representable value
        (else it is refused before it stages), and outside a :meth:`batch`
        scope it is one record, durably appended *before* this method
        returns -- callers may acknowledge it as soon as they see the
        result.  A failed staging or append undoes the edit.
        """
        journal = self._journal
        if journal is None:
            return self.engine.change(self.resolve(mod), value)
        target = self.resolve(mod)
        name = mod if isinstance(mod, str) else self._handle_names.get(id(mod))
        if name is None:
            from repro.persist import JournalError

            raise JournalError(
                "journaled sessions must edit through named handles "
                "(bind one with Session.handle) so recovery can replay"
            )
        record = journal.encode([(name, value)])
        mark = len(self.engine._edit_log)
        try:
            dirtied = self.engine.change(target, value)
            if self._record is not None:  # joins the open scope's record
                self._record.append((name, value))
            else:
                journal.commit(record)
        except BaseException:
            self.engine.undo_edits(mark, f"the refused journaled edit of {name!r}")
            raise
        return dirtied

    def batch(
        self,
        *,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> ContextManager[Batch]:
        """Open a batched-edit scope; one propagation pass at exit.

        See :meth:`repro.sac.engine.Engine.batch`: edits inside the scope
        coalesce, and a read that observed several edited inputs
        re-executes once instead of once per edit.  The scope yields the
        engine's :class:`~repro.sac.engine.Batch`.

        Under ``mode="lazy"`` the scope stages its edits without a
        closing propagation -- the drain is deferred to the next
        :meth:`get` / :meth:`demand`, which still re-executes each
        affected read once for the whole batch.

        On a journaled session the outermost scope is all-or-nothing: its
        :meth:`edit` calls make one journal record, appended as the scope
        closes, before its closing propagation.  If the body raises or
        the append fails, every edit the scope staged is undone.  Without
        a journal, a raising body leaves its edits staged (DESIGN.md §7).
        """
        scope = self.engine.batch(budget=budget, deadline=deadline)
        if self._journal is None or self._record is not None:
            return scope
        return self._journaled(scope)

    @contextmanager
    def _journaled(self, scope: Batch) -> Iterator[Batch]:
        journal, engine = self._journal, self.engine
        mark = len(engine._edit_log)
        with scope:
            self._record = record = []
            try:
                yield scope
                if record:
                    journal.commit(journal.encode(record))
            except BaseException:
                names = [name for name, _value in record]
                engine.undo_edits(mark, f"the refused journaled batch of {names}")
                raise
            finally:
                self._record = None

    def propagate(
        self,
        *,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
        on_error: str = "raise",
    ) -> PropagateStats:
        """Propagate all staged edits; return :class:`PropagateStats`.

        ``budget`` / ``deadline`` bound the pass (see
        :meth:`repro.sac.engine.Engine.propagate`); on overrun a
        :class:`PropagationBudgetExceeded` is raised and a later call
        resumes the remaining work.

        ``on_error`` selects the recovery policy when a re-executed
        reader raises (see DESIGN.md Section 7):

        * ``"raise"`` (default) -- let the typed
          :class:`~repro.sac.exceptions.ReexecutionError` propagate; the
          failing edge stays queued for retry.
        * ``"rollback"`` -- undo the staged edits back to the last-good
          state via :meth:`repro.sac.engine.Engine.rollback` and re-stage
          them; the returned stats have ``path="rollback"``.  Only
          possible while the trace is consistent: a poisoned engine
          re-raises instead.
        * ``"rebuild"`` -- fall back to a from-scratch re-run on the
          current input data (:meth:`rebuild`); works even from a
          poisoned engine, because it replaces the engine outright.
        """
        if on_error not in ("raise", "rollback", "rebuild"):
            raise ValueError(
                f'on_error must be "raise", "rollback" or "rebuild", '
                f"got {on_error!r}"
            )
        meter = self.engine.meter
        drained_before = meter.queue_drained
        started = time.perf_counter()
        try:
            reexecuted = self.engine.propagate(budget=budget, deadline=deadline)
        except (ReexecutionError, EnginePoisonedError) as exc:
            if on_error == "raise":
                raise
            stats = self._recover(exc, on_error, started, drained_before)
        else:
            stats = PropagateStats(
                reexecuted=reexecuted,
                drained=meter.queue_drained - drained_before,
                seconds=time.perf_counter() - started,
            )
        self.propagations += 1
        return stats

    def _recover(
        self, exc: Exception, on_error: str, started: float, drained_before: int
    ) -> PropagateStats:
        """Apply the ``"rollback"`` or ``"rebuild"`` policy to a failed
        :meth:`propagate` or :meth:`demand` pass."""
        if on_error == "rollback":
            if isinstance(exc, EnginePoisonedError) or not exc.consistent:
                raise exc  # nothing consistent left to roll back to
            undone, reexecuted, restaged = self.engine.rollback()
            return PropagateStats(
                reexecuted=reexecuted,
                drained=self.engine.meter.queue_drained - drained_before,
                seconds=time.perf_counter() - started,
                path="rollback",
                undone=undone,
                restaged=restaged,
                error=exc,
            )
        self.rebuild()
        return PropagateStats(
            reexecuted=0,
            drained=0,
            seconds=time.perf_counter() - started,
            path="rebuild",
            error=exc,
        )

    def get(
        self,
        mod: Union[str, Modifiable],
        *,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Any:
        """Return the up-to-date value of one modifiable.

        ``mod`` is a modifiable or a handle string bound via
        :meth:`handle`.  In lazy mode this is the demand entry point:
        only the dirty subgraph feeding ``mod`` re-executes (zero work
        when ``mod`` is not suspect).  In eager mode it is a plain peek
        -- the caller is expected to have propagated already.
        """
        mod = self.resolve(mod)
        if self.mode == "lazy":
            return self.engine.demand(mod, budget=budget, deadline=deadline)
        return mod.peek()

    def demand(
        self,
        target: Any = _UNSET,
        *,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
        on_error: str = "raise",
    ) -> PropagateStats:
        """Bring ``target`` (default: the session's output) fully up to
        date; return :class:`PropagateStats` with ``path="demand"``.

        Unlike :meth:`get`, which demands a single modifiable, this walks
        the whole *value* -- every modifiable reachable through
        constructor values and tuples is demanded, so reading the result
        back afterwards observes no stale cell.  Dirty work that feeds
        nothing in ``target`` stays queued for a later demand or
        propagate.

        ``target`` may also be a handle string (see :meth:`handle`) or a
        list of targets (values, modifiables, handle strings): all of
        them are brought up to date in *one* reachability-filtered drain
        -- shared feeders re-execute once, not once per target -- which
        is how a server serves a batch of reads in a single pass.

        ``budget`` / ``deadline`` bound the combined walk the same way
        they bound :meth:`propagate`; ``on_error`` supports the same
        ``"raise"`` / ``"rollback"`` / ``"rebuild"`` recovery policies.
        Requires ``mode="lazy"``.
        """
        if on_error not in ("raise", "rollback", "rebuild"):
            raise ValueError(
                f'on_error must be "raise", "rollback" or "rebuild", '
                f"got {on_error!r}"
            )
        if self.mode != "lazy":
            raise ValueError('demand() requires Session(mode="lazy")')
        if target is _UNSET:
            if self.output is None:
                raise ValueError(
                    "no output to demand: run() first or pass a target"
                )
            target = self.output
        elif isinstance(target, str):
            target = self.resolve(target)
        elif isinstance(target, (list, tuple)):
            target = tuple(
                self.resolve(t) if isinstance(t, str) else t for t in target
            )
        meter = self.engine.meter
        drained_before = meter.queue_drained
        reexec_before = meter.edges_reexecuted
        demands_before = meter.demands
        clean_before = meter.demands_clean
        started = time.perf_counter()
        try:
            self._demand_value(target, budget, deadline)
        except (ReexecutionError, EnginePoisonedError) as exc:
            if on_error == "raise":
                raise
            stats = self._recover(exc, on_error, started, drained_before)
        else:
            stats = PropagateStats(
                reexecuted=meter.edges_reexecuted - reexec_before,
                drained=meter.queue_drained - drained_before,
                seconds=time.perf_counter() - started,
                path="demand",
                demanded=meter.demands - demands_before,
                skipped_clean=meter.demands_clean - clean_before,
            )
        self.demands += 1
        return stats

    def _demand_value(
        self, value: Any, budget: Optional[int], deadline: Optional[float]
    ) -> None:
        """Demand every modifiable reachable from ``value``.

        Iterative walk over the runtime value grammar -- the same one
        :func:`repro.interp.values.deep_read` reads back (modifiables,
        constructor values, tuples, ref cells; both backends share the
        representation).  A shared ``budget``/``deadline`` spans all the
        :meth:`Engine.demand` calls it makes.

        One pass is not enough: demanding a later modifiable can
        re-execute *shared* feeders and re-dirty one visited (clean)
        earlier in the same pass -- msort's merge cells share sublists,
        so cell 50's demand can stale cells 0..49 again.  The walk
        therefore repeats until a whole pass re-executes nothing, which
        proves every reachable modifiable was clean when visited.  Extra
        passes over a consistent value are cheap: a clean demand is the
        O(1) fast path.

        Within a pass, modifiables discovered at the same container depth
        form a *frontier* demanded in one multi-target
        :meth:`Engine.demand` call -- one reachability-filtered drain
        serves the whole level, so siblings (a tuple of outputs, a
        vector's cells) never pay per-target drain overhead.
        """
        from repro.interp.values import ConValue, RefCell

        engine = self.engine
        meter = engine.meter
        reexec_base = meter.edges_reexecuted
        deadline_at = (
            None if deadline is None else time.monotonic() + deadline
        )
        while True:
            pass_base = meter.edges_reexecuted
            # Interning can share constructor subtrees; dedup every
            # container by identity so each pass is linear in the live
            # DAG, not the tree.
            seen = set()
            stack = [value]
            frontier: List[Modifiable] = []
            while stack or frontier:
                while stack:
                    v = stack.pop()
                    if isinstance(v, (Modifiable, ConValue, tuple, RefCell)):
                        if id(v) in seen:
                            continue
                        seen.add(id(v))
                    if isinstance(v, Modifiable):
                        frontier.append(v)
                    elif isinstance(v, ConValue):
                        if v.arg is not None:
                            stack.append(v.arg)
                    elif isinstance(v, tuple):
                        stack.extend(v)
                    elif isinstance(v, RefCell):
                        stack.append(v.value)
                if frontier:
                    remaining_budget = None
                    if budget is not None:
                        spent = meter.edges_reexecuted - reexec_base
                        remaining_budget = max(budget - spent, 0)
                    remaining_deadline = None
                    if deadline_at is not None:
                        remaining_deadline = max(
                            deadline_at - time.monotonic(), 0.0
                        )
                    stack.extend(
                        engine.demand(
                            frontier,
                            budget=remaining_budget,
                            deadline=remaining_deadline,
                        )
                    )
                    frontier = []
            if meter.edges_reexecuted == pass_base:
                return

    def rebuild(self) -> Any:
        """From-scratch fallback: re-run on the current input data.

        Marshals the data currently held by :attr:`input_handle` into a
        *fresh*
        engine, re-runs the program, and swaps the new engine, instance,
        handle and output into this session -- the incremental trace is
        abandoned, which is always safe (self-adjusting semantics
        guarantee a from-scratch run is the reference behaviour).  This
        is the escape hatch that works even when the old engine is
        poisoned.  The old engine's hook is deliberately *not* carried
        over: a hook can itself be the failure source (fault injection),
        and a rebuild must converge; re-attach one via
        ``session.engine.attach_hook`` afterwards if wanted.

        Requires an app-backed session whose input was marshalled via
        ``run(data=...)``/``prepare(data)`` (the handle is what lets the
        session reconstruct the current input).
        """
        if self.app is None or self.input_handle is None:
            raise ValueError(
                "rebuild() requires an app-backed session with marshalled "
                "input (run with data=...)"
            )
        data = self.app.handle_data(self.input_handle)
        self.engine = Engine(mode=self.mode)
        self.instance = None
        self.input_handle = None
        self.input_value = _UNSET
        # Every modifiable the old engine owned is dead; handle names do
        # not carry over (the caller re-binds against the fresh input).
        self._handles.clear()
        self._handle_names.clear()
        self.rebuilds += 1
        return self.run(data=data)

    # -- inputs ---------------------------------------------------------

    def input_list(self, items, nil: str = "Nil", cons: str = "Cons"):
        """Build a modifiable list input bound to this session's engine."""
        from repro.interp.marshal import ModListInput

        return ModListInput(self.engine, items, nil=nil, cons=cons)

    def make_input(self, value: Any) -> Modifiable:
        """Create one input modifiable on this session's engine."""
        return self.engine.make_input(value)

    # -- handles: wire-addressable names for modifiables ----------------

    def handle(self, mod: Modifiable, name: Optional[str] = None) -> str:
        """Bind ``mod`` to a stable string handle and return it.

        The handle layer is what lets a :class:`Session` be driven from
        outside the process (see ``repro.server``): a handle is a plain
        serializable string that :meth:`edit`, :meth:`get` and
        :meth:`demand` accept anywhere they accept a
        :class:`~repro.sac.modifiable.Modifiable`.

        Binding is idempotent: a modifiable already bound returns its
        existing handle (an explicit conflicting ``name`` is an error).
        Without ``name`` a fresh ``"mod:<k>"`` name is generated.
        Handles do not survive :meth:`rebuild` -- a rebuild replaces the
        engine and every modifiable in it, so the registry is cleared and
        the caller re-binds against the fresh input handle.
        """
        if not isinstance(mod, Modifiable):
            raise TypeError(
                f"handle() binds a Modifiable, got {type(mod).__name__}"
            )
        existing = self._handle_names.get(id(mod))
        if existing is not None:
            if name is not None and name != existing:
                raise ValueError(
                    f"modifiable is already bound to handle {existing!r}"
                )
            return existing
        if name is None:
            name = f"mod:{self._handle_seq}"
            self._handle_seq += 1
        elif name in self._handles:
            if self._handles[name] is not mod:
                raise ValueError(
                    f"handle {name!r} is already bound to a different "
                    f"modifiable"
                )
            return name
        self._handles[name] = mod
        self._handle_names[id(mod)] = name
        return name

    def resolve(self, ref: Union[str, Modifiable]) -> Modifiable:
        """Return the modifiable a handle names (modifiables pass through).

        Raises :class:`KeyError` for an unknown handle string.
        """
        if isinstance(ref, Modifiable):
            return ref
        if not isinstance(ref, str):
            raise TypeError(
                f"resolve() takes a handle string or a Modifiable, got "
                f"{type(ref).__name__}"
            )
        try:
            return self._handles[ref]
        except KeyError:
            raise KeyError(f"unknown handle {ref!r}") from None

    def handles(self) -> Dict[str, Modifiable]:
        """A snapshot of the current handle registry (name -> modifiable)."""
        return dict(self._handles)

    # -- durability (DESIGN.md Section 10) -------------------------------

    def snapshot(self, path: str) -> dict:
        """Write a checkpoint of this session to ``path``.

        A checkpoint records what a from-scratch run needs: the app,
        mode, backend and compiler options, the current input data, the
        counters, and the handle registry (each handle must name an input
        cell or the output).  The engine must be quiescent (no
        propagation/batch in flight); staged lazy edits are fine, since
        the input cells already hold them.  Returns the header.  Restore
        with :meth:`restore`.
        """
        from repro.persist import save_session

        return save_session(self, path)

    @classmethod
    def restore(
        cls,
        path: str,
        app: Any = None,
        *,
        backend: Optional[str] = None,
        hook: Optional[Any] = None,
    ) -> "Session":
        """Rebuild a session from a checkpoint written by :meth:`snapshot`.

        Compiles the app (``app`` or the checkpoint's recorded app name)
        and runs it from scratch on the recorded inputs, then rebinds the
        handles and counters.  The result equals a fresh session run on
        those inputs -- the reference every incremental value must match.
        Corrupt or mismatched checkpoints raise typed
        :class:`repro.persist.PersistError` subclasses before anything
        runs.
        """
        from repro.persist import load_session

        return load_session(path, app, backend=backend, hook=hook)

    def enable_journal(
        self,
        path: str,
        *,
        fsync: bool = True,
        resume: Optional[Tuple[int, int]] = None,
    ):
        """Turn on the write-ahead edit journal at ``path``.

        Every subsequent request -- an :meth:`edit` outside a scope, or
        an outermost :meth:`batch` scope -- is one record, durably
        appended before it is acknowledged, or undone whole.  Journaled
        edits must address named handles with JSON-representable values
        -- the handles are how :func:`repro.persist.load_session` finds
        the cells.  ``resume`` is the ``(last seq, clean boundary)`` pair
        :func:`repro.persist.read_journal` returned for ``path``, sparing
        the appender a second read of it.  Returns the
        :class:`repro.persist.EditJournal`.
        """
        from repro.persist import EditJournal

        self._journal = EditJournal(path, fsync=fsync, resume=resume)
        return self._journal

    def disable_journal(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- metering -------------------------------------------------------

    def trace_size(self) -> int:
        return self.engine.trace_size()

    def stats(self) -> dict:
        """One merged view of the session's accounting: backend, compiler
        options, propagation count, live trace size, table residency, and
        the full meter snapshot."""
        options = self.options
        return {
            "backend": self.backend,
            "options": {
                "memoize": options.memoize,
                "optimize": options.optimize,
                "coarse": options.coarse,
            },
            "propagations": self.propagations,
            "rebuilds": self.rebuilds,
            "trace_size": self.engine.trace_size(),
            "tables": self.engine.table_residency(),
            "meter": self.engine.meter.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.app.name if self.app is not None else "<source>"
        return (
            f"<Session {name} backend={self.backend} "
            f"trace_size={self.engine.trace_size()}>"
        )


# ----------------------------------------------------------------------
# Verification (the paper's Section 4.3 framework, Session-powered)


class VerificationError(AssertionError):
    """The self-adjusting output diverged from the reference."""


def values_close(a: Any, b: Any, rel: float = 1e-9) -> bool:
    """Structural comparison with float tolerance."""
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=1e-12)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(values_close(x, y, rel) for x, y in zip(a, b))
    return a == b


@dataclass
class VerifyResult:
    name: str
    n: int
    changes: int
    reexecuted_total: int
    #: dirty-queue entries drained across all propagations; the gap to
    #: ``reexecuted_total`` is stale entries skipped without re-execution.
    drained_total: int = 0

    def __str__(self) -> str:
        return (
            f"{self.name}: n={self.n}, {self.changes} changes verified, "
            f"{self.reexecuted_total} reads re-executed "
            f"({self.drained_total} queue entries drained)"
        )


def _resolve_app(app: Any):
    if isinstance(app, str):
        from repro.apps import REGISTRY

        return REGISTRY[app]
    return app


def verify_app(
    app: Any,
    n: int,
    changes: int,
    seed: int = 0,
    *,
    memoize: bool = True,
    optimize_flag: bool = True,
    coarse: bool = False,
    check_conventional: bool = True,
    backend: Optional[str] = None,
    batch: int = 1,
    mode: str = "eager",
) -> VerifyResult:
    """Run the Section 4.3 random-change verification for one application.

    ``app`` is an :class:`repro.apps.base.App` or a registry name.
    ``backend`` resolves via :func:`resolve_backend` (default ``"stack"``).
    ``batch`` > 1 coalesces that many random changes per propagation
    through :meth:`Session.batch` (the output is re-verified after each
    batch).
    ``mode="lazy"`` updates via :meth:`Session.demand` after each change
    instead of a full propagation; combined with ``batch`` > 1 the batch
    scope stages the edits and the following demand drains them all in
    one reachability-filtered pass.
    """
    app = _resolve_app(app)
    rng = random.Random(seed)
    session = Session(
        app,
        backend=backend,
        optimize=optimize_flag,
        memoize=memoize,
        coarse=coarse,
        mode=mode,
    )
    data = app.make_data(n, rng)

    if check_conventional:
        conv = session.program.conventional_instance()
        conv_out = app.readback(conv.apply(app.make_conv_input(data)))
        expected = app.reference(data)
        if not values_close(conv_out, expected):
            raise VerificationError(
                f"{app.name}: conventional output diverges from reference\n"
                f"  got:      {conv_out!r}\n  expected: {expected!r}"
            )

    output = session.run(data=data)
    got = app.readback(output)
    expected = app.reference(data)
    if not values_close(got, expected):
        raise VerificationError(
            f"{app.name}: initial self-adjusting output diverges\n"
            f"  got:      {got!r}\n  expected: {expected!r}"
        )

    reexecuted = drained = 0
    step = 0
    while step < changes:
        group = min(batch, changes - step)
        if group == 1:
            app.apply_change(session.input_handle, rng, step)
            step += 1
            stats = session.demand() if mode == "lazy" else session.propagate()
        else:
            drained_before = session.engine.meter.queue_drained
            with session.batch() as b:
                for _ in range(group):
                    app.apply_change(session.input_handle, rng, step)
                    step += 1
            if mode == "lazy":
                # Lazy batches defer the drain; the demand below is what
                # actually re-executes (once per affected read).
                stats = session.demand()
            else:
                stats = PropagateStats(
                    b.reexecuted,
                    session.engine.meter.queue_drained - drained_before,
                    0.0,
                )
        reexecuted += stats.reexecuted
        drained += stats.drained
        got = app.readback(output)
        expected = app.reference(app.handle_data(session.input_handle))
        if not values_close(got, expected):
            raise VerificationError(
                f"{app.name}: output diverges after change {step - 1}\n"
                f"  got:      {got!r}\n  expected: {expected!r}"
            )
    return VerifyResult(app.name, n, changes, reexecuted, drained)


@dataclass
class OracleResult:
    """Outcome of one :func:`oracle_app` run."""

    name: str
    n: int
    changes: int
    reexecuted_total: int
    invariant_checks: int

    def __str__(self) -> str:
        text = (
            f"{self.name}: n={self.n}, {self.changes} changes consistent "
            f"with from-scratch reruns, {self.reexecuted_total} reads re-executed"
        )
        if self.invariant_checks:
            text += f", {self.invariant_checks} invariant checks"
        return text


def oracle_app(
    app: Any,
    n: int,
    changes: int,
    seed: int = 0,
    *,
    memoize: bool = True,
    optimize_flag: bool = True,
    coarse: bool = False,
    check_invariants: bool = True,
    check_reference: bool = True,
    backend: Optional[str] = None,
    mode: str = "eager",
) -> OracleResult:
    """From-scratch-consistency oracle for one application.

    Applies ``changes`` random input changes through a :class:`Session`,
    and after each propagation asserts that the incrementally updated
    output equals the output of a *fresh* session run on the current
    input data -- the property the consistency theorems actually state.
    With ``check_invariants`` (default), an
    :class:`repro.obs.invariants.InvariantChecker` rides along.
    ``mode="lazy"`` replaces each eager propagation with a demand of the
    full output (:meth:`Session.demand`), exercising the dirty-marking /
    demand-walk discipline against the same oracle.  ``backend`` resolves
    via :func:`resolve_backend` (default ``"stack"``); the fresh sessions
    run on the same backend as the incremental one.
    """
    app = _resolve_app(app)
    rng = random.Random(seed)
    checker = None
    hook = None
    if check_invariants:
        from repro.obs.invariants import InvariantChecker

        checker = hook = InvariantChecker()
    session = Session(
        app,
        backend=backend,
        optimize=optimize_flag,
        memoize=memoize,
        coarse=coarse,
        hook=hook,
        mode=mode,
    )
    data = app.make_data(n, rng)
    output = session.run(data=data)

    if check_reference:
        got = app.readback(output)
        expected = app.reference(data)
        if not values_close(got, expected):
            raise VerificationError(
                f"{app.name}: initial self-adjusting output diverges\n"
                f"  got:      {got!r}\n  expected: {expected!r}"
            )

    reexecuted = 0
    for step in range(changes):
        app.apply_change(session.input_handle, rng, step)
        if mode == "lazy":
            reexecuted += session.demand().reexecuted
        else:
            reexecuted += session.propagate().reexecuted
        got = app.readback(output)

        # The oracle: a fresh run of the same program over the current data.
        current = app.handle_data(session.input_handle)
        scratch = Session(session.program, backend=session.backend)
        scratch.app = app
        scratch_out = app.readback(scratch.run(data=current))

        if not values_close(got, scratch_out):
            raise VerificationError(
                f"{app.name}: propagated output diverges from a "
                f"from-scratch rerun after change {step} (seed {seed})\n"
                f"  propagated:   {got!r}\n  from scratch: {scratch_out!r}"
            )
        if check_reference:
            expected = app.reference(current)
            if not values_close(got, expected):
                raise VerificationError(
                    f"{app.name}: output diverges from reference after "
                    f"change {step} (seed {seed})\n"
                    f"  got:      {got!r}\n  expected: {expected!r}"
                )
    return OracleResult(
        app.name,
        n,
        changes,
        reexecuted,
        checker.total_checks() if checker is not None else 0,
    )


# ----------------------------------------------------------------------
# Measurement (the paper's Section 4.2 methodology, Session-powered)


def measure_app(
    app: Any,
    n: int,
    *,
    prop_samples: int = 20,
    seed: int = 0,
    repeats: int = 1,
    memoize: bool = True,
    optimize_flag: bool = True,
    coarse: bool = False,
    gc_enabled: bool = False,
    skip_conventional: bool = False,
    hook: Optional[Any] = None,
    backend: Optional[str] = None,
    batch: int = 1,
):
    """Measure one compiled benchmark at input size ``n``; returns a
    :class:`repro.bench.runner.BenchRow`.

    As in the paper, input construction and instance staging are excluded
    from timed sections, and GC is excluded unless ``gc_enabled``.
    ``batch`` > 1 applies that many random changes per propagation (one
    coalesced pass each), so ``avg_prop`` becomes average time per
    *batch*; ``prop_samples`` still counts individual changes.
    ``backend`` resolves via :func:`resolve_backend` (default ``"stack"``);
    the conventional run always walks the tree, so the paper's
    overhead ratios compare like with like only under
    ``backend="interp"``.
    """
    from repro.bench.runner import BenchRow, _phase, _timed

    app = _resolve_app(app)
    rng = random.Random(seed)
    session = Session(
        app,
        backend=backend,
        optimize=optimize_flag,
        memoize=memoize,
        coarse=coarse,
        hook=hook,
    )
    data = app.make_data(n, rng)

    # Conventional run (fresh instance per repeat; average).
    conv_time = 0.0
    if not skip_conventional:
        times = []
        for _ in range(repeats):
            conv = session.program.conventional_instance()
            conv_input = app.make_conv_input(data)
            times.append(_timed(lambda: conv.apply(conv_input), gc_enabled))
        conv_time = sum(times) / len(times)

    # Self-adjusting complete run (input construction and staging untimed).
    engine = session.engine
    session.prepare(data)
    before_run = engine.meter.snapshot()
    sa_time = _timed(session.run, gc_enabled)
    after_run = engine.meter.snapshot()
    trace_size = engine.trace_size()
    mods = engine.meter.mods_created

    # Average propagation over random changes (per pass: one change, or
    # one ``batch``-sized coalesced group).
    prop_total = 0.0
    passes = 0
    step = 0
    while step < prop_samples:
        group = min(batch, prop_samples - step)
        if group == 1:
            app.apply_change(session.input_handle, rng, step)
            step += 1
            prop_total += _timed(engine.propagate, gc_enabled)
        else:

            def one_batch():
                nonlocal step
                with session.batch():
                    for _ in range(group):
                        app.apply_change(session.input_handle, rng, step)
                        step += 1

            prop_total += _timed(one_batch, gc_enabled)
        passes += 1
    avg_prop = prop_total / passes if passes else float("nan")
    after_prop = engine.meter.snapshot()

    row = BenchRow(
        name=app.name,
        n=n,
        conv_run=conv_time,
        sa_run=sa_time,
        avg_prop=avg_prop,
        trace_size=max(trace_size, engine.trace_size()),
        mods_created=mods,
        prop_samples=prop_samples,
    )
    row.extra["phases"] = {
        "initial-run": _phase(sa_time, before_run, after_run),
        "propagation": _phase(
            prop_total, after_run, after_prop, samples=max(passes, 1)
        ),
    }
    if batch > 1:
        row.extra["batch"] = batch
    return row
