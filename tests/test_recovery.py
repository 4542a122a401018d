"""Exception-safe propagation: transactional aborts, poisoning, rollback,
rebuild, and interrupted-propagation resume (DESIGN.md Section 7).

The regression at the heart of this file: a reader that raises during
re-execution used to skip the splice-out and cursor restore, silently
corrupting the DDG while leaving the engine superficially usable.  Now the
abort is transactional -- the trace stays structurally consistent (checked
with ``obs.invariants.check_trace``), the failing edge stays queued, and
the session has typed recovery paths.
"""

import random
import sys

import pytest

from repro.api import PropagationBudgetExceeded, Session
from repro.apps import REGISTRY
from repro.obs import FanoutHook, check_trace
from repro.obs.faults import FaultInjector, PlantedFault
from repro.sac import (
    Engine,
    EnginePoisonedError,
    RecursionReexecutionError,
    ReexecutionError,
)
from repro.sac.exceptions import PropagationError

from .cases import CASES, start


class Flaky:
    """A reader body that raises while ``broken`` is set.

    With a ``trigger`` value, only observations of that value raise --
    modelling a fault in the *new* input (so re-running with the old
    input, as rollback recovery does, succeeds).
    """

    def __init__(self, trigger=None):
        self.broken = False
        self.trigger = trigger
        self.runs = 0

    def maybe_raise(self, value=None):
        self.runs += 1
        if self.broken and (self.trigger is None or value == self.trigger):
            raise ValueError("flaky reader")


def flaky_chain(engine, m, flaky):
    """out = m * 2, via a reader that consults ``flaky`` every run."""

    def reader(dest, v):
        flaky.maybe_raise(v)
        engine.write(dest, v * 2)

    return engine.mod(
        lambda dest: engine.read(m, lambda v: reader(dest, v))
    )


# ----------------------------------------------------------------------
# Transactional re-execution (the satellite regression + tentpole core)


def test_raising_reader_aborts_transactionally_and_retries():
    engine = Engine()
    flaky = Flaky()
    m = engine.make_input(3)
    out = flaky_chain(engine, m, flaky)
    assert out.peek() == 6

    flaky.broken = True
    engine.change(m, 5)
    with pytest.raises(ReexecutionError) as exc_info:
        engine.propagate()
    err = exc_info.value
    assert isinstance(err.original, ValueError)
    assert err.consistent is True
    assert err.reexecuted == 0
    assert err.pending >= 1
    assert err.edge is not None and err.edge.dirty
    assert err.__cause__ is err.original

    # The trace is structurally whole, the failing edge still queued.
    check_trace(engine, expect_quiescent=True, expect_empty_queue=False)
    assert not engine.poisoned
    assert engine.meter.reexec_aborts == 1

    # Output is stale (last-good), not garbage.
    assert out.peek() == 6

    # Retry after the environment is fixed: the queued edge re-runs.
    flaky.broken = False
    assert engine.propagate() == 1
    assert out.peek() == 10
    check_trace(engine, expect_quiescent=True, expect_empty_queue=True)


def test_abort_preserves_successful_predecessor_reexecutions():
    """An abort midway through a pass keeps the reads that already re-ran."""
    engine = Engine()
    flaky = Flaky()
    a = engine.make_input(1)
    b = engine.make_input(10)
    doubled = engine.mod(
        lambda dest: engine.read(a, lambda v: engine.write(dest, v * 2))
    )
    tail = flaky_chain(engine, b, flaky)

    flaky.broken = True
    engine.change(a, 2)
    engine.change(b, 20)
    with pytest.raises(ReexecutionError) as exc_info:
        engine.propagate()
    # The ``a`` read (earlier timestamp) completed before the abort.
    assert exc_info.value.reexecuted == 1
    assert doubled.peek() == 4
    assert tail.peek() == 20  # stale last-good

    flaky.broken = False
    engine.propagate()
    assert tail.peek() == 40


def test_nested_partial_trace_is_spliced_out_on_abort():
    """A reader that builds nested structure before raising must not leak
    any of it into the trace."""
    engine = Engine()
    flaky = Flaky()
    m = engine.make_input(3)

    def reader(dest, v):
        inner = engine.mod(
            lambda d: engine.read(m, lambda w: engine.write(d, w + 1))
        )
        flaky.maybe_raise()
        engine.read(inner, lambda w: engine.write(dest, w * 10))

    out = engine.mod(lambda dest: engine.read(m, lambda v: reader(dest, v)))
    assert out.peek() == 40
    size_before = engine.trace_size()

    flaky.broken = True
    engine.change(m, 7)
    with pytest.raises(ReexecutionError):
        engine.propagate()
    check_trace(engine, expect_quiescent=True, expect_empty_queue=False)

    flaky.broken = False
    engine.propagate()
    assert out.peek() == 80
    # No leaked partial structure: same shape as an untroubled update.
    assert engine.trace_size() == size_before


def test_keyboard_interrupt_cleans_up_but_is_not_wrapped():
    engine = Engine()
    flaky = Flaky()
    m = engine.make_input(1)
    out = flaky_chain(engine, m, flaky)

    class Boom(KeyboardInterrupt):
        pass

    def raise_interrupt():
        raise Boom()

    flaky.maybe_raise = lambda value=None: (
        raise_interrupt() if flaky.broken else None
    )
    flaky.broken = True
    engine.change(m, 2)
    with pytest.raises(Boom):
        engine.propagate()
    # Cleanup ran anyway: consistent trace, edge requeued, not poisoned.
    check_trace(engine, expect_quiescent=True, expect_empty_queue=False)
    assert not engine.poisoned
    flaky.broken = False
    engine.propagate()
    assert out.peek() == 4


def test_recursion_error_is_typed_with_limit_hint():
    engine = Engine()
    deep = Flaky()

    def bottomless():
        bottomless()

    deep.maybe_raise = lambda value=None: bottomless() if deep.broken else None
    m = engine.make_input(1)
    out = flaky_chain(engine, m, deep)
    assert out.peek() == 2

    deep.broken = True
    engine.change(m, 2)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(300)  # force the overflow quickly
    try:
        with pytest.raises(RecursionReexecutionError) as exc_info:
            engine.propagate()
    finally:
        sys.setrecursionlimit(saved)
    message = str(exc_info.value)
    assert "REPRO_RECURSION_LIMIT" in message
    assert isinstance(exc_info.value.original, RecursionError)
    # Same recovery contract as any other ReexecutionError.
    assert exc_info.value.consistent
    deep.broken = False
    engine.propagate()
    assert out.peek() == 4


def test_recursion_limit_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_RECURSION_LIMIT", "750000")
    assert Engine().recursion_limit == 750_000


# ----------------------------------------------------------------------
# Poisoning


def _poisoned_engine():
    """Make abort cleanup itself fail: the engine must poison itself."""
    engine = Engine()
    flaky = Flaky()
    m = engine.make_input(3)
    out = flaky_chain(engine, m, flaky)

    def broken_delete(a, b):
        raise RuntimeError("cleanup failure")

    engine._delete_range = broken_delete
    flaky.broken = True
    engine.change(m, 5)
    with pytest.raises(ReexecutionError) as exc_info:
        engine.propagate()
    assert exc_info.value.consistent is False
    return engine, m, out


def test_failed_abort_cleanup_poisons_engine():
    engine, _, _ = _poisoned_engine()
    assert engine.poisoned
    assert "cleanup failure" in engine._poison


def test_poisoned_engine_refuses_all_work():
    engine, m, _ = _poisoned_engine()
    for op in (
        lambda: engine.make_input(1),
        lambda: engine.change(m, 9),
        lambda: engine.propagate(),
        lambda: engine.rollback(),
        lambda: engine.keyed_mod("k", lambda dest: engine.write(dest, 1)),
        lambda: engine.batch().__enter__(),
        lambda: engine.mod(lambda dest: engine.write(dest, 1)),
    ):
        with pytest.raises(EnginePoisonedError) as exc_info:
            op()
        assert exc_info.value.reason  # carries the poisoning cause


# ----------------------------------------------------------------------
# Transactional initial runs


def test_failed_mod_truncates_partial_trace():
    engine = Engine()
    m = engine.make_input(3)
    ok = engine.mod(
        lambda dest: engine.read(m, lambda v: engine.write(dest, v + 1))
    )
    size_before = engine.trace_size()

    def exploding(dest):
        engine.read(m, lambda v: engine.write(dest, v))
        raise RuntimeError("late failure")

    with pytest.raises(RuntimeError):
        engine.mod(exploding)
    # The partial trace is gone; earlier structure is untouched.
    assert engine.trace_size() == size_before
    assert engine.meter.run_aborts == 1
    check_trace(engine, expect_quiescent=True, expect_empty_queue=True)

    # The engine still works end to end.
    engine.change(m, 10)
    engine.propagate()
    assert ok.peek() == 11


def test_session_run_failure_is_transactional():
    app = REGISTRY["msort"]
    rng = random.Random(0)
    data = app.make_data(12, rng)
    injector = FaultInjector("write", at=5, during="run")
    session = Session(app, backend="interp", hook=injector)
    with pytest.raises(PlantedFault):
        session.run(data=data)
    assert injector.fired == 1
    check_trace(session.engine, expect_quiescent=True, expect_empty_queue=True)

    # The injector is spent; the same session reruns cleanly.
    output = session.run(data=data)
    assert app.readback(output) == app.reference(data)


# ----------------------------------------------------------------------
# Rollback (engine- and session-level)


def test_engine_rollback_restores_last_good_and_restages():
    engine = Engine()
    # The fault is in the *new* value: re-running with the old input (what
    # rollback recovery does after the undo) succeeds.
    flaky = Flaky(trigger=30)
    a = engine.make_input(1)
    b = engine.make_input(10)
    out = flaky_chain(engine, b, flaky)
    doubled = engine.mod(
        lambda dest: engine.read(a, lambda v: engine.write(dest, v * 2))
    )

    flaky.broken = True
    engine.change(a, 3)
    engine.change(b, 30)
    with pytest.raises(ReexecutionError):
        engine.propagate()

    undone, recovered, restaged = engine.rollback()
    assert undone == 2
    assert restaged == 2
    assert engine.meter.rollbacks == 1
    # Last-good state: outputs reflect the pre-edit inputs again...
    assert out.peek() == 20
    assert doubled.peek() == 2
    # ...and the edits are re-staged, not lost.
    flaky.broken = False
    engine.propagate()
    assert out.peek() == 60
    assert doubled.peek() == 6
    check_trace(engine, expect_quiescent=True, expect_empty_queue=True)


def test_rollback_journal_resets_after_complete_propagation():
    engine = Engine()
    m = engine.make_input(1)
    out = engine.mod(
        lambda dest: engine.read(m, lambda v: engine.write(dest, v + 1))
    )
    engine.change(m, 5)
    engine.propagate()
    # The propagated edit is the new last-good state: nothing to undo.
    assert engine.rollback() == (0, 0, 0)
    assert out.peek() == 6


def test_rollback_refused_during_batch():
    engine = Engine()
    engine.make_input(1)
    with engine.batch():
        with pytest.raises(PropagationError):
            engine.rollback()


def test_session_rollback_path():
    app = REGISTRY["msort"]
    rng = random.Random(0)
    data = app.make_data(16, rng)
    original = list(data)
    injector = FaultInjector("read", at=1)
    session = Session(app, backend="interp", hook=injector)
    output = session.run(data=data)

    app.apply_change(session.input_handle, rng, 0)
    stats = session.propagate(on_error="rollback")
    assert stats.path == "rollback"
    assert stats.undone >= 1
    assert stats.restaged == stats.undone
    assert isinstance(stats.error, ReexecutionError)
    # Rolled back to last-good: the output matches the *original* data.
    assert app.readback(output) == app.reference(original)

    # The edits were re-staged; a plain propagate applies them now.
    session.propagate()
    current = app.handle_data(session.input_handle)
    assert current != original
    assert app.readback(output) == app.reference(current)
    check_trace(session.engine, expect_quiescent=True, expect_empty_queue=True)


def test_session_rollback_reraises_when_poisoned():
    engine, m, _ = _poisoned_engine()
    session = Session(REGISTRY["msort"], engine=engine)
    with pytest.raises(EnginePoisonedError):
        session.propagate(on_error="rollback")


# ----------------------------------------------------------------------
# Rebuild (from-scratch fallback)


def test_session_rebuild_path_escapes_persistent_fault():
    app = REGISTRY["msort"]
    rng = random.Random(0)
    data = app.make_data(16, rng)
    injector = FaultInjector("read", at=0, repeat=True)  # persistent
    session = Session(app, backend="interp", hook=injector)
    session.run(data=data)
    old_engine = session.engine

    app.apply_change(session.input_handle, rng, 0)
    stats = session.propagate(on_error="rebuild")
    assert stats.path == "rebuild"
    assert isinstance(stats.error, ReexecutionError)
    assert session.rebuilds == 1
    assert session.engine is not old_engine
    # The faulty hook is deliberately left behind on the old engine.
    assert session.engine.hook is None

    current = app.handle_data(session.input_handle)
    assert app.readback(session.output) == app.reference(current)
    # The rebuilt session keeps working incrementally.
    app.apply_change(session.input_handle, rng, 1)
    assert session.propagate().path == "propagate"
    current = app.handle_data(session.input_handle)
    assert app.readback(session.output) == app.reference(current)
    assert session.stats()["rebuilds"] == 1


def test_persistent_fault_rollback_poisons_then_rebuild_recovers():
    """The full degradation chain: persistent fault -> rollback recovery
    itself fails -> engine poisoned -> rebuild still saves the session."""
    app = REGISTRY["msort"]
    rng = random.Random(0)
    data = app.make_data(16, rng)
    injector = FaultInjector("read", at=0, repeat=True)
    session = Session(app, backend="interp", hook=injector)
    session.run(data=data)

    app.apply_change(session.input_handle, rng, 0)
    # Rollback's recovery propagation re-hits the persistent fault: the
    # engine cannot restore any consistent state and poisons itself.
    with pytest.raises(ReexecutionError):
        session.propagate(on_error="rollback")
    assert session.engine.poisoned
    with pytest.raises(EnginePoisonedError):
        session.propagate()

    # Rebuild replaces the engine outright, so it recovers even now.
    stats = session.propagate(on_error="rebuild")
    assert stats.path == "rebuild"
    assert isinstance(stats.error, EnginePoisonedError)
    assert not session.engine.poisoned
    current = app.handle_data(session.input_handle)
    assert app.readback(session.output) == app.reference(current)


def test_rebuild_requires_app_and_handle():
    session = Session("msort")
    with pytest.raises(ValueError):
        session.rebuild()


def test_propagate_rejects_unknown_on_error():
    session = Session("msort")
    with pytest.raises(ValueError):
        session.propagate(on_error="ignore")


# ----------------------------------------------------------------------
# Interrupted propagation: budget/deadline resume (satellite coverage),
# per backend and on a restored stack session (``compiled``, tests/cases.py)


def _staged_session(app, backend, *, n=24, seed=3):
    rng = random.Random(seed)
    session = start(app, backend, app.make_data(n, rng))
    app.apply_change(session.input_handle, rng, 0)
    return session


@pytest.mark.parametrize("backend", CASES)
def test_deadline_interrupt_then_resume_matches_uninterrupted(backend):
    app = REGISTRY["msort"]
    interrupted = _staged_session(app, backend)
    with pytest.raises(PropagationBudgetExceeded) as exc_info:
        interrupted.propagate(deadline=0.0)
    assert exc_info.value.pending > 0
    assert exc_info.value.reexecuted == 0
    resumed = interrupted.propagate()  # unbounded resume finishes the pass
    assert resumed.path == "propagate"

    uninterrupted = _staged_session(app, backend)
    uninterrupted.propagate()
    assert app.readback(interrupted.output) == app.readback(uninterrupted.output)
    assert interrupted.trace_size() == uninterrupted.trace_size()
    check_trace(interrupted.engine, expect_quiescent=True, expect_empty_queue=True)


@pytest.mark.parametrize("backend", CASES)
def test_budget_single_step_resume_loop_matches_uninterrupted(backend):
    app = REGISTRY["msort"]
    interrupted = _staged_session(app, backend)
    interrupts = 0
    while True:
        try:
            interrupted.propagate(budget=1)
        except PropagationBudgetExceeded:
            interrupts += 1
            continue
        break
    assert interrupts > 0  # the change really was split across passes

    uninterrupted = _staged_session(app, backend)
    stats = uninterrupted.propagate()
    assert interrupts + 1 >= stats.reexecuted  # every pass made progress
    assert app.readback(interrupted.output) == app.readback(uninterrupted.output)
    assert interrupted.trace_size() == uninterrupted.trace_size()
