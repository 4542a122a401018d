"""The engine's GC discipline (DESIGN.md Section 3.1).

``Engine.propagate``, ``Engine.demand`` and the initial run in
``Session.run`` pause CPython's cyclic collector through
:func:`repro.sac.gcpause.gc_paused`.  The contract pinned here, on every
backend and on a stack session restored from its checkpoint (the
``compiled`` case, ``tests/cases.py``), in both propagation modes:

* no automatic collection starts inside a propagate or demand body;
* the caller's collector state comes back on every exit path -- a normal
  return, a budget overrun, a re-execution fault recovered by rollback,
  and a ``KeyboardInterrupt``;
* a caller who disabled the collector still has it disabled afterwards.
"""

import gc
import inspect
import random
import sys

import pytest

from repro.api import Session
from repro.apps import REGISTRY
from repro.obs.faults import FaultInjector
from repro.sac.engine import Engine
from repro.sac.exceptions import PropagationBudgetExceeded
from repro.sac.gcpause import gc_paused

from .cases import CASES, start

MODES = ["eager", "lazy"]
N = 64
EDITS = 8

APP = REGISTRY["msort"]
#: The bodies the pause must cover (unwrapped past any decorator).
ENTRY_CODES = {
    inspect.unwrap(Engine.propagate).__code__: "propagate",
    inspect.unwrap(Engine.demand).__code__: "demand",
}


@pytest.fixture(params=[(c, m) for c in CASES for m in MODES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def session(request):
    case, mode = request.param
    rng = random.Random(7)
    s = start(APP, case, APP.make_data(N, rng), mode=mode)
    s.rng = rng
    s.step = 0
    return s


@pytest.fixture
def frequent_gc():
    """Make automatic collections frequent, so an unpaused drain of a few
    hundred allocations would be sure to start one."""
    thresholds = gc.get_threshold()
    enabled = gc.isenabled()
    gc.set_threshold(50, 2, 2)
    gc.enable()
    yield
    gc.set_threshold(*thresholds)
    if not enabled:
        gc.disable()


def edit(s, count=1):
    for _ in range(count):
        APP.apply_change(s.input_handle, s.rng, s.step)
        s.step += 1


def settle(s, **kw):
    """Bring the output up to date through the mode's entry point."""
    if s.mode == "lazy":
        return s.demand(**kw)
    return s.propagate(**kw)


def assert_consistent(s):
    settle(s)
    expected = APP.reference(APP.handle_data(s.input_handle))
    assert APP.readback(s.output) == expected


def test_no_collection_starts_inside_propagate_or_demand(session, frequent_gc):
    inside = []
    started = [0]

    def on_gc(phase, info):
        if phase != "start":
            return
        started[0] += 1
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in ENTRY_CODES:
                inside.append((ENTRY_CODES[frame.f_code], info["generation"]))
                return
            frame = frame.f_back

    gc.callbacks.append(on_gc)
    try:
        for _ in range(EDITS):
            edit(session)
            settle(session)
    finally:
        gc.callbacks.remove(on_gc)
    assert started[0] > 0, "the counter saw no collection at all"
    assert inside == []
    assert gc.isenabled()  # restored after every normal return
    assert_consistent(session)


def test_budget_overrun_restores_enabled(session):
    edit(session, 4)
    with pytest.raises(PropagationBudgetExceeded):
        settle(session, budget=1)
    assert gc.isenabled()
    assert_consistent(session)


def test_injected_fault_with_rollback_restores_enabled(session):
    injector = FaultInjector("write", at=0)
    session.engine.attach_hook(injector)
    edit(session, 2)
    settle(session, on_error="rollback")
    assert injector.fired == 1
    assert session.engine.meter.rollbacks == 1
    assert gc.isenabled()
    assert_consistent(session)


def test_keyboard_interrupt_restores_enabled(session):
    session.engine.attach_hook(
        FaultInjector("write", at=0, exc=KeyboardInterrupt)
    )
    edit(session, 2)
    with pytest.raises(KeyboardInterrupt):
        settle(session)
    assert gc.isenabled()
    assert_consistent(session)


def test_caller_disabled_collector_stays_disabled(session):
    gc.disable()
    try:
        edit(session)
        settle(session)
        assert not gc.isenabled()
        edit(session, 4)
        with pytest.raises(PropagationBudgetExceeded):
            settle(session, budget=1)
        assert not gc.isenabled()
        session.rebuild()  # Session.run's pause
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert_consistent(session)


def test_initial_run_restores_enabled_on_fault():
    session = Session(APP)
    session.engine.attach_hook(FaultInjector("read", at=3, during="run"))
    with pytest.raises(Exception):
        session.run(data=APP.make_data(N, random.Random(0)))
    assert gc.isenabled()


def test_gc_paused_nests_and_restores():
    states = []

    @gc_paused
    def inner():
        states.append(gc.isenabled())

    @gc_paused
    def outer():
        inner()
        states.append(gc.isenabled())

    @gc_paused
    def fails():
        raise ValueError

    assert gc.isenabled()
    outer()
    assert states == [False, False]
    assert gc.isenabled()
    with pytest.raises(ValueError):
        fails()
    assert gc.isenabled()
