"""Demand-relevance regressions first written against the summaries.

Lazy engines answer one question constantly: *does this dirty cell feed
the demanded target?*  These tests were written when two answers
existed -- maintained reverse-reachability summaries and the memoized
DFS (``Engine._feeds``) with its exact demand-exit suspect recompute --
and compared the two.  The summaries are deleted; the DFS is the only
relevance filter.  The scenarios that shook bugs out of either filter
keep their names here and now hold the DFS to references that do not
depend on any relevance filter: the app's pure reference function, an
eager twin, and a from-scratch run.

Sections:

1. **Differential**: stepwise (with a head-only ``get`` before every
   whole-output demand, the pattern that left tail cells stale under
   the summaries) and burst, across apps and backends.
2. **Chaos**: budget-interrupted resumes and the keyed-mod hazard unwind.
3. **Unit**: sibling cones surviving a partial demand, and a full
   propagate on a lazy engine leaving nothing suspect.
"""

import random

import pytest

from repro.api import Session, values_close
from repro.apps import REGISTRY
from repro.obs.invariants import check_trace
from repro.sac.engine import Engine
from repro.sac.exceptions import PropagationBudgetExceeded
from repro.sac.modifiable import Modifiable

BACKENDS = ["interp", "stack"]

#: Apps with structurally distinct traces: keyed sharing (msort),
#: data-dependent partitions (qsort), cutoffs (filter), tuple-heavy
#: output (mat-add), and a flat numeric pipeline (vec-mult).
APPS = {
    "filter": (16, 6),
    "qsort": (16, 6),
    "msort": (16, 6),
    "vec-mult": (16, 6),
    "mat-add": (6, 4),
}


def _expected(app, session):
    """The app's pure reference on the session's current input."""
    return app.reference(app.handle_data(session.input_handle))


def _head(value):
    """The first modifiable of an output (a tuple output's first leaf)."""
    while not isinstance(value, Modifiable):
        value = value[0]
    return value


def _scratch(app, session):
    """A from-scratch run of the session's program on its current input."""
    fresh = Session(app, backend=session.backend)
    return app.readback(fresh.run(data=app.handle_data(session.input_handle)))


# ----------------------------------------------------------------------
# 1. Differential: stepwise and burst


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(APPS))
def test_summary_matches_dfs_stepwise(name, backend):
    """Per change, a head-only ``get`` and then a whole-output demand;
    the demanded output must equal the reference after every step."""
    app = REGISTRY[name]
    n, changes = APPS[name]
    rng = random.Random(7)
    session = Session(app, backend=backend, mode="lazy")
    out = session.run(data=app.make_data(n, rng))
    for step in range(changes):
        app.apply_change(session.input_handle, rng, step)
        session.get(_head(out))
        session.demand()
        assert values_close(app.readback(out), _expected(app, session)), (
            f"{name} [{backend}]: demanded output stale at step {step}"
        )
    check_trace(session.engine)


@pytest.mark.parametrize("name", sorted(APPS))
def test_summary_matches_dfs_after_edit_burst(name):
    """All edits staged, then one demand: the burst regime where the
    most rewiring happens between relevance queries.  The result equals
    a from-scratch run, and a second demand is free."""
    app = REGISTRY[name]
    n, changes = APPS[name]
    rng = random.Random(29)
    session = Session(app, backend="interp", mode="lazy")
    out = session.run(data=app.make_data(n, rng))
    for step in range(changes):
        app.apply_change(session.input_handle, rng, step)
    session.demand()
    assert values_close(app.readback(out), _scratch(app, session))
    again = session.demand()
    assert again.reexecuted == 0 and again.drained == 0


def test_summary_deep_burst_matches_eager():
    """The scenario that shook out the monotone-drain bug: msort at
    n=128, 32 staged edits, one deep demand, against the eager twin and
    the reference; the DFS filter must have been consulted."""
    app = REGISTRY["msort"]
    rng_e, rng_l = random.Random(3), random.Random(3)
    eager = Session(app)
    lazy = Session(app, mode="lazy")
    out_e = eager.run(data=app.make_data(128, rng_e))
    out_l = lazy.run(data=app.make_data(128, rng_l))
    for step in range(32):
        app.apply_change(eager.input_handle, rng_e, step)
        eager.propagate()
        app.apply_change(lazy.input_handle, rng_l, step)
    lazy.demand()
    assert values_close(app.readback(out_e), app.readback(out_l))
    assert values_close(app.readback(out_l), _expected(app, lazy))
    assert lazy.engine.meter.feeds_dfs_visits > 0
    check_trace(lazy.engine)


# ----------------------------------------------------------------------
# 2. Chaos: interrupted demands and hazard unwinds


def _cone(engine, source, label, calls):
    """One modifiable computed from ``source``; counts reader runs."""

    def comp(dest):
        def reader(v):
            calls[label] = calls.get(label, 0) + 1
            engine.write(dest, v * 10)

        engine.read(source, reader)

    return engine.mod(comp)


@pytest.mark.parametrize("meter", ["feeds_dfs_visits"], ids=["dfs"])
def test_budget_interrupted_demand_resumes(meter):
    """Interruption mid-drain leaves suspicion sound: the resumed demand
    completes, and the relevance filter's work meter shows it ran."""
    engine = Engine(mode="lazy")
    x = engine.make_input(1)

    def mid_comp(dest):
        engine.read(x, lambda v: engine.write(dest, v + 1))

    mid = engine.mod(mid_comp)
    calls = {}
    top = _cone(engine, mid, "top", calls)
    assert engine.demand(top) == 20
    engine.change(x, 10)
    with pytest.raises(PropagationBudgetExceeded):
        engine.demand(top, budget=1)
    assert top.suspect
    assert engine.demand(top) == 110
    assert not top.suspect
    assert getattr(engine.meter, meter) > 0
    check_trace(engine, expect_empty_queue=True)


def test_hazard_unwind_with_oracle():
    """The keyed-mod hazard reproducer (msort, 16-edit burst, head-only
    force): the widen-and-retry path must fire, every unwind must leave
    the trace whole, and the follow-up demand must equal a from-scratch
    run and the reference."""
    app = REGISTRY["msort"]
    rng = random.Random(3)
    session = Session(app, mode="lazy")
    out = session.run(data=app.make_data(64, rng))
    for step in range(16):
        app.apply_change(session.input_handle, rng, step)
    session.get(out)
    assert session.engine.meter.demand_hazards > 0
    check_trace(session.engine)
    session.demand()
    check_trace(session.engine)
    got = app.readback(out)
    assert values_close(got, _scratch(app, session))
    assert values_close(got, _expected(app, session))


# ----------------------------------------------------------------------
# 3. Unit


def test_sibling_cone_stays_suspect_after_partial_demand():
    """Demanding y1 must not bleach y2's suspicion: the sibling's dirt
    is still queued and still reaches it."""
    engine = Engine(mode="lazy")
    calls = {}
    x1, x2 = engine.make_input(1), engine.make_input(2)
    y1 = _cone(engine, x1, "y1", calls)
    y2 = _cone(engine, x2, "y2", calls)
    engine.change(x1, 5)
    engine.change(x2, 7)
    assert engine.demand(y1) == 50
    assert calls == {"y1": 2, "y2": 1}
    assert y2.suspect and not y1.suspect
    assert y2 in engine._suspect_mods and y1 not in engine._suspect_mods
    assert engine.demand(y2) == 70
    assert calls["y2"] == 2
    assert not engine._suspect_mods
    check_trace(engine, expect_empty_queue=True)


def test_full_propagate_resets_dirty_roots():
    """An eager-style flush on a lazy engine after a demand leaves no
    suspect behind, and the next demand is served clean."""
    engine = Engine(mode="lazy")
    x = engine.make_input(1)
    calls = {}
    y = _cone(engine, x, "y", calls)
    engine.demand(y)
    engine.change(x, 2)
    engine.propagate()
    assert not engine._suspect_mods
    assert not y.suspect and not x.suspect
    clean = engine.meter.demands_clean
    assert engine.demand(y) == 20
    assert engine.meter.demands_clean == clean + 1
    assert calls["y"] == 2
