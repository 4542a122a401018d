"""Demand-driven (lazy) propagation: differential grid, metamorphic
properties, and regression pins.

Lazy mode (``Session(mode="lazy")`` / ``Engine(mode="lazy")``) replaces
the eager drain-everything discipline with *suspect marking* at edit time
and a restricted drain at demand time: only dirty reads whose destination
chain feeds the demanded modifiable re-execute.  The correctness contract
is threefold, and each part gets its own section here:

1. **Differential**: for every registered app, on both backends, a lazy
   session demanding its output after each change produces exactly the
   eager session's outputs and the from-scratch oracle's outputs.
2. **Metamorphic / meter-exact**: a burst of edits followed by one demand
   equals per-edit eager propagation; a second demand of the same output
   re-executes *nothing* (meter deltas are zero); dirty work in a cone
   nobody demands runs zero user code.
3. **Regression**: the suspect-clearing bug class -- a mod that both
   feeds the demanded target and retains a second, deferred dirty feeder
   must stay suspect, or a later demand fast-paths a stale value.  Pinned
   at the exact msort scenarios that exposed it and at unit scale.

Multi-target demand, lazy batches, and recovery and snapshots taken
mid-laziness follow in their own sections.
"""

import random

import pytest

from repro.api import Session, oracle_app, values_close, verify_app
from repro.apps import REGISTRY
from repro.obs.invariants import InvariantChecker, check_trace
from repro.sac.engine import Engine
from repro.sac.exceptions import PropagationBudgetExceeded, PropagationError

BACKENDS = ["interp", "stack"]

#: Same shape as test_backends_differential.APP_SIZES: per-app input size
#: and change count, small because the grid runs every app twice per test.
APP_SIZES = {
    "map": (16, 6),
    "filter": (16, 6),
    "reverse": (16, 6),
    "split": (16, 6),
    "qsort": (16, 6),
    "msort": (16, 6),
    "vec-reduce": (16, 6),
    "vec-mult": (16, 6),
    "mat-vec-mult": (6, 4),
    "mat-add": (6, 4),
    "transpose": (6, 4),
    "mat-mult": (4, 4),
    "block-mat-mult": (8, 3),
    "raytracer": (4, 2),
}

#: A representative subset for the more expensive property tests: list
#: apps with real sharing (msort's keyed spine, qsort's partitions), a
#: cutoff-heavy app (filter), and a matrix app (tuple-structured output).
PROPERTY_APPS = ["filter", "qsort", "msort", "vec-mult", "mat-add"]


# ----------------------------------------------------------------------
# 1. The differential grid


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(APP_SIZES))
def test_lazy_consistent_with_from_scratch(name, backend):
    """Per change: demand the full output, compare against a fresh
    session on the current data and the reference function, with the
    invariant checker (including the suspicion-closure check) riding
    along."""
    n, changes = APP_SIZES[name]
    oracle_app(name, n, changes, mode="lazy", backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(APP_SIZES))
def test_lazy_matches_eager_stepwise(name, backend):
    """Twin sessions, identical change streams: after every change the
    lazy session's demanded output equals the eager session's propagated
    output."""
    app = REGISTRY[name]
    n, changes = APP_SIZES[name]
    rng_e, rng_l = random.Random(11), random.Random(11)
    eager = Session(app, backend=backend)
    lazy = Session(app, backend=backend, mode="lazy")
    out_e = eager.run(data=app.make_data(n, rng_e))
    out_l = lazy.run(data=app.make_data(n, rng_l))
    assert values_close(app.readback(out_e), app.readback(out_l))
    for step in range(changes):
        app.apply_change(eager.input_handle, rng_e, step)
        app.apply_change(lazy.input_handle, rng_l, step)
        eager.propagate()
        stats = lazy.demand()
        assert stats.path == "demand"
        assert values_close(app.readback(out_e), app.readback(out_l)), (
            f"{name} [{backend}]: lazy output diverges from eager "
            f"after change {step}"
        )


@pytest.mark.parametrize("name", PROPERTY_APPS)
def test_lazy_meter_parity_between_backends(name):
    """Both backends call the engine identically, so a lazy trail's meter
    snapshots (including the demand counters) must be identical too."""
    n, changes = APP_SIZES[name]

    def trail(backend):
        app = REGISTRY[name]
        rng = random.Random(5)
        session = Session(app, backend=backend, mode="lazy")
        out = session.run(data=app.make_data(n, rng))
        snaps = [session.engine.meter.snapshot()]
        for step in range(changes):
            app.apply_change(session.input_handle, rng, step)
            session.demand()
            snaps.append((app.readback(out), session.engine.meter.snapshot()))
        return snaps

    assert trail("interp") == trail("stack")


def test_verify_app_lazy_mode():
    result = verify_app("msort", 16, 6, mode="lazy")
    assert result.changes == 6


# ----------------------------------------------------------------------
# 2. Metamorphic properties and meter-exact laziness


@pytest.mark.parametrize("name", PROPERTY_APPS)
def test_demand_after_edit_burst_matches_eager(name):
    """N edits then ONE demand == N alternating edit/propagate rounds."""
    app = REGISTRY[name]
    n, changes = APP_SIZES[name]
    rng_e, rng_l = random.Random(23), random.Random(23)
    eager = Session(app)
    lazy = Session(app, mode="lazy")
    out_e = eager.run(data=app.make_data(n, rng_e))
    out_l = lazy.run(data=app.make_data(n, rng_l))
    for step in range(changes):
        app.apply_change(eager.input_handle, rng_e, step)
        eager.propagate()
        app.apply_change(lazy.input_handle, rng_l, step)
    lazy.demand()
    assert values_close(app.readback(out_e), app.readback(out_l))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", PROPERTY_APPS)
def test_second_demand_is_free(name, backend):
    """Demanding an already-demanded output does zero propagation work:
    no re-executions, no queue drains, every walked mod already clean."""
    app = REGISTRY[name]
    n, changes = APP_SIZES[name]
    rng = random.Random(3)
    session = Session(app, backend=backend, mode="lazy")
    session.run(data=app.make_data(n, rng))
    for step in range(changes):
        app.apply_change(session.input_handle, rng, step)
    session.demand()

    meter = session.engine.meter
    before = meter.snapshot()
    stats = session.demand()
    after = meter.snapshot()
    assert stats.reexecuted == 0
    assert stats.drained == 0
    assert stats.skipped_clean == stats.demanded
    assert after["edges_reexecuted"] == before["edges_reexecuted"]
    assert after["queue_drained"] == before["queue_drained"]
    assert (
        after["demands_clean"] - before["demands_clean"] == stats.demanded
    )


def _cone(engine, source, label, calls):
    """One modifiable computed from ``source``; counts reader runs."""

    def comp(dest):
        def reader(v):
            calls[label] = calls.get(label, 0) + 1
            engine.write(dest, v * 10)

        engine.read(source, reader)

    return engine.mod(comp)


def test_undemanded_cone_does_zero_work():
    """Two independent cones; demanding one must not run the other's
    reader, and its dirty edge stays queued and suspect for later."""
    engine = Engine(mode="lazy")
    calls = {}
    x1, x2 = engine.make_input(1), engine.make_input(2)
    y1 = _cone(engine, x1, "y1", calls)
    y2 = _cone(engine, x2, "y2", calls)
    engine.change(x1, 5)
    engine.change(x2, 7)

    assert engine.demand(y1) == 50
    assert calls == {"y1": 2, "y2": 1}  # y2 ran only in the initial run
    assert len(engine.queue) == 1  # y2's edge deferred, not dropped
    assert engine.meter.demand_deferred >= 1
    assert y2.suspect and not y1.suspect
    check_trace(engine)  # closure invariant holds mid-laziness

    assert engine.demand(y2) == 70
    assert calls["y2"] == 2
    assert not engine.queue
    check_trace(engine, expect_empty_queue=True)


def test_demand_counters_stay_zero_on_eager_engines():
    engine = Engine()
    m = engine.make_input(3)
    engine.change(m, 4)
    engine.propagate()
    snap = engine.meter.snapshot()
    assert snap["demands"] == 0
    assert snap["demands_clean"] == 0
    assert snap["suspect_marks"] == 0
    assert snap["demand_deferred"] == 0


def test_demand_requires_lazy_engine_and_session():
    engine = Engine()
    m = engine.make_input(1)
    with pytest.raises(PropagationError):
        engine.demand(m)
    with pytest.raises(ValueError):
        Session("map").demand()
    with pytest.raises(ValueError):
        Session("map", engine=Engine(), mode="lazy")
    with pytest.raises(ValueError):
        Session("map", mode="sometimes")
    # batch > 1 under lazy mode is supported: the batch stages, the
    # following demand drains (see test_lazy_batch_* below).
    verify_app("map", 8, 2, mode="lazy", batch=2)


def test_session_adopts_engine_mode():
    lazy_engine = Engine(mode="lazy")
    session = Session("map", engine=lazy_engine)
    assert session.mode == "lazy"


def test_session_get_peeks_in_eager_mode():
    session = Session("map")
    rng = random.Random(0)
    out = session.run(data=session.app.make_data(8, rng))
    assert session.get(out) is out.peek()


def test_full_propagate_clears_all_suspicion():
    engine = Engine(mode="lazy")
    calls = {}
    x = engine.make_input(1)
    y = _cone(engine, x, "y", calls)
    engine.change(x, 2)
    assert y.suspect
    engine.propagate()
    assert not y.suspect
    assert not engine._suspect_mods
    assert engine.demand(y) == 20
    assert engine.meter.demands_clean == 1


# ----------------------------------------------------------------------
# 3. Regressions: the suspect-clearing bug class


def test_sibling_cone_stays_suspect_after_partial_demand():
    """Regression (exact scenario): msort, 16 elements, 4 random edits,
    then a full-output demand.  Demanding the head cells first used to
    clear suspicion -- via the feeds-True verdicts -- on tail cells that
    were *also* fed by a dirty edge deferred as irrelevant to the head,
    so the tail cells served stale values.  The suspect set must instead
    be recomputed from what is still queued."""
    app = REGISTRY["msort"]
    session = Session(app, mode="lazy", hook=InvariantChecker())
    out = session.run(data=app.make_data(16, random.Random(0)))
    rng = random.Random(1)
    for step in range(4):
        app.apply_change(session.input_handle, rng, step)
    session.demand()
    got = app.readback(out)
    expected = app.reference(app.handle_data(session.input_handle))
    assert got == expected, f"stale cell served: {got} != {expected}"
    # And nothing is left half-marked: a second demand is free...
    stats = session.demand()
    assert stats.reexecuted == 0 and stats.skipped_clean == stats.demanded
    # ...while any genuinely deferred work still satisfies the closure
    # invariant (check_trace validates it for lazy engines).
    check_trace(session.engine)


@pytest.mark.parametrize("backend", BACKENDS)
def test_whole_output_demand_after_head_gets_is_current(backend):
    """Regression (exact scenario): msort, 16 elements from data seed 5,
    fifteen edits each followed by a head-only ``get`` of the output,
    then a sixteenth edit and a whole-output ``demand``.  A relevance
    filter that cleared a demanded root's suspect bit while deferred
    work still reached it left the tail cells stale here, so the deep
    walk fast-pathed them and ``readback`` served an old order."""
    app = REGISTRY["msort"]
    seed = 5
    session = Session(app, backend=backend, mode="lazy")
    session.run(data=app.make_data(16, random.Random(seed)))
    rng = random.Random(seed * 7919 + 1)
    for step in range(15):
        app.apply_change(session.input_handle, rng, step)
        session.get(session.output)
    app.apply_change(session.input_handle, rng, 15)
    session.demand()
    got = app.readback(session.output)
    assert got == app.reference(app.handle_data(session.input_handle))
    check_trace(session.engine)


def test_mod_feeding_target_with_second_dirty_feeder_stays_suspect():
    """Unit-scale pin of the same class: ``top`` reads both ``left`` and
    ``right``.  Demand ``left`` (relevant cone only); ``top`` feeds
    ``left``'s demand nothing, but it must STAY suspect because
    ``right``'s edit is still queued -- otherwise demanding ``top`` next
    would fast-path a stale sum."""
    engine = Engine(mode="lazy")
    xl, xr = engine.make_input(1), engine.make_input(100)
    calls = {}
    left = _cone(engine, xl, "left", calls)
    right = _cone(engine, xr, "right", calls)

    def top_comp(dest):
        def read_left(lv):
            engine.read(right, lambda rv: engine.write(dest, lv + rv))

        engine.read(left, read_left)

    top = engine.mod(top_comp)
    assert top.value == 1010

    engine.change(xl, 2)
    engine.change(xr, 200)
    assert engine.demand(left) == 20
    # right's edit was irrelevant to left's cone and stayed queued; every
    # mod it transitively feeds (right, top) must still be suspect.
    assert right.suspect and top.suspect
    assert engine.demand(top) == 2020
    assert not engine.queue
    check_trace(engine, expect_empty_queue=True)


def test_write_cutoff_clears_remarked_node_on_demand():
    """Clean-but-remarked: an edit marks the whole chain suspect, the
    re-execution write cuts off (equal value), so nothing above actually
    re-runs -- and the demand must *unmark* the chain rather than leave
    it permanently suspect (or worse, serve a stale value later)."""
    engine = Engine(mode="lazy")
    x = engine.make_input(5)

    def abs_comp(dest):
        engine.read(x, lambda v: engine.write(dest, abs(v)))

    y = engine.mod(abs_comp)
    calls = {}
    top = _cone(engine, y, "top", calls)
    assert engine.demand(top) == 50
    assert calls["top"] == 1

    engine.change(x, -5)  # |x| unchanged: the write will cut off
    assert top.suspect
    assert engine.demand(top) == 50
    assert calls["top"] == 1  # cutoff: top's reader never re-ran
    assert not top.suspect and not y.suspect  # suspicion fully recomputed
    check_trace(engine, expect_empty_queue=True)

    # A->B->A editing: values must track every flip, including back.
    engine.change(x, -7)
    assert engine.demand(top) == 70
    engine.change(x, 5)
    assert engine.demand(top) == 50
    assert calls["top"] == 3
    check_trace(engine, expect_empty_queue=True)


def test_budget_interrupted_demand_keeps_suspicion_and_resumes():
    """An interrupted demand must leave every suspect bit set: clearing
    on the abort path would let the *next* demand fast-path a value the
    interrupted walk never got to recompute."""
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
        engine.demand(top, budget=1)  # two re-executions needed
    assert top.suspect  # interruption may not clear anything
    assert engine.demand(top) == 110  # resumes and completes
    assert not top.suspect
    check_trace(engine, expect_empty_queue=True)


def test_budget_interrupted_burst_demand_resumes_to_eager():
    """Session scale: interrupt an msort burst demand on a tiny budget,
    then finish it; the output must match the eager twin."""
    app = REGISTRY["msort"]
    rng_e, rng_l = random.Random(17), random.Random(17)
    eager = Session(app)
    lazy = Session(app, mode="lazy")
    out_e = eager.run(data=app.make_data(64, rng_e))
    out_l = lazy.run(data=app.make_data(64, rng_l))
    for step in range(12):
        app.apply_change(eager.input_handle, rng_e, step)
        eager.propagate()
        app.apply_change(lazy.input_handle, rng_l, step)
    with pytest.raises(PropagationBudgetExceeded):
        lazy.demand(budget=3)
    lazy.demand()
    assert values_close(app.readback(out_e), app.readback(out_l))
    check_trace(lazy.engine)


def test_rewired_away_feeder_costs_no_demand_work():
    """A conditional that stops reading ``a`` kills a's reader edge, so a
    later edit of ``a`` no longer reaches the demanded cell: the demand
    is served with zero re-executions."""
    engine = Engine(mode="lazy")
    flag = engine.make_input(True)
    a, b = engine.make_input(10), engine.make_input(20)

    def comp(dest):
        def on_flag(f):
            src = a if f else b
            engine.read(src, lambda v: engine.write(dest, v))

        engine.read(flag, on_flag)

    y = engine.mod(comp)
    assert engine.demand(y) == 10
    engine.change(flag, False)
    assert engine.demand(y) == 20
    engine.change(a, 11)
    before = engine.meter.edges_reexecuted
    assert engine.demand(y) == 20
    assert engine.meter.edges_reexecuted == before
    check_trace(engine)


def test_none_dest_edge_is_relevant_to_every_demand():
    """A read with no recorded destination (re-executed with an empty
    destination stack) may feed anything, so a demand of an unrelated
    cell still drains it."""
    engine = Engine(mode="lazy")
    x = engine.make_input(1)
    seen = []
    engine._reexec_depth += 1  # the state in which None-dest reads occur
    try:
        engine.read(x, seen.append)
    finally:
        engine._reexec_depth -= 1
    calls = {}
    x2 = engine.make_input(2)
    y = _cone(engine, x2, "y", calls)
    engine.change(x, 9)
    engine.change(x2, 3)
    assert engine.demand(y) == 30
    assert seen == [1, 9]
    check_trace(engine)


def test_imperative_write_degrades_demand_to_propagate():
    """In-run ``impwrite`` can dirty reads outside any destination cone,
    so a demand on such an engine must flush everything (still correct,
    no longer lazy) -- including cones nobody demanded."""
    engine = Engine(mode="lazy")
    x = engine.make_input(1)
    calls = {}
    other_x = engine.make_input(5)
    other = _cone(engine, other_x, "other", calls)

    def comp(dest):
        engine.read(x, lambda v: engine.impwrite(dest, v + 1))

    y = engine.mod(comp)
    assert engine._has_imperative
    engine.change(x, 10)
    engine.change(other_x, 6)
    assert engine.demand(y) == 11
    assert not engine.queue  # full propagation: other's cone flushed too
    assert calls["other"] == 2
    check_trace(engine, expect_empty_queue=True)


def test_deep_demand_burst_converges_on_shared_feeders():
    """32-edit burst at n=128: ``Session.demand`` must iterate its value
    walk to a fixpoint.  Demanding a later output cell re-executes merge
    feeders *shared* with earlier cells and can re-dirty a cell the walk
    already visited clean; a single pass over the value grammar is not a
    consistency proof."""
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
    again = lazy.demand()
    assert again.reexecuted == 0 and again.drained == 0
    check_trace(lazy.engine)


def test_get_is_a_shallow_force():
    """``Session.get`` forces ONE modifiable (Adapton-style): the value
    it returns is consistent, but inner cells it points to may stay lazy
    until demanded themselves -- ``Session.demand`` catches them up."""
    app = REGISTRY["msort"]
    rng = random.Random(3)
    session = Session(app, mode="lazy")
    output = session.run(data=app.make_data(64, rng))
    for step in range(16):
        app.apply_change(session.input_handle, rng, step)
    head = session.get(output)
    assert head is not None
    assert not output.suspect  # the forced cell itself is consistent
    check_trace(session.engine)  # ... and the trace is sound mid-laziness
    session.demand()  # deep walk: now the whole output is current
    assert not session.engine.queue or all(
        e.dead for _, _, e in session.engine.queue
    )


def test_demand_unwinds_stale_reads_outside_the_cone():
    """Regression: a demand drain must never let a re-executed reader
    follow possibly-stale structure outside the relevance cone.

    Before the hazard check this exact scenario -- msort, a 16-edit
    burst, then one head-only force -- sent a re-executed reader into a
    stale *cyclic* list left behind by ``keyed_mod`` identity recycling
    in a deferred region, and the reader recursed to the interpreter
    limit (a multi-minute ``RecursionReexecutionError``).  ``Engine.read``
    now refuses such reads; the drain unwinds the edge transactionally,
    widens the cone, and retries in timestamp order.  Pin that the hazard
    path actually runs here, that it is metered, and that the result
    still matches the eager oracle exactly.
    """
    app = REGISTRY["msort"]
    rng_e, rng_l = random.Random(3), random.Random(3)
    eager = Session(app)
    lazy = Session(app, mode="lazy")
    out_e = eager.run(data=app.make_data(64, rng_e))
    out_l = lazy.run(data=app.make_data(64, rng_l))
    for step in range(16):
        app.apply_change(eager.input_handle, rng_e, step)
        eager.propagate()
        app.apply_change(lazy.input_handle, rng_l, step)
    lazy.get(out_l)
    # The widen-and-retry path must have fired -- this pins the scenario
    # as a live reproducer, not a vacuous pass.
    assert lazy.engine.meter.demand_hazards > 0
    check_trace(lazy.engine)  # every unwind left the trace whole
    lazy.demand()
    assert values_close(app.readback(out_e), app.readback(out_l))


# ----------------------------------------------------------------------
# 4. Multi-target demand and lazy batches (the server-facing surface)


def test_multi_target_demand_returns_values_in_order():
    engine = Engine(mode="lazy")
    calls = {}
    x1, x2 = engine.make_input(1), engine.make_input(2)
    y1 = _cone(engine, x1, "y1", calls)
    y2 = _cone(engine, x2, "y2", calls)
    engine.change(x1, 5)
    engine.change(x2, 7)
    assert engine.demand([y2, y1]) == [70, 50]
    assert not engine.queue
    # Single-target form still returns the bare value.
    assert engine.demand(y1) == 50
    with pytest.raises(PropagationError):
        engine.demand([])


def test_multi_target_demand_serves_clean_targets_for_free():
    engine = Engine(mode="lazy")
    calls = {}
    x1, x2 = engine.make_input(1), engine.make_input(2)
    y1 = _cone(engine, x1, "y1", calls)
    y2 = _cone(engine, x2, "y2", calls)
    engine.change(x1, 5)  # only y1's cone goes suspect
    before = engine.meter.snapshot()
    assert engine.demand([y1, y2]) == [50, 20]
    after = engine.meter.snapshot()
    assert after["demands"] - before["demands"] == 2
    assert after["demands_clean"] - before["demands_clean"] == 1
    assert calls["y2"] == 1  # never re-ran


def test_multi_target_demand_leaves_undemanded_cone_suspect():
    """A multi-target drain is still relevance-filtered: cones feeding
    neither target stay dirty, queued, and suspect."""
    engine = Engine(mode="lazy")
    calls = {}
    xs = [engine.make_input(i) for i in range(3)]
    ys = [_cone(engine, x, f"y{i}", calls) for i, x in enumerate(xs)]
    for x in xs:
        engine.change(x, 100)
    assert engine.demand([ys[0], ys[1]]) == [1000, 1000]
    assert ys[2].suspect
    assert len(engine.queue) == 1
    check_trace(engine)


def test_one_drain_at_most_sum_of_per_target_drains():
    """Meter pin: demanding k targets in one drain re-executes (and
    drains) no more than k separate per-target demands on an identical
    twin engine -- shared feeders re-run once, not once per target."""

    def build(engine, calls):
        src = engine.make_input(1)
        shared = _cone(engine, src, "shared", calls)
        outs = [_cone(engine, shared, f"out{i}", calls) for i in range(4)]
        return src, outs

    calls_multi, calls_single = {}, {}
    multi, single = Engine(mode="lazy"), Engine(mode="lazy")
    src_m, outs_m = build(multi, calls_multi)
    src_s, outs_s = build(single, calls_single)
    multi.change(src_m, 7)
    single.change(src_s, 7)

    values_multi = multi.demand(outs_m)
    values_single = [single.demand(o) for o in outs_s]
    assert values_multi == values_single == [700] * 4

    snap_multi = multi.meter.snapshot()
    snap_single = single.meter.snapshot()
    assert (
        snap_multi["edges_reexecuted"] <= snap_single["edges_reexecuted"]
    )
    assert snap_multi["queue_drained"] <= snap_single["queue_drained"]
    # And the win is real on this shape: every reader once, exactly.
    assert calls_multi == {
        "shared": 2,
        "out0": 2,
        "out1": 2,
        "out2": 2,
        "out3": 2,
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_session_demand_list_of_handles(backend):
    """Session.demand accepts handle strings and lists; one drain serves
    the whole read batch and matches the reference."""
    from repro.apps.vectors import tree_sum

    app = REGISTRY["vec-reduce"]
    rng = random.Random(11)
    session = Session(app, backend=backend, mode="lazy")
    out = session.run(data=app.make_data(16, rng))
    out_handle = session.handle(out, "out")
    cell0 = session.handle(session.input_handle.mods[0], "cell:0")
    session.edit("cell:0", 2.5)
    stats = session.demand([out_handle, cell0])
    assert stats.path == "demand"
    data = app.handle_data(session.input_handle)
    assert values_close(session.get("out"), tree_sum(data))
    assert session.get(cell0) == 2.5


def test_lazy_batch_defers_the_drain():
    """A batch scope under mode="lazy" stages without propagating: the
    scope's reexecuted count is 0 and the queue keeps the edits until
    the next demand."""
    engine = Engine(mode="lazy")
    calls = {}
    x = engine.make_input(1)
    y = _cone(engine, x, "y", calls)
    with engine.batch() as b:
        engine.change(x, 2)
        engine.change(x, 3)
    assert b.changed == 2
    assert b.reexecuted == 0
    assert engine.queue  # still staged
    assert y.suspect
    assert engine.demand(y) == 30
    assert calls["y"] == 2  # once initially, once for the whole batch


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", PROPERTY_APPS)
def test_lazy_batched_matches_eager_batched_and_scratch(name, backend):
    """Differential pin for the lifted restriction: lazy-batched ==
    eager-batched == from-scratch, batch by batch."""
    app = REGISTRY[name]
    n, changes = APP_SIZES[name]
    rng_e, rng_l = random.Random(29), random.Random(29)
    eager = Session(app, backend=backend)
    lazy = Session(app, backend=backend, mode="lazy")
    out_e = eager.run(data=app.make_data(n, rng_e))
    out_l = lazy.run(data=app.make_data(n, rng_l))
    step = 0
    for _round in range(3):
        with eager.batch():
            for _ in range(4):
                app.apply_change(eager.input_handle, rng_e, step)
                step += 1
        step -= 4
        with lazy.batch() as b:
            for _ in range(4):
                app.apply_change(lazy.input_handle, rng_l, step)
                step += 1
        assert b.reexecuted == 0
        lazy.demand()
        got_e = app.readback(out_e)
        got_l = app.readback(out_l)
        assert values_close(got_e, got_l)
        scratch = app.reference(app.handle_data(lazy.input_handle))
        assert values_close(got_l, scratch)


def test_verify_app_lazy_batched():
    """verify_app's own lazy+batch path oracle-checks every batch."""
    for name in ("map", "msort", "vec-reduce"):
        n, changes = APP_SIZES[name]
        verify_app(name, n, changes, mode="lazy", batch=3)


# ----------------------------------------------------------------------
# 5. Recovery and persistence mid-laziness


@pytest.mark.parametrize("on_error", ["rollback", "rebuild"])
def test_faulted_burst_demand_recovers_to_from_scratch(on_error):
    """A reader that faults once inside a burst demand goes through the
    recovery path; the follow-up demand must match a from-scratch run."""
    app = REGISTRY["msort"]
    rng = random.Random(41)
    session = Session(app, mode="lazy")
    session.run(data=app.make_data(32, rng))
    for step in range(6):
        app.apply_change(session.input_handle, rng, step)

    real_write = session.engine.write
    hits = {"n": 0}

    def flaky_write(dest, value):
        hits["n"] += 1
        if hits["n"] == 3:  # exactly once, so recovery itself succeeds
            raise ValueError("flaky reader")
        return real_write(dest, value)

    session.engine.write = flaky_write
    stats = session.demand(on_error=on_error)
    session.engine.write = real_write
    assert stats.path == on_error
    session.demand()
    # session.output, not a pre-recovery reference: rebuild swaps in a
    # fresh engine and output value.
    expected = app.reference(app.handle_data(session.input_handle))
    assert app.readback(session.output) == expected
    check_trace(session.engine)


def test_snapshot_after_partial_laziness_restores_and_demands(tmp_path):
    """Demand, stage more edits, snapshot, restore, demand both: the
    restored session (a fresh run on the staged inputs) agrees with the
    saved one and with the from-scratch oracle."""
    app = REGISTRY["qsort"]
    rng = random.Random(19)
    session = Session(app, mode="lazy")
    session.run(data=app.make_data(24, rng))
    for step in range(4):
        app.apply_change(session.input_handle, rng, step)
    session.demand()
    for step in range(4, 8):
        app.apply_change(session.input_handle, rng, step)
    path = str(tmp_path / "mid.snap")
    session.snapshot(path)

    restored = Session.restore(path)
    assert restored.mode == "lazy"
    restored.demand()
    session.demand()
    got = app.readback(restored.output)
    assert values_close(app.readback(session.output), got)
    assert values_close(got, app.reference(app.handle_data(restored.input_handle)))
    check_trace(restored.engine)
