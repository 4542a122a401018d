"""Maintained reverse-reachability summaries vs. the retired DFS.

Lazy engines answer one question constantly: *does this dirty cell feed
the demanded target?*  The original implementation answered it with a
per-demand memoized DFS over reader edges (``feeds="dfs"``, kept as the
differential baseline); the current default maintains per-modifiable
reachability bitsets incrementally as the trace rewires
(``feeds="summary"``).  Both must produce identical *outputs* under
every app, backend, and fault scenario -- but not identical deferral
decisions: the DFS memoizes positive verdicts for a whole drain, so it
may run an edge whose relevance has since died, while the summaries are
exact (modulo drain-local monotonicity, see ``_note_edge_death``).

Sections:

1. **Differential**: summary-vs-dfs twin sessions across apps x
   backends, stepwise and burst, outputs compared after every change.
2. **Oracle**: the same runs with ``feeds_oracle=True``, where every
   summary read is checked against an exact BFS -- divergence raises
   :class:`FeedsOracleError` instead of silently mis-deferring.
3. **Chaos**: budget-interrupted resumes, rollback and rebuild recovery,
   hazard unwinds, and snapshot -> restore -> demand, all under the
   summary impl with the oracle riding along.
4. **Unit**: root registration, upstream growth, edge-death
   invalidation and the deferred-death flush, UNIV edges, and sibling
   cones surviving a partial demand.
"""

import random

import pytest

from repro.api import Session, values_close
from repro.apps import REGISTRY
from repro.obs.invariants import check_trace
from repro.sac.engine import UNIV, Engine
from repro.sac.exceptions import (
    PropagationBudgetExceeded,
    ReexecutionError,
)

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


def _twin(name, backend, *, oracle=False, seed=7):
    """A (summary, dfs) session pair on identical data."""
    app = REGISTRY[name]
    n, changes = APPS[name]
    rng_s, rng_d = random.Random(seed), random.Random(seed)
    summary = Session(
        app, backend=backend, mode="lazy", feeds="summary",
        feeds_oracle=oracle,
    )
    dfs = Session(app, backend=backend, mode="lazy", feeds="dfs")
    out_s = summary.run(data=app.make_data(n, rng_s))
    out_d = dfs.run(data=app.make_data(n, rng_d))
    return app, changes, summary, dfs, out_s, out_d, rng_s, rng_d


# ----------------------------------------------------------------------
# 1. Differential: summary vs dfs, stepwise and burst


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(APPS))
def test_summary_matches_dfs_stepwise(name, backend):
    """Per change, both impls demand the full output and must agree."""
    app, changes, summary, dfs, out_s, out_d, rng_s, rng_d = _twin(
        name, backend
    )
    assert summary.feeds == "summary" and dfs.feeds == "dfs"
    for step in range(changes):
        app.apply_change(summary.input_handle, rng_s, step)
        app.apply_change(dfs.input_handle, rng_d, step)
        summary.demand()
        dfs.demand()
        assert values_close(app.readback(out_s), app.readback(out_d)), (
            f"{name} [{backend}]: summary diverges from dfs at step {step}"
        )
    check_trace(summary.engine)
    check_trace(dfs.engine)


@pytest.mark.parametrize("name", sorted(APPS))
def test_summary_matches_dfs_after_edit_burst(name):
    """All edits staged, then one demand each: the burst regime where
    the maintained summaries see the most rewiring before being read."""
    app, changes, summary, dfs, out_s, out_d, rng_s, rng_d = _twin(
        name, "interp", seed=29
    )
    for step in range(changes):
        app.apply_change(summary.input_handle, rng_s, step)
        app.apply_change(dfs.input_handle, rng_d, step)
    summary.demand()
    dfs.demand()
    assert values_close(app.readback(out_s), app.readback(out_d))
    # Second demands are free under BOTH impls (meter-exact laziness).
    for session in (summary, dfs):
        again = session.demand()
        assert again.reexecuted == 0 and again.drained == 0


def test_summary_deep_burst_matches_eager():
    """The scenario that shook out the monotone-drain bug: msort at
    n=128, 32 staged edits, one deep demand, against the eager oracle."""
    app = REGISTRY["msort"]
    rng_e, rng_l = random.Random(3), random.Random(3)
    eager = Session(app)
    lazy = Session(app, mode="lazy", feeds="summary", feeds_oracle=True)
    out_e = eager.run(data=app.make_data(128, rng_e))
    out_l = lazy.run(data=app.make_data(128, rng_l))
    for step in range(32):
        app.apply_change(eager.input_handle, rng_e, step)
        eager.propagate()
        app.apply_change(lazy.input_handle, rng_l, step)
    lazy.demand()
    assert values_close(app.readback(out_e), app.readback(out_l))
    check_trace(lazy.engine)


# ----------------------------------------------------------------------
# 2. Oracle: maintained bits == exact BFS at every query


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(APPS))
def test_oracle_green_across_apps(name, backend):
    """Every relevance query under ``feeds_oracle=True``: the maintained
    summary must equal the exact reverse walk (mid-drain it may only be
    a superset, never miss a reachable root)."""
    app = REGISTRY[name]
    n, changes = APPS[name]
    rng = random.Random(13)
    session = Session(
        app, backend=backend, mode="lazy", feeds="summary",
        feeds_oracle=True,
    )
    session.run(data=app.make_data(n, rng))
    for step in range(changes):
        app.apply_change(session.input_handle, rng, step)
        session.demand()  # FeedsOracleError here == summary bug


def test_oracle_env_var_enables_checking(monkeypatch):
    monkeypatch.setenv("REPRO_FEEDS_ORACLE", "1")
    engine = Engine(mode="lazy")
    assert engine.feeds_oracle
    monkeypatch.setenv("REPRO_FEEDS_ORACLE", "0")
    assert not Engine(mode="lazy").feeds_oracle


def test_feeds_impl_env_var_and_validation(monkeypatch):
    monkeypatch.setenv("REPRO_FEEDS", "dfs")
    assert Engine(mode="lazy").feeds_impl == "dfs"
    monkeypatch.delenv("REPRO_FEEDS")
    assert Engine(mode="lazy").feeds_impl == "summary"
    with pytest.raises(ValueError):
        Engine(mode="lazy", feeds="bfs")
    # Session must not silently rebind an adopted engine's impl.
    with pytest.raises(ValueError):
        Session("map", engine=Engine(mode="lazy", feeds="dfs"),
                feeds="summary")


# ----------------------------------------------------------------------
# 3. Chaos: interruption, recovery, hazards, persistence


def _cone(engine, source, label, calls):
    def comp(dest):
        def reader(v):
            calls[label] = calls.get(label, 0) + 1
            engine.write(dest, v * 10)

        engine.read(source, reader)

    return engine.mod(comp)


@pytest.mark.parametrize("feeds", ["summary", "dfs"])
def test_budget_interrupted_demand_resumes(feeds):
    """Interruption mid-drain leaves suspicion AND summary state sound:
    the resumed demand completes with the oracle on."""
    engine = Engine(mode="lazy", feeds=feeds,
                    feeds_oracle=(feeds == "summary"))
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
    check_trace(engine, expect_empty_queue=True)


def test_budget_interrupted_app_demand_resumes_with_oracle():
    """Session-level: interrupt an msort burst demand on a tiny budget,
    then finish; outputs must match the eager twin and the oracle must
    stay green through both the abort and the resume."""
    app = REGISTRY["msort"]
    rng_e, rng_l = random.Random(17), random.Random(17)
    eager = Session(app)
    lazy = Session(app, mode="lazy", feeds="summary", feeds_oracle=True)
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


@pytest.mark.parametrize("on_error", ["rollback", "rebuild"])
def test_recovery_paths_preserve_summary_soundness(on_error):
    """A reader that faults mid-demand forces the recovery machinery
    (rollback restage / full rebuild); the follow-up demand must still
    be exact under the oracle."""
    app = REGISTRY["msort"]
    rng = random.Random(41)
    session = Session(app, mode="lazy", feeds="summary", feeds_oracle=True)
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
    rng_o = random.Random(41)
    oracle = Session(app, mode="lazy", feeds="dfs")
    out_o = oracle.run(data=app.make_data(32, rng_o))
    for step in range(6):
        app.apply_change(oracle.input_handle, rng_o, step)
    oracle.demand()
    # session.output, not a pre-recovery reference: rebuild swaps in a
    # fresh engine and output value.
    assert values_close(app.readback(session.output), app.readback(out_o))


def test_hazard_unwind_with_oracle():
    """The keyed-mod hazard reproducer (msort, 16-edit burst, head-only
    force) under the summary impl with the oracle on: the widen-and-
    retry path must fire and every unwind must leave the summaries
    exact at the next rest point."""
    app = REGISTRY["msort"]
    rng = random.Random(3)
    session = Session(app, mode="lazy", feeds="summary", feeds_oracle=True)
    out = session.run(data=app.make_data(64, rng))
    for step in range(16):
        app.apply_change(session.input_handle, rng, step)
    session.get(out)
    assert session.engine.meter.demand_hazards > 0
    check_trace(session.engine)
    session.demand()
    check_trace(session.engine)


def test_snapshot_restore_demand_roundtrip(tmp_path):
    """Snapshot mid-laziness (staged suspects, live summaries), restore,
    demand: the restored session ran from scratch on the staged inputs,
    and its summaries must stay sound (the oracle flag checks every
    verdict) while it agrees with the saved session once that demands."""
    app = REGISTRY["qsort"]
    rng = random.Random(19)
    session = Session(app, mode="lazy", feeds="summary")
    session.run(data=app.make_data(24, rng))
    for step in range(4):
        app.apply_change(session.input_handle, rng, step)
    session.demand()  # live summary state to round-trip
    for step in range(4, 8):
        app.apply_change(session.input_handle, rng, step)  # staged dirt
    path = str(tmp_path / "mid.snap")
    session.snapshot(path)

    restored = Session.restore(path)
    assert restored.feeds == "summary"
    restored.engine.feeds_oracle = True
    restored.demand()
    session.demand()
    assert values_close(
        app.readback(session.output), app.readback(restored.output)
    )
    check_trace(restored.engine)


# ----------------------------------------------------------------------
# 4. Unit: the bitset machinery itself


def test_demand_registers_root_and_grows_upstream():
    engine = Engine(mode="lazy", feeds="summary", feeds_oracle=True)
    x = engine.make_input(1)
    calls = {}
    y = _cone(engine, x, "y", calls)
    engine.change(x, 2)
    engine.demand(y)
    assert y.root_bit and y.root_bit != UNIV
    # The feeder's summary reaches the root through the reader edge.
    assert x.fsum_valid and (x.fsum & y.root_bit)
    assert engine.meter.feeds_roots >= 1
    assert engine.meter.feeds_hits >= 1


def test_sibling_cone_stays_suspect_after_partial_demand():
    """Demanding y1 must not bleach y2's suspicion or summary state:
    the sibling's dirt is still pending and still reaches its root."""
    engine = Engine(mode="lazy", feeds="summary", feeds_oracle=True)
    calls = {}
    x1, x2 = engine.make_input(1), engine.make_input(2)
    y1 = _cone(engine, x1, "y1", calls)
    y2 = _cone(engine, x2, "y2", calls)
    engine.change(x1, 5)
    engine.change(x2, 7)
    assert engine.demand(y1) == 50
    assert calls == {"y1": 2, "y2": 1}
    assert y2.suspect and not y1.suspect
    # y1 became a registered root during its drain; its bit must be out
    # of the dirty-roots union while y2's queued dirt keeps y2 suspect.
    assert y1.root_bit and not (engine._dirty_roots & y1.root_bit)
    assert engine.demand(y2) == 70
    assert calls["y2"] == 2
    assert y2.root_bit and engine._dirty_roots == 0
    check_trace(engine, expect_empty_queue=True)


def test_edge_death_invalidates_upstream_summary():
    """Rewiring a conditional off a feeder kills its edge; the feeder's
    summary must stop claiming it reaches the root."""
    engine = Engine(mode="lazy", feeds="summary", feeds_oracle=True)
    flag = engine.make_input(True)
    a, b = engine.make_input(10), engine.make_input(20)

    def comp(dest):
        def on_flag(f):
            src = a if f else b
            engine.read(src, lambda v: engine.write(dest, v))

        engine.read(flag, on_flag)

    y = engine.mod(comp)
    assert engine.demand(y) == 10  # clean: roots register on dirty drains
    engine.change(flag, False)
    assert engine.demand(y) == 20  # registers y's root; a's edge dies
    rb = y.root_bit
    assert rb
    # a's edge died during the drain; after the deferred flush and the
    # next query its summary must not reach y's root any more.
    assert not (engine._bits(a) & rb)
    assert engine._bits(b) & rb
    engine.change(a, 11)
    before = engine.meter.edges_reexecuted
    assert engine.demand(y) == 20  # a no longer feeds y: zero work
    assert engine.meter.edges_reexecuted == before
    check_trace(engine)


def test_deferred_deaths_flush_at_drain_exit():
    """Within a demand drain, edge deaths must NOT shrink summaries
    (drain-local monotonicity); they flush in the drain's finally."""
    engine = Engine(mode="lazy", feeds="summary")
    flag = engine.make_input(True)
    a = engine.make_input(10)

    def comp(dest):
        def on_flag(f):
            if f:
                engine.read(a, lambda v: engine.write(dest, v))
            else:
                engine.write(dest, -1)

        engine.read(flag, on_flag)

    y = engine.mod(comp)
    engine.demand(y)
    engine.change(flag, False)
    assert engine.demand(y) == -1
    assert not engine._deferred_deaths  # flushed, not leaked
    # The flush ran: a's stale claim on y's root is gone by now.
    assert not (engine._bits(a) & y.root_bit)
    check_trace(engine)


def test_none_dest_edges_are_universal():
    """A ``dest=None`` edge (a read re-executed with an empty destination
    stack) can feed anything the engine ever demands, so its source
    carries the UNIV bit and every drain treats it as relevant."""
    engine = Engine(mode="lazy", feeds="summary", feeds_oracle=True)
    x = engine.make_input(1)
    seen = []
    engine._reexec_depth += 1  # the state in which None-dest reads occur
    try:
        engine.read(x, seen.append)
    finally:
        engine._reexec_depth -= 1
    assert engine._bits(x) & UNIV
    calls = {}
    x2 = engine.make_input(2)
    y = _cone(engine, x2, "y", calls)
    engine.change(x, 9)
    engine.change(x2, 3)
    # Demanding an unrelated cell still drains x's universal edge.
    engine.demand(y)
    assert seen == [1, 9]
    check_trace(engine)


def test_summary_counters_zero_on_eager_and_dfs_engines():
    for engine in (Engine(), Engine(mode="lazy", feeds="dfs")):
        m = engine.make_input(3)
        engine.change(m, 4)
        if engine.lazy:
            engine.demand(m)
        else:
            engine.propagate()
        snap = engine.meter.snapshot()
        assert snap["feeds_hits"] == 0
        assert snap["feeds_updates"] == 0
        assert snap["feeds_recomputes"] == 0
        assert snap["feeds_roots"] == 0


def test_full_propagate_resets_dirty_roots():
    engine = Engine(mode="lazy", feeds="summary", feeds_oracle=True)
    x = engine.make_input(1)
    calls = {}
    y = _cone(engine, x, "y", calls)
    engine.demand(y)
    engine.change(x, 2)
    engine.propagate()  # eager-style flush on a lazy engine
    assert engine._dirty_roots == 0
    assert not y.suspect and not x.suspect
    assert engine.demand(y) == 20
