"""Memo-table residency: a memo entry leaves ``memo_table`` when it dies.

After every operation that splices trace out -- propagation, lazy demand,
an aborted re-execution, rollback, and a failed run's truncation -- the
table must index exactly the live committed entries: no dead entry, no
empty bucket, and as many entries as ``meter.live_memo_entries``.  Both
retraction paths are covered: the hookless one (which also recycles the
entry) and the hooked one (``MemoEntry.discard``, no recycling).

The keyed-allocation table (``keyed_mod``) is the one table that still
holds dead sites until ``Engine.compact`` sweeps it; the last test pins
that the sweep runs on its own and keeps the table bounded.
"""

import random

import pytest

from repro.api import Session
from repro.apps import REGISTRY
from repro.interp.marshal import ModListInput
from repro.interp.values import list_value_to_python
from repro.obs import EventLog, check_trace
from repro.sac import Engine, ReexecutionError


def assert_resident(engine):
    """``memo_table`` holds exactly the live committed memo entries."""
    table = engine.memo_table
    entries = [entry for bucket in table.values() for entry in bucket]
    assert all(table.values()), "empty bucket left in the memo table"
    assert not [e for e in entries if e.dead], "dead entry left in the memo table"
    assert all(e.end is not None for e in entries), "open entry in the memo table"
    assert len({id(e) for e in entries}) == len(entries)
    assert len(entries) == engine.meter.live_memo_entries
    assert engine.table_residency()["memo_entries"] == len(entries)
    check_trace(engine, expect_empty_queue=False)


def _edits(app, session, rng, count, start=0):
    for step in range(start, start + count):
        app.apply_change(session.input_handle, rng, step)


@pytest.mark.parametrize("hooked", [False, True], ids=["hookless", "eventlog"])
@pytest.mark.parametrize("backend", ["stack", "interp"])
def test_memo_table_holds_exactly_live_entries(backend, hooked):
    app = REGISTRY["msort"]
    rng = random.Random(11)
    session = Session(app, backend=backend, hook=EventLog() if hooked else None)
    engine = session.engine
    session.run(data=app.make_data(48, rng))
    assert_resident(engine)
    assert engine.meter.live_memo_entries > 0

    # Propagation, single edits and batches.
    for step in range(12):
        _edits(app, session, rng, 1, step)
        session.propagate()
        assert_resident(engine)
    with session.batch():
        _edits(app, session, rng, 6, 12)
    assert_resident(engine)

    # An aborted re-execution: a tail cell set to a non-list value makes
    # its reader raise mid-propagation.
    handle = session.input_handle
    target = handle.mods[len(handle) // 2]
    good = target.peek()
    engine.change(target, 777)
    with pytest.raises(ReexecutionError) as exc_info:
        session.propagate()
    assert exc_info.value.consistent
    assert_resident(engine)

    # Rollback back to the last-good state, then repair the cell.
    engine.rollback()
    assert_resident(engine)
    engine.change(target, good)
    session.propagate()
    assert_resident(engine)
    assert app.readback(session.output) == sorted(handle.to_python())

    # A failed run on the same engine is truncated; the first session's
    # entries stay indexed and keep propagating.
    live = engine.meter.live_memo_entries
    doomed = Session(app, backend=backend, engine=engine)
    with pytest.raises(TypeError):
        doomed.run(data=[5, 3, "x", 1])
    assert engine.meter.live_memo_entries == live
    assert_resident(engine)
    _edits(app, session, rng, 2, 18)
    session.propagate()
    assert_resident(engine)
    assert app.readback(session.output) == sorted(handle.to_python())

    if not hooked:
        # The hookless path recycled the dead entries it retracted.
        assert engine.memo_entries_reused > 0


@pytest.mark.parametrize("backend", ["stack", "interp"])
def test_lazy_demand_keeps_memo_table_exact(backend):
    app = REGISTRY["msort"]
    rng = random.Random(3)
    session = Session(app, backend=backend, mode="lazy")
    engine = session.engine
    session.run(data=app.make_data(40, rng))
    for step in range(10):
        _edits(app, session, rng, 2, 2 * step)
        session.demand()
        assert_resident(engine)
    assert app.readback(session.output) == sorted(session.input_handle.to_python())


def test_truncate_after_retracts_the_abandoned_suffix():
    app = REGISTRY["map"]
    session = Session(app)
    engine = session.engine
    session.run(data=list(range(1, 33)))
    checkpoint = engine.now
    live = engine.meter.live_memo_entries
    Session(app, engine=engine).run(data=list(range(100, 140)))
    assert engine.meter.live_memo_entries > live
    assert engine.truncate_after(checkpoint)
    assert engine.meter.live_memo_entries == live
    assert_resident(engine)


def test_keyed_msort_alloc_table_stays_bounded():
    """``keyed_mod`` sites die with their trace but stay in
    ``alloc_table`` until a sweep; the automatic sweep keeps the table
    within a constant factor of a fresh run's."""
    from repro.bench.handwritten import hand_msort_keyed

    app = REGISTRY["msort"]
    rng = random.Random(5)
    data = app.make_data(64, rng)
    engine = Engine()
    handle = ModListInput(engine, data)
    out = hand_msort_keyed(engine, handle.head)
    fresh_size = len(engine.alloc_table)
    peak = 0
    for step in range(200):
        app.apply_change(handle, rng, step)
        engine.propagate()
        peak = max(peak, len(engine.alloc_table))
        assert_resident(engine)
    assert list_value_to_python(out) == sorted(handle.to_python())
    assert engine.meter.compactions > 0
    assert engine.meter.alloc_entries_compacted > 0
    assert peak <= 4 * max(fresh_size, engine.compact_threshold)

    removed = engine.compact()
    assert set(removed) == {"alloc"}
    assert all(
        stamp.live and stamp.gen == gen
        for _mod, stamp, gen in engine.alloc_table.values()
    )
