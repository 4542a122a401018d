"""Batched change propagation: differential and space-bound tests.

The tentpole property: applying k edits inside one ``Session.batch`` scope
and propagating once must be *indistinguishable* from applying the same k
edits with a propagation after each -- identical outputs and identical
final trace sizes -- across every registered application, both
execution backends, and a stack session restored from its checkpoint
(the ``compiled`` case, ``tests/cases.py``).  Batching is purely an
efficiency lever (per-read deduplication within one pass), never a
semantic one.

Also here: the memory-growth smoke test -- hundreds of batched edit /
propagate rounds keep ``trace_size`` within a constant factor of a fresh
run on the final data, and table residency (memo/alloc buckets) stays
bounded thanks to compaction.
"""

import random

import pytest

from repro.api import Session, values_close
from repro.apps import REGISTRY

from .cases import CASES, start
from .test_table_residency import assert_resident

# Input sizes chosen per app family to keep the suite fast (matrix apps
# square their input; the raytracer's n is the image size).
SIZES = {
    "map": 24,
    "filter": 24,
    "reverse": 24,
    "split": 24,
    "qsort": 24,
    "msort": 24,
    "vec-reduce": 24,
    "vec-mult": 24,
    "mat-vec-mult": 6,
    "mat-add": 6,
    "transpose": 6,
    "mat-mult": 4,
    "block-mat-mult": 8,
    "raytracer": 4,
}
EDITS = 4


def _drive(app, n, *, backend, batch, seed=31):
    """Run ``app``, apply EDITS random changes (batched or one-by-one),
    and return (readback output, final trace size)."""
    rng = random.Random(seed)
    session = start(app, backend, app.make_data(n, rng))
    output = session.output
    if batch:
        with session.batch():
            for step in range(EDITS):
                app.apply_change(session.input_handle, rng, step)
    else:
        for step in range(EDITS):
            app.apply_change(session.input_handle, rng, step)
            session.propagate()
    return app.readback(output), session.trace_size(), session.input_handle


@pytest.mark.parametrize("backend", CASES)
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_batched_equals_sequential(name, backend):
    """k single-edit propagations == one k-edit batch, for every app."""
    app = REGISTRY[name]
    n = SIZES[name]
    seq_out, seq_trace, seq_handle = _drive(app, n, backend=backend, batch=False)
    bat_out, bat_trace, bat_handle = _drive(app, n, backend=backend, batch=True)
    # Identical RNG consumption implies identical final inputs ...
    assert app.handle_data(seq_handle) == app.handle_data(bat_handle)
    # ... and batching must not change the output or the trace.
    assert seq_out == bat_out
    assert seq_trace == bat_trace
    # Sanity: both equal the reference on the final data.
    assert values_close(seq_out, app.reference(app.handle_data(seq_handle)))


@pytest.mark.parametrize("backend", CASES)
def test_batched_propagation_does_less_work(backend):
    """A k-edit batch re-executes no more reads than k sequential passes
    (and strictly fewer when edited cells share readers up the spine)."""
    app = REGISTRY["msort"]

    def work(batch):
        rng = random.Random(9)
        session = start(app, backend, app.make_data(64, rng))
        before = session.engine.meter.edges_reexecuted
        if batch:
            with session.batch():
                for step in range(8):
                    app.apply_change(session.input_handle, rng, step)
        else:
            for step in range(8):
                app.apply_change(session.input_handle, rng, step)
                session.propagate()
        return session.engine.meter.edges_reexecuted - before

    assert work(batch=True) < work(batch=False)


def test_trace_size_bounded_over_many_batched_edits():
    """500 batched edits leave the trace within 1.5x of a fresh run, and
    the memo table indexes exactly the live entries (no dead residue)."""
    app = REGISTRY["map"]
    rng = random.Random(17)
    session = Session(app)
    session.run(data=list(range(64)))

    step = 0
    for _round in range(125):
        with session.batch():
            for _ in range(4):  # 125 rounds x 4 edits = 500 edits
                app.apply_change(session.input_handle, rng, step)
                step += 1

    final_data = app.handle_data(session.input_handle)
    fresh = Session(app)
    fresh.run(data=final_data)

    assert session.trace_size() <= 1.5 * fresh.trace_size()

    # Dead memo entries left their buckets as they died.
    assert_resident(session.engine)


# ----------------------------------------------------------------------
# Batch exception guarantees (DESIGN.md Section 7)


def test_batch_records_partial_reexecuted_on_budget():
    """The closing propagate overrunning its budget must still record the
    partial re-execution count on the batch object before re-raising."""
    from repro.api import PropagationBudgetExceeded

    app = REGISTRY["msort"]
    rng = random.Random(5)
    session = Session(app, backend="interp")
    output = session.run(data=app.make_data(24, rng))

    with pytest.raises(PropagationBudgetExceeded) as exc_info:
        with session.batch(budget=1) as b:
            for step in range(3):
                app.apply_change(session.input_handle, rng, step)
    assert b.reexecuted == exc_info.value.reexecuted == 1
    assert b.changed >= 1  # the edit count was recorded too

    # The staged work survives: an unbounded propagate finishes the pass.
    session.propagate()
    assert app.readback(output) == app.reference(app.handle_data(session.input_handle))


def test_batch_records_partial_reexecuted_on_reader_failure():
    """Same guarantee when the closing propagate aborts on a raising
    reader: partial count recorded, failing edge still staged."""
    from repro.obs.faults import FaultInjector
    from repro.sac import ReexecutionError

    app = REGISTRY["msort"]
    rng = random.Random(5)
    injector = FaultInjector("write", at=2)
    session = Session(app, backend="interp", hook=injector)
    output = session.run(data=app.make_data(24, rng))

    with pytest.raises(ReexecutionError) as exc_info:
        with session.batch() as b:
            for step in range(3):
                app.apply_change(session.input_handle, rng, step)
    assert b.reexecuted == exc_info.value.reexecuted
    assert exc_info.value.pending > 0

    # The injector is one-shot: retrying converges on the edited data.
    session.propagate()
    assert app.readback(output) == app.reference(app.handle_data(session.input_handle))


def test_staged_edits_survive_batch_body_exception():
    """An exception inside the batch body skips the closing propagation
    but keeps the staged edits in the dirty queue."""
    app = REGISTRY["map"]
    rng = random.Random(5)
    session = Session(app, backend="interp")
    output = session.run(data=list(range(8)))
    before = app.readback(output)

    with pytest.raises(RuntimeError, match="host bug"):
        with session.batch():
            app.apply_change(session.input_handle, rng, 0)
            raise RuntimeError("host bug")
    # Nothing propagated at scope exit...
    assert app.readback(output) == before
    assert len(session.engine.queue) > 0
    # ...but the edit is staged, not lost: propagate applies it.
    session.propagate()
    assert app.readback(output) == app.reference(app.handle_data(session.input_handle))
