"""The unified host API (repro.api.Session) and the deprecation shims.

Covers every construction form, the run/edit/propagate/stats surface, the
single backend-resolution path, propagation budgets and deadlines with
resumption, batch coalescing (and its observability events), and the
DeprecationWarning behaviour of every superseded entry point.
"""

import pytest

from repro.api import (
    PropagateStats,
    PropagationBudgetExceeded,
    Session,
    verify_app,
)
from repro.apps import REGISTRY
from repro.core.pipeline import compile_program
from repro.interp.values import list_value_to_python
from repro.obs import EventLog, check_trace
from repro.sac.engine import Engine

SQUARES = """
datatype cell = Nil | Cons of int * cell $C

fun squares l =
  case l of
    Nil => Nil
  | Cons (h, t) => Cons (h * h, squares t)

val main : cell $C -> cell $C = squares
"""


# ----------------------------------------------------------------------
# Construction forms


def test_session_from_source():
    session = Session(SQUARES)
    xs = session.input_list([1, 2, 3])
    assert list_value_to_python(session.run(xs.head)) == [1, 4, 9]


def test_session_from_registry_name():
    session = Session("map")
    assert session.app is REGISTRY["map"]
    out = session.run(data=[3, 1, 2])
    assert session.app.readback(out) == REGISTRY["map"].reference([3, 1, 2])


def test_session_from_app_object():
    app = REGISTRY["filter"]
    session = Session(app)
    out = session.run(data=[1, 2, 3, 4, 5, 6])
    assert session.app.readback(out) == app.reference([1, 2, 3, 4, 5, 6])


def test_session_from_compiled_program():
    program = compile_program(SQUARES)
    session = Session(program)
    assert session.program is program
    xs = session.input_list([2])
    assert list_value_to_python(session.run(xs.head)) == [4]


def test_session_rejects_compiler_options_for_compiled_program():
    program = compile_program(SQUARES)
    with pytest.raises(ValueError):
        Session(program, optimize=False)


def test_session_compiler_options_forwarded():
    session = Session("map", optimize=False, memoize=False)
    assert session.options.optimize is False
    assert session.options.memoize is False


def test_session_shared_engine():
    engine = Engine()
    a = Session(SQUARES, engine=engine)
    b = Session("map", engine=engine)
    assert a.engine is b.engine is engine


def test_session_run_requires_input():
    with pytest.raises(ValueError):
        Session(SQUARES).run()


def test_session_data_requires_app():
    with pytest.raises(ValueError):
        Session(SQUARES).run(data=[1, 2])


# ----------------------------------------------------------------------
# Backend resolution (the single path)


def test_session_backend_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    assert Session("map", backend="stack").backend == "stack"
    assert Session("map").backend == "interp"
    monkeypatch.delenv("REPRO_BACKEND")
    assert Session("map").backend == "stack"


def test_session_backends_agree():
    outs = []
    for backend in ("interp", "stack"):
        session = Session("msort", backend=backend)
        out = session.run(data=[4, 2, 7, 1])
        outs.append(session.app.readback(out))
    assert outs[0] == outs[1] == [1, 2, 4, 7]


# ----------------------------------------------------------------------
# Edits, propagation, stats


def test_edit_returns_dirtied_count_and_propagate_reports_stats():
    session = Session(SQUARES)
    xs = session.input_list([1, 2, 3])
    out = session.run(xs.head)
    # One read edge observes each cell: editing a cell dirties one read.
    assert session.edit(xs.mods[1], xs.mods[1].peek()) == 0  # equal: cutoff
    assert xs.set(1, 10) == 1
    stats = session.propagate()
    assert isinstance(stats, PropagateStats)
    assert stats.reexecuted == 1
    assert stats.drained >= stats.reexecuted
    assert stats.seconds >= 0.0
    assert "re-executed" in str(stats)
    assert list_value_to_python(out) == [1, 100, 9]


def test_session_stats_shape():
    session = Session("map", backend="interp")
    session.run(data=[1, 2, 3])
    session.input_handle.insert(0, 9)
    session.propagate()
    stats = session.stats()
    assert stats["backend"] == "interp"
    assert stats["options"] == {"memoize": True, "optimize": True, "coarse": False}
    assert stats["propagations"] == 1
    assert stats["trace_size"] == session.engine.trace_size() > 0
    assert stats["tables"]["memo_entries"] >= 0
    assert stats["meter"]["reads_executed"] > 0


def test_prepare_then_run():
    session = Session("map")
    session.prepare([5, 6])
    assert session.input_handle is not None
    out = session.run()
    assert session.app.readback(out) == REGISTRY["map"].reference([5, 6])


# ----------------------------------------------------------------------
# Budgets and deadlines


def test_propagate_budget_raises_and_resumes():
    session = Session(SQUARES)
    xs = session.input_list(list(range(8)))
    out = session.run(xs.head)
    for i in range(4):
        xs.set(i, 100 + i)
    with pytest.raises(PropagationBudgetExceeded) as info:
        session.propagate(budget=2)
    assert info.value.reexecuted == 2
    assert info.value.pending > 0
    # The trace is consistent; a later propagate finishes the work.
    stats = session.propagate()
    assert stats.reexecuted == 2
    assert list_value_to_python(out) == [
        x * x for x in [100, 101, 102, 103, 4, 5, 6, 7]
    ]


def test_propagate_deadline_zero_raises():
    session = Session(SQUARES)
    xs = session.input_list([1, 2, 3])
    session.run(xs.head)
    xs.set(0, 9)
    with pytest.raises(PropagationBudgetExceeded):
        session.propagate(deadline=0.0)
    session.propagate()  # resumes cleanly


def test_batch_budget_forwarded():
    session = Session(SQUARES)
    xs = session.input_list(list(range(6)))
    session.run(xs.head)
    with pytest.raises(PropagationBudgetExceeded):
        with session.batch(budget=1):
            xs.set(0, 50)
            xs.set(3, 60)
    session.propagate()
    assert xs.to_python() == [50, 1, 2, 60, 4, 5]


# ----------------------------------------------------------------------
# Batching: coalescing and events


def test_batch_coalesces_and_emits_events():
    log = EventLog()
    session = Session(SQUARES, hook=log)
    xs = session.input_list([1, 2, 3])
    out = session.run(xs.head)
    with session.batch() as batch:
        xs.set(0, 10)
        xs.set(0, 20)  # same cell twice: one re-execution
    assert batch.changed == 2
    assert batch.reexecuted == 1
    assert list_value_to_python(out) == [400, 4, 9]
    begins = log.of_kind("batch-begin")
    ends = log.of_kind("batch-end")
    assert len(begins) == len(ends) == 1
    assert ends[0].info == {"changed": 2, "reexecuted": 1}
    assert session.engine.meter.batches == 1


def test_change_many():
    from repro.interp.values import ConValue

    session = Session(SQUARES)
    xs = session.input_list([1, 2, 3])
    out = session.run(xs.head)

    def cell(index, value):
        return ConValue("Cons", (value, xs.mods[index].peek().arg[1]))

    reexecuted = session.engine.change_many(
        [(xs.mods[0], cell(0, 5)), (xs.mods[2], cell(2, 7))]
    )
    assert reexecuted == 2
    assert list_value_to_python(out) == [25, 4, 49]


def test_alloc_table_holds_live_sites_under_a_hook():
    """With a hook attached, dead records retract through ``discard``; a
    keyed allocation site leaves ``alloc_table`` there too, so the table
    holds exactly the live sites after every propagation."""
    log = EventLog()
    session = Session("map", hook=log)
    session.run(data=list(range(16)))
    engine = session.engine
    for step in range(8):
        session.input_handle.insert(0, 100 + step)
        session.propagate()
        session.input_handle.remove(0)
        session.propagate()
        report = check_trace(engine, expect_empty_queue=True)
        assert report.sites == len(engine.alloc_table) > 0
    assert log.of_kind("discard")
    assert list_value_to_python(session.output) == REGISTRY["map"].reference(
        list(range(16))
    )


# ----------------------------------------------------------------------
# VerifyResult reports drained and re-executed separately


def test_verify_result_reports_drained():
    result = verify_app("map", n=16, changes=6, seed=2)
    assert result.drained_total >= result.reexecuted_total > 0
    assert "queue entries drained" in str(result)


def test_verify_app_batched_matches_sequential():
    sequential = verify_app("map", n=20, changes=8, seed=7)
    batched = verify_app("map", n=20, changes=8, seed=7, batch=4)
    assert sequential.changes == batched.changes == 8


# ----------------------------------------------------------------------
# Removed deprecation shims stay removed


def test_deprecation_shims_are_gone():
    import repro.core.pipeline as pipeline

    program = compile_program(SQUARES)
    assert not hasattr(program, "self_adjusting_instance")
    assert not hasattr(pipeline, "default_backend")
