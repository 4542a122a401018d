"""Change-propagation engine tests (repro.sac.engine)."""

import pytest

from repro import Session
from repro.interp.values import list_value_to_python
from repro.obs.invariants import InvariantChecker, check_trace
from repro.sac import Engine
from repro.sac.exceptions import (
    PropagationError,
    ReadOutsideModError,
    UnwrittenModError,
)
from repro.sac.modifiable import Modifiable


def square_chain(engine, m):
    """out = (m*m) built with one mod and one read."""
    return engine.mod(lambda dest: engine.read(m, lambda v: engine.write(dest, v * v)))


def test_initial_run_and_peek():
    engine = Engine()
    m = engine.make_input(3)
    out = square_chain(engine, m)
    assert out.peek() == 9


def test_change_propagate_updates_output():
    engine = Engine()
    m = engine.make_input(3)
    out = square_chain(engine, m)
    engine.change(m, 5)
    n = engine.propagate()
    assert n == 1
    assert out.peek() == 25


def test_change_to_equal_value_is_noop():
    engine = Engine()
    m = engine.make_input(3)
    square_chain(engine, m)
    engine.change(m, 3)
    assert engine.propagate() == 0


def test_write_cutoff_stops_propagation():
    """A re-executed write of an equal value must not dirty downstream."""
    engine = Engine()
    m = engine.make_input(3)
    absval = engine.mod(
        lambda dest: engine.read(m, lambda v: engine.write(dest, abs(v)))
    )
    downstream = engine.mod(
        lambda dest: engine.read(absval, lambda v: engine.write(dest, v + 1))
    )
    engine.change(m, -3)  # |.| unchanged
    n = engine.propagate()
    assert n == 1  # only the abs read re-executes
    assert downstream.peek() == 4


def test_chain_propagates_through_dependencies():
    engine = Engine()
    m = engine.make_input(1)
    mods = [m]
    for _ in range(10):
        prev = mods[-1]
        mods.append(
            engine.mod(
                lambda dest, prev=prev: engine.read(
                    prev, lambda v: engine.write(dest, v + 1)
                )
            )
        )
    assert mods[-1].peek() == 11
    engine.change(m, 100)
    assert engine.propagate() == 10
    assert mods[-1].peek() == 110


def test_two_readers_both_update():
    engine = Engine()
    m = engine.make_input(2)
    doubled = square_chain(engine, m)
    tripled = engine.mod(
        lambda dest: engine.read(m, lambda v: engine.write(dest, 3 * v))
    )
    engine.change(m, 10)
    assert engine.propagate() == 2
    assert doubled.peek() == 100
    assert tripled.peek() == 30


def test_diamond_dependency_single_reexecution_per_edge():
    engine = Engine()
    m = engine.make_input(1)
    left = engine.mod(lambda d: engine.read(m, lambda v: engine.write(d, v + 1)))
    right = engine.mod(lambda d: engine.read(m, lambda v: engine.write(d, v * 2)))
    join = engine.mod(
        lambda d: engine.read(
            left, lambda a: engine.read(right, lambda b: engine.write(d, a + b))
        )
    )
    assert join.peek() == 4
    engine.change(m, 10)
    engine.propagate()
    assert join.peek() == 31


def test_read_outside_mod_raises():
    engine = Engine()
    m = engine.make_input(1)
    with pytest.raises(ReadOutsideModError):
        engine.read(m, lambda v: None)


def test_unwritten_mod_raises():
    engine = Engine()
    with pytest.raises(UnwrittenModError):
        engine.mod(lambda dest: None)


def test_read_of_unwritten_raises():
    engine = Engine()
    empty = Modifiable()
    with pytest.raises(UnwrittenModError):
        engine.mod(lambda dest: engine.read(empty, lambda v: engine.write(dest, v)))


def test_propagate_not_reentrant():
    engine = Engine()
    m = engine.make_input(1)
    saw_reentrancy_error = []

    def reader_factory(dest):
        def reader(v):
            if engine.propagating:
                try:
                    engine.propagate()
                except PropagationError:
                    saw_reentrancy_error.append(True)
            engine.write(dest, v)

        return reader

    engine.mod(lambda dest: engine.read(m, reader_factory(dest)))
    engine.change(m, 2)
    engine.propagate()
    assert saw_reentrancy_error == [True]


def test_nested_reads_inner_change_only_reruns_inner():
    engine = Engine()
    a = engine.make_input(1)
    b = engine.make_input(2)
    calls = {"outer": 0, "inner": 0}

    def comp(dest):
        def on_a(av):
            calls["outer"] += 1

            def on_b(bv):
                calls["inner"] += 1
                engine.write(dest, av + bv)

            engine.read(b, on_b)

        engine.read(a, on_a)

    out = engine.mod(comp)
    assert out.peek() == 3
    engine.change(b, 10)
    engine.propagate()
    assert out.peek() == 11
    assert calls == {"outer": 1, "inner": 2}


def test_outer_change_discards_inner_edge():
    engine = Engine()
    a = engine.make_input(1)
    b = engine.make_input(2)

    def comp(dest):
        engine.read(a, lambda av: engine.read(b, lambda bv: engine.write(dest, av + bv)))

    out = engine.mod(comp)
    engine.change(a, 5)
    engine.propagate()
    assert out.peek() == 7
    # After the outer re-run, exactly one live edge reads b.
    live_b_edges = [e for e in b.readers if not e.dead]
    assert len(live_b_edges) == 1


def test_impwrite_initial_run_then_change():
    engine = Engine()
    cell = engine.make_input(0)
    engine.impwrite(cell, 41)
    out = engine.mod(
        lambda dest: engine.read(cell, lambda v: engine.write(dest, v + 1))
    )
    assert out.peek() == 42
    engine.impwrite(cell, 99)
    engine.propagate()
    assert out.peek() == 100


def test_lift_coercion():
    engine = Engine()
    a = engine.make_input(3)
    b = engine.make_input(4)
    out = engine.lift(lambda x, y: x * y, a, b)
    assert out.peek() == 12
    engine.change(a, 5)
    engine.propagate()
    assert out.peek() == 20


def test_read2_and_read_list():
    engine = Engine()
    a = engine.make_input(1)
    b = engine.make_input(2)
    c = engine.make_input(3)
    out = engine.mod(
        lambda dest: engine.read_list([a, b, c], lambda vs: engine.write(dest, sum(vs)))
    )
    pair = engine.mod(
        lambda dest: engine.read2(a, b, lambda x, y: engine.write(dest, (x, y)))
    )
    assert out.peek() == 6
    assert pair.peek() == (1, 2)
    engine.change(b, 20)
    engine.propagate()
    assert out.peek() == 24
    assert pair.peek() == (1, 20)


def test_meter_counts():
    engine = Engine()
    m = engine.make_input(1)
    square_chain(engine, m)
    assert engine.meter.mods_created == 2
    assert engine.meter.reads_executed == 1
    assert engine.meter.writes == 1
    engine.change(m, 2)
    engine.propagate()
    assert engine.meter.edges_reexecuted == 1


def test_trace_size_shrinks_after_cutoff():
    """Discarded trace segments release their stamps."""
    engine = Engine()
    m = engine.make_input(1)
    downstream = engine.mod(
        lambda d: engine.read(
            m,
            lambda v: (
                engine.read(engine.make_input(v), lambda w: engine.write(d, w))
            ),
        )
    )
    size_before = engine.trace_size()
    engine.change(m, 2)
    engine.propagate()
    # Old inner trace replaced by a same-shape new one: size stable.
    assert abs(engine.trace_size() - size_before) <= 2
    assert downstream.peek() == 2


def test_keyed_mod_recycles_identity_across_reexecution():
    """keyed_mod reuses the modifiable allocated under the same key when
    the old allocation site is being discarded, so equal re-writes cut
    propagation off (the AFL 'unsafe interface', paper Section 4.9)."""
    engine = Engine()
    x = engine.make_input(1)
    allocated = []

    def computation(dest):
        def on_x(v):
            inner = engine.keyed_mod(
                "stable-cell", lambda d: engine.write(d, v > 0)
            )
            allocated.append(inner)
            engine.write(dest, inner)

        engine.read(x, on_x)

    out = engine.mod(computation)
    first = out.peek()
    assert first.peek() is True
    engine.change(x, 5)  # sign unchanged: inner contents equal
    engine.propagate()
    assert out.peek() is first  # same identity recycled
    downstream_dirty = [e for e in first.readers if e.dirty]
    assert not downstream_dirty


def test_keyed_mod_fresh_when_key_live_elsewhere():
    engine = Engine()
    a = engine.keyed_mod("k", lambda d: engine.write(d, 1))
    b = engine.keyed_mod("k", lambda d: engine.write(d, 2))
    # The first allocation is still live and outside any reuse zone, so a
    # fresh modifiable must be used.
    assert a is not b
    assert a.peek() == 1 and b.peek() == 2


@pytest.mark.parametrize("keyed", [False, True], ids=["mod", "keyed_mod"])
@pytest.mark.parametrize("failure", ["raises", "unwritten"])
def test_outermost_mod_failure_is_transactional(keyed, failure):
    """An outermost ``mod`` or ``keyed_mod`` whose body raises, or
    finishes without writing, truncates everything the body recorded --
    its own keyed allocation stamp included -- and leaves the engine as it
    was before the call.  The dead keyed sites then recycle their
    modifiables."""
    engine = Engine()
    x = engine.make_input(3)
    engine.mod(lambda d: engine.read(x, lambda v: engine.write(d, v + 1)))
    size, now = engine.trace_size(), engine.now
    outer = []

    def body(dest):
        outer.append(dest)

        def on_x(v):
            engine.mod(lambda d: engine.write(d, v))
            engine.keyed_mod(("inner", v), lambda d: engine.write(d, v))
            if failure == "raises":
                raise ValueError("body failed")

        engine.read(x, on_x)

    expected = ValueError if failure == "raises" else UnwrittenModError
    with pytest.raises(expected):
        if keyed:
            engine.keyed_mod("site", body)
        else:
            engine.mod(body)
    assert engine.trace_size() == size
    assert engine.now is now
    assert engine._mod_depth == 0
    assert engine._dest_stack == []
    engine.order.check()
    check_trace(engine)

    sites = [("inner", 3)] + (["site"] if keyed else [])
    for key in sites:
        old, stamp, gen = engine.alloc_table[key]
        assert stamp.gen != gen or not stamp.live
        assert engine.keyed_mod(key, lambda d: engine.write(d, 7)) is old
    if keyed:
        assert engine.alloc_table["site"][0] is outer[0]


def test_keyed_mod_requires_write():
    engine = Engine()
    with pytest.raises(UnwrittenModError):
        engine.keyed_mod("k2", lambda d: None)


# ----------------------------------------------------------------------
# Write-cutoff value equality (_values_equal)
#
# The cutoff must be *type-sensitive*: Python's == conflates True == 1 ==
# 1.0 and 0.0 == -0.0, and a suppressed write of a value that only
# compares equal would leave the trace recording the wrong value (and the
# wrong type) for every downstream read.


def test_values_equal_distinguishes_bool_int_float():
    from repro.sac.engine import _values_equal

    assert not _values_equal(True, 1)
    assert not _values_equal(1, 1.0)
    assert not _values_equal(False, 0)
    assert _values_equal(1, 1)
    assert _values_equal(True, True)


def test_values_equal_float_edge_cases():
    from repro.sac.engine import _values_equal

    nan = float("nan")
    assert _values_equal(nan, nan)  # equal *for cutoff purposes*
    assert _values_equal(nan, float("nan"))
    assert not _values_equal(nan, 1.0)
    assert not _values_equal(0.0, -0.0)  # distinguishable (copysign, repr)
    assert _values_equal(0.0, 0.0)
    assert _values_equal(-0.0, -0.0)
    assert _values_equal(2.5, 2.5)


def test_values_equal_tuples_recurse():
    from repro.sac.engine import _values_equal

    nan = float("nan")
    assert _values_equal((1, (2, nan)), (1, (2, nan)))
    assert not _values_equal((1, 2), (1, 2, 3))
    assert not _values_equal((1, (2, 0.0)), (1, (2, -0.0)))
    assert not _values_equal((True,), (1,))
    assert not _values_equal((1, 2), [1, 2])  # tuple vs list


def test_values_equal_tuples_of_modifiables_by_identity():
    from repro.sac.engine import _values_equal

    engine = Engine()
    a = engine.make_input(1)
    b = engine.make_input(1)
    assert _values_equal((a, a), (a, a))
    # Distinct modifiables are distinct locations even with equal contents.
    assert not _values_equal((a,), (b,))


def test_values_equal_constructor_values():
    from repro.interp.values import ConValue
    from repro.sac.engine import _values_equal

    engine = Engine()
    tail = engine.make_input(None)
    assert _values_equal(ConValue("Nil", None), ConValue("Nil", None))
    assert not _values_equal(ConValue("Nil", None), ConValue("Cons", None))
    assert _values_equal(ConValue("Cons", (5, tail)), ConValue("Cons", (5, tail)))
    # Type sensitivity must reach through constructor arguments.
    assert not _values_equal(ConValue("Cons", (1, tail)), ConValue("Cons", (True, tail)))
    assert not _values_equal(ConValue("Cons", (0.0, tail)), ConValue("Cons", (-0.0, tail)))


def test_values_equal_incomparable_objects():
    from repro.sac.engine import _values_equal

    class Grumpy:
        def __eq__(self, other):
            raise RuntimeError("no comparisons, please")

        __hash__ = None

    g = Grumpy()
    assert _values_equal(g, g)  # identity short-circuits
    assert not _values_equal(g, Grumpy())  # comparison failure => not equal


def test_write_cutoff_is_type_sensitive():
    """Overwriting True with 1 must propagate: they print differently and
    behave differently under string formatting, so suppressing the write
    would freeze downstream reads at the stale value."""
    engine = Engine()
    m = engine.make_input(0)
    out = engine.mod(
        lambda dest: engine.read(m, lambda v: engine.write(dest, v == 0))
    )
    shown = engine.mod(
        lambda dest: engine.read(out, lambda v: engine.write(dest, repr(v)))
    )
    assert shown.peek() == "True"
    engine.change(m, 7)
    assert engine.propagate() >= 1
    assert shown.peek() == "False"


def test_write_cutoff_nan_write_does_not_cascade():
    """Re-writing NaN over NaN is a cutoff: downstream must not re-execute."""
    engine = Engine()
    m = engine.make_input(-1.0)
    nanned = engine.mod(
        lambda dest: engine.read(
            m, lambda v: engine.write(dest, float("nan") if v < 0 else v)
        )
    )
    reexec_count = [0]

    def downstream_reader(v):
        reexec_count[0] += 1

    engine.mod(
        lambda dest: engine.read(
            nanned, lambda v: (downstream_reader(v), engine.write(dest, 0))[-1]
        )
    )
    assert reexec_count[0] == 1
    engine.change(m, -2.0)  # still negative: nanned stays NaN
    engine.propagate()
    assert reexec_count[0] == 1  # cutoff held; downstream untouched


# ----------------------------------------------------------------------
# Leaf intervals: a read whose body records nothing closes on its start

LEAF_SOURCE = """
datatype cell = Nil | Cons of int * cell $C

fun squares l =
  case l of
    Nil => Nil
  | Cons (h, t) => Cons (h * h, squares t)

val main : cell $C -> cell $C = squares
"""


@pytest.mark.parametrize("hooked", [False, True], ids=["pooled", "checker"])
@pytest.mark.parametrize("backend", ["interp", "stack"])
def test_leaf_read_closes_on_start_and_reshapes_on_flip(backend, hooked):
    """The read of the list's Nil tail records nothing, so its interval is
    empty (``end is start``).  Appending a cell flips the branch: the
    re-execution records a memo, a mod and a nested read, so the edge gets
    an end stamp; removing the cell flips it back to a leaf.  Trace, order
    and a from-scratch run agree after every propagation."""
    checker = InvariantChecker() if hooked else None
    session = Session(LEAF_SOURCE, backend=backend, hook=checker)
    cells = session.input_list([3, 1, 2])
    out = session.run(cells.head)
    (edge,) = cells.mods[-1].readers  # the read of the Nil tail
    assert edge.end is edge.start

    def settle():
        session.propagate()
        session.engine.order.check()
        check_trace(session.engine, expect_empty_queue=True)
        data = cells.to_python()
        fresh = Session(LEAF_SOURCE, backend=backend)
        oracle = fresh.run(fresh.input_list(data).head)
        assert list_value_to_python(out) == list_value_to_python(oracle)
        assert list_value_to_python(out) == [x * x for x in data]

    cells.insert(3, 4)
    settle()
    assert not edge.dead
    assert edge.end is not edge.start and edge.start < edge.end
    cells.remove(3)
    settle()
    assert not edge.dead and edge.end is edge.start
    if hooked:
        assert checker.checks["full_trace"] == 2


def test_cursor_follows_a_reshaped_last_interval():
    """The engine's cursor rests on the trace's last stamp between runs.
    When the last read flips between leaf and non-leaf during
    propagation, the cursor must follow its interval's end, so a later
    top-level ``mod`` appends after the whole trace."""
    engine = Engine()
    m = engine.make_input(-1)
    aux = engine.make_input(10)

    def body(dest):
        def reader(v):
            if v > 0:
                engine.read(aux, lambda w: engine.write(dest, v + w))
            else:
                engine.write(dest, v)

        engine.read(m, reader)

    out = engine.mod(body)
    (edge,) = m.readers
    assert edge.end is edge.start and engine.now is edge.start
    engine.change(m, 1)
    engine.propagate()
    assert out.value == 11 and edge.end is not edge.start
    assert engine.now is edge.end
    extra = square_chain(engine, aux)
    check_trace(engine)
    engine.change(m, -5)
    engine.propagate()
    assert out.value == -5 and edge.end is edge.start
    assert engine.now.live
    square_chain(engine, extra)
    check_trace(engine)
    engine.order.check()
