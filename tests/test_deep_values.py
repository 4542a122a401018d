"""Deep constructor chains must never overflow the interpreter stack.

Regression tests for recursion bugs: ``ConValue.__eq__``/``__hash__``
and the engine's ``_values_equal`` used to recurse along the spine, so a
write-cutoff comparison (or a dict lookup) on a deep cons chain raised
``RecursionError``.  All three walks
are iterative now; these tests pin that by running them on multi-thousand
node chains under a deliberately *tightened* recursion limit — a
recursive implementation overflows deterministically, an iterative one
does not care.

Sizes are fixed constants on purpose: the runtime raises the global
recursion limit to ~600k for the interpreters
(``repro.interp.ensure_recursion_headroom``), so anything derived from
``sys.getrecursionlimit()`` inside a test explodes once an engine has run
earlier in the session.

Constructor values are not hash-consed, so two chains built from the
same elements are distinct objects and every comparison below walks the
whole spine.
"""

import contextlib
import sys

from repro.api import Session
from repro.interp.values import ConValue, list_value_to_python
from repro.sac.engine import _values_equal

#: Far deeper than the 1000-frame budget enforced below.
DEPTH = 5000


@contextlib.contextmanager
def _tight_stack(limit=1000):
    """Clamp the recursion limit so a spine-recursive walk overflows."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def _chain(depth):
    node = ConValue("Nil")
    for i in range(depth):
        node = ConValue("Cons", (float(i), node))
    return node


def test_deep_chain_equality_and_hash_are_iterative():
    a = _chain(DEPTH)
    b = _chain(DEPTH)
    assert a is not b  # distinct objects: genuinely deep walk
    with _tight_stack():
        assert a == b
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"


def test_deep_chain_difference_detected():
    a = ConValue("Cons", (1.5, _chain(DEPTH)))
    b = ConValue("Cons", (2.5, _chain(DEPTH)))
    with _tight_stack():
        assert a != b


def test_values_equal_walks_deep_chains_iteratively():
    a = _chain(DEPTH)
    b = _chain(DEPTH)
    short = _chain(DEPTH - 1)
    with _tight_stack():
        assert _values_equal(a, b)
        assert not _values_equal(a, short)


SQUARES = """
datatype cell = Nil | Cons of int * cell $C

fun squares l =
  case l of
    Nil => Nil
  | Cons (h, t) => Cons (h * h, squares t)

val main : cell $C -> cell $C = squares
"""


def test_deep_list_edit_head_no_recursion_error():
    """End to end: a list longer than the default recursion limit, edit
    the head, propagate.  The engine's write-cutoff comparisons along the
    way must not recurse down the spine.  (The interpreter itself *is*
    recursive over the list — that is what ``ensure_recursion_headroom``
    is for — so the limit is not clamped here.)"""
    n = 1500
    session = Session(SQUARES)
    xs = session.input_list(list(range(n)))
    out = session.run(xs.head)
    assert xs.set(0, 9) == 1
    session.propagate()
    result = list_value_to_python(out)
    assert result[0] == 81
    assert result[1:] == [x * x for x in range(1, n)]
