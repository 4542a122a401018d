"""List benchmarks: map, filter, reverse, split, qsort, msort (paper
Section 4.1; ``reverse`` is the classic accumulator-reversal added for the
observability test suite -- an insertion near the tail of the input
invalidates the whole accumulator chain, which makes it a good stress for
the from-scratch-consistency oracle).

The list datatype makes only the *tails* changeable::

    datatype cell = Nil | Cons of int * cell $C

so the supported incremental changes are insertion and deletion of
elements -- exactly the paper's setup ("specifying the tail of the lists
as changeable").  ``main`` is annotated ``cell $C -> ...``; everything else
is conventional SML.

Two structural notes (both standard for self-adjusting list algorithms,
and matching the AFL benchmarks the paper reuses):

* ``split`` partitions with two filter-shaped passes, returning a *stable*
  pair of changeable lists: the output spine cells then stay stable under
  propagation (each filter memo-reuses its result modifiables).
* ``msort`` divides by the *bits of the element values* instead of by
  position, so an insertion does not shift the parity of every later
  element (value-stable division).  Its elements must be distinct
  integers (zero and negatives are fine): two equal elements never
  separate, so ``ms`` would recurse forever.  ``Session.prepare``/``run``
  refuse such data with :class:`RepeatedElementError` before anything
  runs; an edit through ``ModListInput.insert`` that repeats a value is
  the caller's to avoid (the change driver draws fresh values);
* ``msort``'s merge copies the remaining suffix through a memoized ``cp``
  when one side runs out, instead of sharing the other list's spine.
  Sharing would make the output spine's identity flip between
  merge-allocated and shared cells whenever a change moves an exhaustion
  point, invalidating every memo key upstream and cascading a full
  rebuild to the root (identity-stable merge).
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

from repro.apps.base import App, random_permutation
from repro.interp.marshal import ModListInput, plain_list
from repro.interp.values import list_value_to_python
from repro.sac.engine import Engine

_DATATYPE = """
datatype cell = Nil | Cons of int * cell $C
"""

MAP_SOURCE = _DATATYPE + """
fun f h = h div 3 + h div 5 + h div 7

fun mapf l =
  case l of
    Nil => Nil
  | Cons (h, t) => Cons (f h, mapf t)

val main : cell $C -> cell $C = mapf
"""

FILTER_SOURCE = _DATATYPE + """
fun f h = h div 3 + h div 5 + h div 7

fun filt l =
  case l of
    Nil => Nil
  | Cons (h, t) => if (f h) mod 2 = 0 then Cons (h, filt t) else filt t

val main : cell $C -> cell $C = filt
"""

REVERSE_SOURCE = _DATATYPE + """
fun revapp (l, acc) =
  case l of
    Nil => acc
  | Cons (h, t) => revapp (t, Cons (h, acc))

val main : cell $C -> cell $C = fn l => revapp (l, Nil)
"""

SPLIT_SOURCE = _DATATYPE + """
fun evens l =
  case l of
    Nil => Nil
  | Cons (h, t) => if h mod 2 = 0 then Cons (h, evens t) else evens t

fun odds l =
  case l of
    Nil => Nil
  | Cons (h, t) => if h mod 2 = 1 then Cons (h, odds t) else odds t

val main : cell $C -> (cell $C * cell $C) = fn l => (evens l, odds l)
"""

QSORT_SOURCE = _DATATYPE + """
fun lt (p, l) =
  case l of
    Nil => Nil
  | Cons (h, t) => if h < p then Cons (h, lt (p, t)) else lt (p, t)

fun ge (p, l) =
  case l of
    Nil => Nil
  | Cons (h, t) => if h < p then ge (p, t) else Cons (h, ge (p, t))

fun qs (l, rest) =
  case l of
    Nil => rest
  | Cons (h, t) => qs (lt (h, t), Cons (h, qs (ge (h, t), rest)))

val main : cell $C -> cell $C = fn l => qs (l, Nil)
"""

MSORT_SOURCE = _DATATYPE + """
fun half (b, m, l) =
  case l of
    Nil => Nil
  | Cons (h, t) =>
      if (h div m) mod 2 = b then Cons (h, half (b, m, t)) else half (b, m, t)

fun cp l =
  case l of
    Nil => Nil
  | Cons (h, t) => Cons (h, cp t)

fun merge (a, b) =
  case a of
    Nil => cp b
  | Cons (ha, ta) =>
      case b of
        Nil => Cons (ha, cp ta)
      | Cons (hb, tb) =>
          if ha <= hb then Cons (ha, merge (ta, b)) else Cons (hb, merge (a, tb))

fun ms (l, m) =
  case l of
    Nil => Nil
  | Cons (h, t) =>
      (case t of
        Nil => Cons (h, t)
      | Cons (h2, t2) => merge (ms (half (0, m, l), m * 2), ms (half (1, m, l), m * 2)))

val main : cell $C -> cell $C = fn l => ms (l, 1)
"""


# ----------------------------------------------------------------------
# References


def _mangle(h: int) -> int:
    return h // 3 + h // 5 + h // 7


def ref_map(xs: List[int]) -> List[int]:
    return [_mangle(x) for x in xs]


def ref_filter(xs: List[int]) -> List[int]:
    return [x for x in xs if _mangle(x) % 2 == 0]


def ref_reverse(xs: List[int]) -> List[int]:
    return list(reversed(xs))


def ref_split(xs: List[int]) -> Tuple[List[int], List[int]]:
    return ([x for x in xs if x % 2 == 0], [x for x in xs if x % 2 == 1])


def ref_sort(xs: List[int]) -> List[int]:
    return sorted(xs)


# ----------------------------------------------------------------------
# Harness plumbing


class _ListChanger:
    """Alternates insertions and deletions, keeping element values unique
    (msort's value-based division requires distinct elements).  Tracks the
    set of live values per handle."""

    def __call__(self, handle: ModListInput, rng: random.Random, step: int) -> None:
        used = getattr(handle, "_used_values", None)
        if used is None:
            used = set(handle.to_python())
            handle._used_values = used  # type: ignore[attr-defined]
        if step % 2 == 0 or len(handle) == 0:
            # Draw inserted values from (nearly) the same dense range as the
            # initial permutation, as the paper does.  Values far above the
            # existing maximum would make sorted-merge updates walk the
            # whole other side (a genuine worst case, not the average the
            # paper samples), and would deepen msort's bit division.
            bound = (4 * (len(handle) + 1)) // 3 + 16
            while True:
                value = rng.randrange(1, bound)
                if value not in used:
                    break
            used.add(value)
            handle.insert(rng.randrange(len(handle) + 1), value)
        else:
            index = rng.randrange(len(handle))
            used.discard(handle.get(index))
            handle.remove(index)


class RepeatedElementError(ValueError):
    """msort data holds a repeated element, on which ``ms`` never ends."""


def _distinct(make):
    """Wrap an input builder (data last) to refuse a repeated element."""

    def checked(*args):
        seen = set()
        for x in args[-1]:
            if x in seen:
                raise RepeatedElementError(
                    f"msort needs distinct elements; {x!r} repeats"
                )
            seen.add(x)
        return make(*args)

    return checked


def _make_sa_list(engine: Engine, data: List[int]):
    handle = ModListInput(engine, data)
    return handle.head, handle


def _readback_list(output: Any) -> List[int]:
    return list_value_to_python(output)


def _readback_pair(output: Any) -> Tuple[List[int], List[int]]:
    from repro.interp.values import deep_read
    from repro.sac.modifiable import Modifiable

    value = output
    if isinstance(value, Modifiable):
        value = value.peek()
    first, second = value
    return (list_value_to_python(first), list_value_to_python(second))


def _list_app(name: str, source: str, reference) -> App:
    readback = _readback_pair if name == "split" else _readback_list
    make_sa, make_conv = _make_sa_list, plain_list
    if name == "msort":
        make_sa, make_conv = _distinct(make_sa), _distinct(make_conv)
    return App(
        name=name,
        source=source,
        make_data=random_permutation,
        make_sa_input=make_sa,
        make_conv_input=make_conv,
        apply_change=_ListChanger(),
        reference=reference,
        readback=readback,
        handle_data=lambda handle: handle.to_python(),
    )


def make_apps() -> dict:
    return {
        "map": _list_app("map", MAP_SOURCE, ref_map),
        "filter": _list_app("filter", FILTER_SOURCE, ref_filter),
        "reverse": _list_app("reverse", REVERSE_SOURCE, ref_reverse),
        "split": _list_app("split", SPLIT_SOURCE, ref_split),
        "qsort": _list_app("qsort", QSORT_SOURCE, ref_sort),
        "msort": _list_app("msort", MSORT_SOURCE, ref_sort),
    }
