"""Hash-consing for constructor values.

Self-adjusting list/tree programs build enormous numbers of structurally
identical constructor cells (``Cons(h, t)`` with the same head and tail
modifiable, ``Leaf``, ``Nil``...).  Interning those cells buys two things on
the engine's hot paths:

* ``Engine._values_equal`` can answer *equal* with an identity test (two
  interned cells with internable contents are structurally equal iff they
  are the same object), so conservative write-cutoff comparisons stop
  walking deep spines;
* memo keys built from interned cells hash in O(1) by identity instead of
  recomputing a structural hash over the spine.

The table is *generic* over the constructor class: this module lives in
``repro.sac`` and must not import the interpreter, so the caller passes its
value class in (see :func:`repro.interp.values.intern_con`).  The contract
with the class is small: instances carry ``tag``/``arg`` attributes and a
writable ``_hc`` flag, and support weak references.  The table stores
canonical instances weakly -- interning never extends a value's lifetime.

Canonicalization is *best effort*.  A cell is interned only when its
argument is built from internable pieces:

* ``None`` and scalars (``int``/``bool``/``str``), keyed with their type so
  ``1``/``True``/``1.0`` never conflate;
* tuples of internable pieces;
* modifiables (identity: a modifiable *is* its own canonical name);
* already-canonical constructor values (identity, via :class:`_Ref`).

Anything else -- floats (``NaN``/``-0.0`` break the equality lattice),
closures, non-canonical constructor values -- bypasses the table; the cell
is built uninterned and behaves exactly as before.  Soundness only needs
the one-sided guarantee: *if* two values are both canonical and distinct
objects, they are structurally unequal.
"""

from __future__ import annotations

import weakref
from typing import Any, Optional

from repro.sac.modifiable import Modifiable

#: Key for a nullary constructor argument (``arg is None``).
_NONE_KEY = ("none",)


class _Ref:
    """Identity key for a canonical constructor value.

    Canonical values are compared by identity inside intern keys: hashing
    them structurally would walk the spine (defeating the point), and raw
    Python ``==`` would conflate e.g. ``Con("C", 1)`` with ``Con("C", True)``.
    The wrapper holds a strong reference; it lives inside the key of a
    :class:`weakref.WeakValueDictionary` entry, which is dropped as soon as
    the entry's (parent) value is collected, so children are pinned only
    while an interned parent still exists.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: Any) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: Any) -> bool:
        return type(other) is _Ref and other.obj is self.obj


class InternTable:
    """A weak table of canonical constructor values."""

    def __init__(self) -> None:
        self.table: "weakref.WeakValueDictionary[Any, Any]" = (
            weakref.WeakValueDictionary()
        )
        #: lookups answered with an existing canonical instance.
        self.hits = 0
        #: lookups that installed a fresh canonical instance.
        self.misses = 0
        #: constructions whose argument was not internable.
        self.bypassed = 0

    def con(self, cls: Any, tag: str, arg: Any = None) -> Any:
        """Return a canonical ``cls(tag, arg)``, or a fresh uninterned one
        when ``arg`` contains uninternable pieces."""
        key = _NONE_KEY if arg is None else self._key(arg)
        if key is None:
            self.bypassed += 1
            return cls(tag, arg)
        full_key = (tag, key)
        existing = self.table.get(full_key)
        if existing is not None:
            self.hits += 1
            return existing
        self.misses += 1
        value = cls(tag, arg)
        value._hc = True
        self.table[full_key] = value
        return value

    def _key(self, value: Any) -> Optional[Any]:
        """An intern key for ``value``, or ``None`` if uninternable."""
        if value is None:
            return _NONE_KEY
        t = type(value)
        if t is int or t is str or t is bool:
            return (t, value)
        if t is Modifiable:
            return value
        if t is tuple:
            if len(value) == 2:
                # Every cons cell carries a (head, tail) pair: build the
                # same ("t", k0, k1) key without the list round-trip.
                a, b = value
                ka = self._key(a)
                if ka is None:
                    return None
                kb = self._key(b)
                if kb is None:
                    return None
                return ("t", ka, kb)
            parts: list = ["t"]
            for item in value:
                k = self._key(item)
                if k is None:
                    return None
                parts.append(k)
            return tuple(parts)
        if getattr(value, "_hc", False):
            return _Ref(value)
        if isinstance(value, Modifiable):
            return value
        return None

    def stats(self) -> dict:
        return {
            "live": len(self.table),
            "hits": self.hits,
            "misses": self.misses,
            "bypassed": self.bypassed,
        }


#: The process-wide table.  Canonical values from different engines may
#: share cells; that is fine -- canonical values are immutable and equality
#: is structural, not engine-scoped.
INTERN = InternTable()


def intern_stats() -> dict:
    """Counters for the process-wide intern table."""
    return INTERN.stats()
