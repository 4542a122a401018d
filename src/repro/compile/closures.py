"""Frame layout and atom/primitive staging for the stack machine.

The stack machine (:mod:`repro.compile.stackmachine`) flattens control
flow and engine boundaries into instructions, but keeps pure straight-line
``let`` segments as fused Python closures.  This module stages the pieces
of those segments once, at compile time:

* **Frames instead of environments.**  Each *frame unit* -- a ``BLam``
  body, a ``CRead`` reader body, or the top-level program body -- gets a
  fixed-size Python list allocated per activation.  Slot 0 is the static
  link to the lexically enclosing frame; locals occupy slots ``1..n``.
  Binder names are globally unique after ``uniquify``, so every binder in a
  unit (including binders of sibling case arms) gets its own slot and no
  slot is ever written twice within one activation.
* **Variables become (depth, slot) pairs.**  A reference resolves at
  compile time to how many static links to follow and which slot to index;
  the emitted accessor for the common depths is a single list index
  (``f[s]``, ``f[0][s]``, ``f[0][0][s]``) -- no hashing, no chain walk.
* **Primitives become direct operator closures** with the interpreter's
  error behaviour (division by zero, negative ``sqrt``); the rest fall
  back to :func:`repro.interp.builtins.eval_prim`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

from repro.core import sxml as S
from repro.interp.builtins import BUILTIN_IMPLS, eval_prim
from repro.interp.values import LmlRuntimeError

__all__ = ["atom", "local_slot", "prim"]


class _Unit:
    """Compile-time frame layout of one frame unit.

    Slot 0 is reserved for the static link; :meth:`alloc` hands out the
    local slots.  The final ``size`` is read only after the whole unit has
    been compiled.
    """

    __slots__ = ("size",)

    def __init__(self) -> None:
        self.size = 1

    def alloc(self) -> int:
        slot = self.size
        self.size += 1
        return slot


class _Scope:
    """Compile-time name resolution: one scope per frame unit, chained.

    Because binder names are globally unique, a single flat dict per unit
    is enough -- a name can never be shadowed or rebound, and a reference
    can only occur under its binder.
    """

    __slots__ = ("unit", "parent", "slots")

    def __init__(self, unit: _Unit, parent: Optional["_Scope"] = None) -> None:
        self.unit = unit
        self.parent = parent
        self.slots: Dict[str, int] = {}

    def bind(self, name: str) -> int:
        slot = self.unit.alloc()
        self.slots[name] = slot
        return slot

    def resolve(self, name: str) -> Tuple[int, int]:
        depth = 0
        scope: Optional[_Scope] = self
        while scope is not None:
            slot = scope.slots.get(name)
            if slot is not None:
                return depth, slot
            depth += 1
            scope = scope.parent
        raise LmlRuntimeError(f"unbound variable at compile time: {name}")


def local_slot(a: S.Atom, sc: _Scope) -> Optional[int]:
    """Slot index if ``a`` is a local (depth-0) variable, else None.

    Hot consumers use this to index the frame directly instead of calling
    an accessor closure.
    """
    if type(a) is S.AVar and not a.is_builtin:
        depth, slot = sc.resolve(a.name)
        if depth == 0:
            return slot
    return None


def atom(a: S.Atom, sc: _Scope) -> Callable:
    """A getter ``f -> value`` for an atom in the frame ``f``."""
    if type(a) is S.AVar:
        if a.is_builtin:
            builtin = BUILTIN_IMPLS[a.name]
            return lambda f, _v=builtin: _v
        depth, slot = sc.resolve(a.name)
        if depth == 0:
            return lambda f, _s=slot: f[_s]
        if depth == 1:
            return lambda f, _s=slot: f[0][_s]
        if depth == 2:
            return lambda f, _s=slot: f[0][0][_s]

        def deep(f, _d=depth, _s=slot):
            for _ in range(_d):
                f = f[0]
            return f[_s]

        return deep
    value = a.value
    return lambda f, _v=value: _v


def prim(b: S.BPrim, sc: _Scope) -> Callable:
    """A getter ``f -> value`` computing a primitive over atom getters."""
    getters = [atom(a, sc) for a in b.args]
    op = b.op
    if len(getters) == 2:
        g1, g2 = getters
        if op == "+" or op == "^":
            return lambda f: g1(f) + g2(f)
        if op == "-":
            return lambda f: g1(f) - g2(f)
        if op == "*":
            return lambda f: g1(f) * g2(f)
        if op == "<":
            return lambda f: g1(f) < g2(f)
        if op == "<=":
            return lambda f: g1(f) <= g2(f)
        if op == ">":
            return lambda f: g1(f) > g2(f)
        if op == ">=":
            return lambda f: g1(f) >= g2(f)
        if op == "=":
            return lambda f: g1(f) == g2(f)
        if op == "<>":
            return lambda f: g1(f) != g2(f)
        if op == "/":

            def fdiv(f):
                x = g1(f)
                y = g2(f)
                if y == 0.0:
                    raise LmlRuntimeError("division by zero")
                return x / y

            return fdiv
        if op == "div":

            def idiv(f):
                x = g1(f)
                y = g2(f)
                if y == 0:
                    raise LmlRuntimeError("div by zero")
                return x // y

            return idiv
        if op == "mod":

            def imod(f):
                x = g1(f)
                y = g2(f)
                if y == 0:
                    raise LmlRuntimeError("mod by zero")
                return x % y

            return imod
        if op == "rpow":
            return lambda f: math.pow(g1(f), g2(f))
    elif len(getters) == 1:
        (g1,) = getters
        if op == "~":
            return lambda f: -g1(f)
        if op == "not":
            return lambda f: not g1(f)
        if op == "toReal":
            return lambda f: float(g1(f))
        if op == "floor":
            return lambda f: math.floor(g1(f))
        if op == "sqrt":

            def fsqrt(f):
                x = g1(f)
                if x < 0.0:
                    raise LmlRuntimeError("sqrt of negative")
                return math.sqrt(x)

            return fsqrt
    getters_t = tuple(getters)
    return lambda f: eval_prim(op, [g(f) for g in getters_t])
