"""Marshalling between Python data and LML runtime values.

Inputs to compiled programs are built on the host side; where the program's
input type is changeable (per the solved levels), values are wrapped in
input modifiables, and a *handle* object remembers them so the host can
make incremental changes and then call ``propagate``.

The handles mirror the changes the paper's benchmarks make (Section 4.1):

* :class:`ModListInput` -- lists with changeable tails: insert/remove/set;
* :class:`ModVectorInput` -- vectors with changeable elements: set;
* :class:`ModMatrixInput` -- matrices of changeable elements: set;
* :class:`BlockMatrixInput` -- matrices of changeable blocks: set
  (any element change rewrites its whole block).

Every edit method follows the uniform convention of
:class:`repro.api.Session`: the change is *staged* (nothing re-executes
until propagation) and the return value is the number of read edges it
dirtied.

List cells are plain :class:`~repro.interp.values.ConValue` objects; a cell
rebuilt during an edit with unchanged contents is a new object, and the
engine's write cutoff compares it structurally with the one it replaces
(head by value, tail modifiable by identity).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.interp.values import ConValue, deep_read, list_value_to_python
from repro.sac.engine import Engine
from repro.sac.modifiable import Modifiable

__all__ = [
    "ModListInput",
    "ModVectorInput",
    "ModMatrixInput",
    "BlockMatrixInput",
    "plain_list",
    "deep_read",
    "list_value_to_python",
]


def plain_list(items: Sequence[Any], nil: str = "Nil", cons: str = "Cons") -> ConValue:
    """Build a conventional (modifiable-free) cons list value."""
    value = ConValue(nil)
    for item in reversed(list(items)):
        value = ConValue(cons, (item, value))
    return value


class ModListInput:
    """A modifiable list input (changeable tails).

    ``mods[i]`` holds the cell starting at position ``i``; ``mods[len]``
    holds ``Nil``.  The program receives :attr:`head` (a modifiable of
    cell), matching an LML parameter of type ``list $C`` where the datatype
    is ``datatype list = Nil | Cons of elem * list $C``.
    """

    def __init__(
        self,
        engine: Engine,
        items: Sequence[Any],
        nil: str = "Nil",
        cons: str = "Cons",
    ) -> None:
        self.engine = engine
        self.nil = nil
        self.cons = cons
        # Build back-to-front and reverse once: the obvious
        # ``insert(0, ...)`` per element is O(n^2) and dominates marshal
        # time for the deep-workload stress inputs (n ~ 1e5).
        mods: List[Modifiable] = [engine.make_input(ConValue(nil))]
        for item in reversed(list(items)):
            cell = ConValue(cons, (item, mods[-1]))
            mods.append(engine.make_input(cell))
        mods.reverse()
        self.mods: List[Modifiable] = mods

    @property
    def head(self) -> Modifiable:
        return self.mods[0]

    def __len__(self) -> int:
        return len(self.mods) - 1

    def to_python(self) -> list:
        return list_value_to_python(self.mods[0])

    def get(self, index: int) -> Any:
        """The value of element ``index`` (untracked peek)."""
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self.mods[index].peek().arg[0]

    def insert(self, index: int, value: Any) -> int:
        """Insert ``value`` so it becomes element ``index``."""
        if not 0 <= index <= len(self):
            raise IndexError(index)
        target = self.mods[index]
        carrier = self.engine.make_input(target.peek())
        dirtied = self.engine.change(
            target, ConValue(self.cons, (value, carrier))
        )
        self.mods.insert(index + 1, carrier)
        return dirtied

    def remove(self, index: int) -> int:
        """Remove element ``index`` (use :meth:`get` first for its value)."""
        if not 0 <= index < len(self):
            raise IndexError(index)
        dirtied = self.engine.change(
            self.mods[index], self.mods[index + 1].peek()
        )
        del self.mods[index + 1]
        return dirtied

    def set(self, index: int, value: Any) -> int:
        """Replace the head value of element ``index``."""
        if not 0 <= index < len(self):
            raise IndexError(index)
        cell = self.mods[index].peek()
        return self.engine.change(
            self.mods[index], ConValue(self.cons, (value, cell.arg[1]))
        )


class ModVectorInput:
    """A vector of changeable elements: LML type ``(elem $C) vector``."""

    def __init__(self, engine: Engine, items: Sequence[Any]) -> None:
        self.engine = engine
        self.mods: List[Modifiable] = [engine.make_input(x) for x in items]
        self.value = tuple(self.mods)

    def __len__(self) -> int:
        return len(self.mods)

    def set(self, index: int, value: Any) -> int:
        return self.engine.change(self.mods[index], value)

    def get(self, index: int) -> Any:
        return self.mods[index].peek()

    def to_python(self) -> list:
        return [m.peek() for m in self.mods]


class ModMatrixInput:
    """A matrix of changeable elements: ``((elem $C) vector) vector``."""

    def __init__(self, engine: Engine, rows: Sequence[Sequence[Any]]) -> None:
        self.engine = engine
        self.rows = [ModVectorInput(engine, row) for row in rows]
        self.value = tuple(r.value for r in self.rows)

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def set(self, i: int, j: int, value: Any) -> int:
        return self.rows[i].set(j, value)

    def get(self, i: int, j: int) -> Any:
        return self.rows[i].get(j)

    def to_python(self) -> list:
        return [r.to_python() for r in self.rows]


class BlockMatrixInput:
    """A matrix stored as blocks, each block one modifiable.

    The LML type is ``((block $C) vector) vector`` where
    ``datatype block = Block of (real vector) vector``: each modifiable
    holds a ``Block`` constructor value around a plain sub-matrix.
    Changing any element rewrites its whole block (paper Sections 2.4 and
    4.6).
    """

    def __init__(
        self, engine: Engine, rows: Sequence[Sequence[float]], block: int
    ) -> None:
        if not rows or len(rows) % block or len(rows[0]) % block:
            raise ValueError("matrix dimensions must be multiples of the block size")
        self.engine = engine
        self.block = block
        self.n = len(rows)
        self.m = len(rows[0])
        self.blocks: List[List[Modifiable]] = []
        for bi in range(self.n // block):
            brow = []
            for bj in range(self.m // block):
                data = tuple(
                    tuple(rows[bi * block + r][bj * block + c] for c in range(block))
                    for r in range(block)
                )
                brow.append(engine.make_input(ConValue("Block", data)))
            self.blocks.append(brow)
        self.value = tuple(tuple(brow) for brow in self.blocks)

    @property
    def shape(self):
        return (self.n, self.m)

    def set(self, i: int, j: int, value: float) -> int:
        """Change element (i, j), rewriting its block."""
        bi, bj = i // self.block, j // self.block
        mod = self.blocks[bi][bj]
        data = [list(row) for row in mod.peek().arg]
        data[i % self.block][j % self.block] = value
        return self.engine.change(
            mod, ConValue("Block", tuple(tuple(row) for row in data))
        )

    def to_python(self) -> list:
        out = [[0.0] * self.m for _ in range(self.n)]
        for bi, brow in enumerate(self.blocks):
            for bj, mod in enumerate(brow):
                data = mod.peek().arg
                for r in range(self.block):
                    for c in range(self.block):
                        out[bi * self.block + r][bj * self.block + c] = data[r][c]
        return out


def from_python(engine: Optional[Engine], lty, value: Any) -> Any:
    """Type-directed marshalling: build a runtime input from Python data.

    ``lty`` is a level type (e.g. ``program.main_lty.children[0]`` for the
    input of ``main``); positions whose level resolved changeable are
    wrapped in input modifiables.  With ``engine=None`` the conventional
    (modifiable-free) representation is built.

    Datatype values must already be :class:`ConValue` trees (constructor
    layout is application-specific); they pass through unchanged apart
    from the top-level wrapping.
    """
    from repro.sac.modifiable import Modifiable

    def build(lty, value):
        if isinstance(value, (Modifiable, ConValue)):
            inner = value  # pre-built runtime values pass through
        elif lty.kind == "tuple":
            inner = tuple(build(c, v) for c, v in zip(lty.children, value))
        elif lty.kind == "vector":
            inner = tuple(build(lty.children[0], v) for v in value)
        else:
            inner = value
        if engine is not None and lty.level == "C" and not isinstance(inner, Modifiable):
            return engine.make_input(inner)
        return inner

    return build(lty, value)
