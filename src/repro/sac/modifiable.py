"""Modifiable references.

A *modifiable* (paper Section 2.2) is a write-once-per-epoch reference cell
holding changeable data.  The initial run writes it once (inside ``mod``);
between runs, input modifiables may be *changed*; change propagation then
re-executes exactly the reads that observed stale values.
"""

from __future__ import annotations

from typing import Any, Dict


class _Unwritten:
    """Sentinel for a modifiable that has not been written yet."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unwritten>"


UNWRITTEN = _Unwritten()


class Modifiable:
    """A modifiable reference.

    Attributes:
        value: current contents (or :data:`UNWRITTEN`).
        readers: the live :class:`repro.sac.trace.ReadEdge` objects that
            observed this modifiable, as dict keys (values ``None``): an
            insertion-ordered set, so every walk over readers -- and the
            relevance walk's visit count -- is deterministic.
        suspect: lazy-mode dirty bit.  Under ``Engine(mode="lazy")`` an
            edit marks every modifiable whose value *may* now be stale --
            the edited one's readers' destinations, transitively -- and
            :meth:`repro.sac.engine.Engine.demand` recomputes the suspect
            set from the dirty reads still queued once its drain ends.  A
            modifiable with a clear bit can be served without any
            propagation work.  Eager engines never set it.
    """

    __slots__ = ("value", "readers", "suspect")

    def __init__(self, value: Any = UNWRITTEN) -> None:
        self.value = value
        self.readers: Dict[Any, None] = {}
        self.suspect = False

    @property
    def written(self) -> bool:
        return self.value is not UNWRITTEN

    def peek(self) -> Any:
        """Return the current value without recording a dependency.

        Use this only from *outside* the self-adjusting computation (e.g. to
        inspect outputs); reads inside the computation must go through
        :meth:`repro.sac.engine.Engine.read` so they are traced.
        """
        if self.value is UNWRITTEN:
            raise ValueError("modifiable has not been written")
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Mod({self.value!r})"
