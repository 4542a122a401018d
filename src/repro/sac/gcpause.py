"""Keep CPython's cyclic collector out of trace building and rewriting.

The engine frees its trace through reference counts and record
free-lists; the generational collector finds nothing to reclaim in a
live trace, yet an automatic gen2 collection scans all of it.  While a
run, a propagation or a demand allocates trace records, every collection
the allocations trigger is such a full-heap scan (DESIGN.md Section 3.1).

:func:`gc_paused` wraps a function so that each call runs with the
collector suspended and restores the caller's state on every exit path.
It never re-enables a collector the caller had disabled, nests freely,
and leaves any cyclic garbage to the first automatic collection after
the call returns.  Only synchronous functions may be wrapped: the switch
is process-global, so a pause must never be held across an ``await``.
"""

from __future__ import annotations

import functools
from gc import disable, enable, isenabled
from typing import Callable, TypeVar

__all__ = ["gc_paused"]

F = TypeVar("F", bound=Callable)


def gc_paused(fn: F) -> F:
    """Wrap ``fn`` so that each call runs with the cyclic collector
    suspended.  Usable as a decorator."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = isenabled()
        disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                enable()

    return paused
