"""A session's engine dies with the last reference to it.

An engine owns the whole trace of its run (modifiables, read records,
memo tables), so anything process-wide that reaches into it -- a cache
keyed by values that hold modifiables, say -- keeps every dropped
session alive for the rest of the process.  These tests drop the last
reference in each way a session can end and check, after a full
collection, that a weak reference to the engine is dead:

* an msort session that ran and propagated, then went out of scope;
* the engine :meth:`repro.api.Session.rebuild` replaced;
* an msort document's engine after :meth:`SessionPool.close`.
"""

import asyncio
import gc
import random
import weakref

import pytest

from repro.api import Session
from repro.apps import REGISTRY
from repro.server import SessionPool

APP = REGISTRY["msort"]
N = 64


def _run_msort(backend):
    """Run msort on ``N`` elements, then propagate a few edits."""
    rng = random.Random(0)
    session = Session(APP, backend=backend)
    session.run(data=APP.make_data(N, rng))
    for step in range(4):
        APP.apply_change(session.input_handle, rng, step)
        session.propagate()
    return session


def _assert_dead(ref):
    gc.collect()
    assert ref() is None, "engine still reachable after gc.collect()"


@pytest.mark.parametrize("backend", ["stack", "interp"])
def test_dropped_session_frees_engine(backend):
    ref = weakref.ref(_run_msort(backend).engine)
    _assert_dead(ref)


def test_rebuild_frees_replaced_engine():
    session = _run_msort("stack")
    ref = weakref.ref(session.engine)
    session.rebuild()
    assert session.engine is not ref()
    _assert_dead(ref)


def test_pool_close_frees_engine():
    async def main():
        pool = SessionPool(mode="eager")
        pool.open("doc", app="msort", n=N)
        ref = weakref.ref(pool.docs["doc"].session.engine)
        await pool.close("doc")
        return ref

    _assert_dead(asyncio.run(main()))
