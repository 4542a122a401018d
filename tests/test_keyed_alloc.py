"""Type-directed keyed allocation on the compiled path.

A memoized call whose callee opens with its result ``mod`` allocates that
modifiable under ``(call site, stable scalars in scope)`` (the translator
supplies the key; ``Engine.memo_probe`` does the allocation).  A miss that
finds its key's site inside the reuse zone continues at that site, as a
memo hit would, and recycles its modifiable.  These tests pin:

* the edit sequences on which recycling *without* continuing at the old
  site let a later memo hit splice the stale site back in, so two cells
  shared one modifiable (cyclic output lists, or a propagation that
  never finished);
* the payoff: compiled msort's reads per change grow polylogarithmically;
* the scope: lazy engines stay on the unkeyed path.
"""

import random

import pytest

from repro.api import Session
from repro.apps import REGISTRY
from repro.obs import TraceHook, check_trace
from repro.sac import Engine
from repro.sac.modifiable import Modifiable

BACKENDS = ["stack", "interp"]


def _list(value, limit):
    """Read a changeable list back, refusing to follow a cycle."""
    out = []
    seen = set()
    while True:
        if isinstance(value, Modifiable):
            assert id(value) not in seen and len(out) <= limit, (
                f"cyclic output list after {out[:12]}"
            )
            seen.add(id(value))
            value = value.peek()
        if value.arg is None:
            return out
        head, value = value.arg
        out.append(head)


class _ReadBudget(TraceHook):
    """Fails a runaway re-execution: a reader copying a cyclic list never
    returns, which ``propagate(budget=)`` (counted between re-executions)
    cannot stop."""

    def __init__(self, cap):
        self.cap = cap
        self.reads = 0

    def on_read_start(self, edge):
        self.reads += 1
        if self.reads > self.cap:
            raise RuntimeError(f"more than {self.cap} reads in one edit")


def _msort_session(n, seed, backend, mode="eager", hook=None):
    app = REGISTRY["msort"]
    session = Session(app, backend=backend, mode=mode, hook=hook)
    session.prepare(data=app.make_data(n, random.Random(seed)))
    session.run()
    return app, session


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n,seed", [(8, 2), (8, 3), (16, 2), (16, 3)])
def test_recycled_sites_never_alias_two_cells(n, seed, backend):
    guard = _ReadBudget(100 * n)
    app, session = _msort_session(n, seed, backend, hook=guard)
    engine = session.engine
    rng = random.Random(seed * 7919 + 1)
    for step in range(40):
        app.apply_change(session.input_handle, rng, step)
        # A bounded pass: a regression fails here instead of hanging.
        guard.reads = 0
        engine.propagate(budget=50 * n)
        expected = app.reference(app.handle_data(session.input_handle))
        assert _list(session.output, 4 * n) == expected, f"edit {step}"
        check_trace(engine, expect_empty_queue=True)
    assert engine.alloc_table


def _reads_per_change(n, backend, changes=16):
    app, session = _msort_session(n, 1, backend)
    engine = session.engine
    rng = random.Random(7919 + 1)
    before = engine.meter.reads_executed
    for step in range(changes):
        app.apply_change(session.input_handle, rng, step)
        engine.propagate()
    assert app.readback(session.output) == app.reference(
        app.handle_data(session.input_handle)
    )
    return (engine.meter.reads_executed - before) / changes


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiled_msort_propagation_is_polylog(backend):
    small = _reads_per_change(64, backend)
    large = _reads_per_change(1024, backend)
    # Linear growth would be 16x; pair-keyed merges without keyed
    # allocation grew about 12x over this range.
    assert large < 2.5 * small, (small, large)


@pytest.mark.parametrize("backend", BACKENDS)
def test_lazy_engines_allocate_unkeyed(backend):
    app, session = _msort_session(32, 1, backend, mode="lazy")
    rng = random.Random(7919 + 1)
    for step in range(6):
        app.apply_change(session.input_handle, rng, step)
        session.demand()
    assert session.engine.alloc_table == {}
    assert app.readback(session.output) == app.reference(
        app.handle_data(session.input_handle)
    )


def test_keyed_mod_recycle_continues_at_the_old_site():
    """An in-zone ``keyed_mod`` recycle discards the trace up to the old
    site and keeps the site's stamp: no second site for the key exists
    that a later splice could bring back."""
    engine = Engine()
    x = engine.make_input(1)

    def computation(dest):
        def on_x(v):
            # a read before the site, re-created ahead of it on re-execution
            engine.mod(lambda d: engine.read(x, lambda w: engine.write(d, w)))
            inner = engine.keyed_mod("cell", lambda d: engine.write(d, v > 0))
            engine.write(dest, inner)

        engine.read(x, on_x)

    out = engine.mod(computation)
    site = engine.alloc_table["cell"]
    stamp, inner = site.start, out.peek()
    live = engine.order.n_live
    engine.change(x, 5)
    engine.propagate()
    assert engine.alloc_table["cell"] is site
    assert site.start is stamp and stamp.live
    assert out.peek() is inner
    assert engine.order.n_live == live
    assert check_trace(engine, expect_empty_queue=True).sites == 1
