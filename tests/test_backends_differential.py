"""Backend equivalence: interpreter vs closure-compilation vs stack machine.

The compiled backends (:mod:`repro.compile.closures` and
:mod:`repro.compile.stackmachine`) promise more than equal outputs: they
call the engine's ``mod``/``read``/``write``/``memo``/``impwrite``
primitives in *exactly* the same sequence as the tree-walking interpreter,
with equal memo keys and equal written values.  (The stack machine drives
the split ``*_begin``/``*_end`` halves of those primitives, which must
interleave to the identical protocol.)  If that holds, the meter counters
-- mods created, reads executed, writes, cutoff hits, memo hits and
misses, edges re-executed, live trace sizes -- must be *identical* at
every point of every run.

These tests assert exactly that: for every registered application, across
the optimize x memoize grid, all registered backends produce identical
outputs AND identical meter snapshots after the initial run and after
every one of a series of seeded incremental changes.
"""

import random

import pytest

from repro.api import Session
from repro.apps import REGISTRY
from repro.backends import BACKENDS
from repro.obs.events import EventLog
from repro.sac.engine import Engine

#: Per-app input size and change count, kept small: the grid below runs
#: every case once per backend.  block-mat-mult needs n to be a multiple
#: of its block size (8); mat-mult is O(n^3).
APP_SIZES = {
    "map": (16, 6),
    "filter": (16, 6),
    "reverse": (16, 6),
    "split": (16, 6),
    "qsort": (16, 6),
    "msort": (16, 6),
    "vec-reduce": (16, 6),
    "vec-mult": (16, 6),
    "mat-vec-mult": (6, 4),
    "mat-add": (6, 4),
    "transpose": (6, 4),
    "mat-mult": (4, 4),
    "block-mat-mult": (8, 3),
    "raytracer": (4, 2),
}

GRID = [
    (True, True),
    (True, False),
    (False, True),
    (False, False),
]


def run_trail(app, n, changes, backend, *, memoize=True, optimize_flag=True,
              coarse=False, seed=7):
    """One full run: initial output/meter plus one snapshot per change."""
    rng = random.Random(seed)
    data = app.make_data(n, rng)
    engine = Engine()
    instance = app.instance(
        engine,
        backend=backend,
        memoize=memoize,
        optimize_flag=optimize_flag,
        coarse=coarse,
    )
    input_value, handle = app.make_sa_input(engine, data)
    output = instance.apply(input_value)
    trail = [(app.readback(output), engine.meter.snapshot())]
    for step in range(changes):
        app.apply_change(handle, rng, step)
        engine.propagate()
        trail.append((app.readback(output), engine.meter.snapshot()))
    return trail


def assert_backends_agree(app, n, changes, **kwargs):
    interp = run_trail(app, n, changes, "interp", **kwargs)
    for backend in BACKENDS:
        if backend == "interp":
            continue
        other = run_trail(app, n, changes, backend, **kwargs)
        for step, ((out_i, meter_i), (out_c, meter_c)) in enumerate(
            zip(interp, other)
        ):
            # Outputs must be identical -- all backends perform the same
            # arithmetic in the same order, so even floats match
            # bit-for-bit.
            assert out_i == out_c, (
                f"{app.name}: outputs diverge at step {step}\n"
                f"  interp: {out_i!r}\n  {backend}: {out_c!r}"
            )
            assert meter_i == meter_c, (
                f"{app.name}: meters diverge at step {step}\n"
                f"  interp: {meter_i!r}\n  {backend}: {meter_c!r}"
            )


@pytest.mark.parametrize("name", sorted(APP_SIZES))
@pytest.mark.parametrize("memoize,optimize_flag", GRID)
def test_backends_agree(name, memoize, optimize_flag):
    n, changes = APP_SIZES[name]
    assert_backends_agree(
        REGISTRY[name], n, changes,
        memoize=memoize, optimize_flag=optimize_flag,
    )


def test_registry_fully_covered():
    """New apps must join the differential grid."""
    assert set(APP_SIZES) == set(REGISTRY)


@pytest.mark.parametrize("name", ["map", "filter"])
def test_backends_agree_coarse(name):
    """The CPS-emulation mode's extra indirections also stage identically."""
    assert_backends_agree(
        REGISTRY[name], 12, 5,
        memoize=True, optimize_flag=False, coarse=True,
    )


def _event_stream(name, backend, mode):
    """``(kind, info)`` of every hook event through one run, one removal
    and the settling propagation or demand.  ``key`` (a memo key's repr,
    which names backend closures) is dropped, and under lazy mode so are
    ``dirty-mark`` events, whose order follows set iteration."""
    app = REGISTRY[name]
    log = EventLog(maxlen=None, values=False)
    session = Session(app, backend=backend, mode=mode, hook=log)
    session.run(data=app.make_data(16, random.Random(3)))
    session.input_handle.remove(2)
    if mode == "lazy":
        session.demand()
    else:
        session.propagate()
    return [
        (ev.kind, {k: v for k, v in ev.info.items() if k != "key"})
        for ev in log.events
        if not (mode == "lazy" and ev.kind == "dirty-mark")
    ]


@pytest.mark.parametrize("mode", ["eager", "lazy"])
@pytest.mark.parametrize("name", ["msort", "qsort", "filter", "map"])
def test_backends_emit_identical_hook_events(name, mode):
    """Meters can agree while the primitives run in another order; the
    hook event stream pins the order (and every stamp label) too."""
    streams = {b: _event_stream(name, b, mode) for b in BACKENDS}
    interp = streams.pop("interp")
    assert len(interp) > 100
    for backend, stream in streams.items():
        for i, (a, b) in enumerate(zip(interp, stream)):
            assert a == b, f"{name}/{mode}: event {i} differs on {backend}"
        assert len(interp) == len(stream)
