"""Regression pins for the optimizer's static primitive counts and the
engine's dynamic meter counts.

Timing-based benchmarks catch optimizer regressions slowly and noisily;
the *static* mod/read/write/memo counts of the translated code catch them
structurally.  These tests pin the exact counts for the msort and mat-mult
examples before and after the Section 3.4 rewrite rules.  If a compiler
change shifts these numbers, that is not necessarily a bug -- but it must
be noticed, understood, and the pins updated deliberately.

The *dynamic* meter pins at the bottom play the same role for the engine:
one fixed workload (seeded input, seeded edits), exact expected counter
values, asserted identically on both backends.  Any engine "optimization"
that changes how much work propagation performs -- rather than how fast
each unit of work runs -- trips these pins.
"""

import random

import pytest

from repro.apps import REGISTRY
from repro.sac.engine import Engine


def _counts(name, **kwargs):
    return REGISTRY[name].compiled(**kwargs).primitive_counts()


def test_msort_optimized_counts():
    assert _counts("msort") == {"mod": 7, "read": 10, "write": 13, "memo": 13}


def test_msort_unoptimized_counts():
    assert _counts("msort", optimize_flag=False) == {
        "mod": 15,
        "read": 18,
        "write": 21,
        "memo": 13,
    }


def test_msort_rules_remove_same_number_of_each():
    """Each Section 3.4 rule eliminates one mod, one read, and one write;
    on msort the rules fire 8 times."""
    opt = _counts("msort")
    unopt = _counts("msort", optimize_flag=False)
    removed = {k: unopt[k] - opt[k] for k in ("mod", "read", "write")}
    assert removed == {"mod": 8, "read": 8, "write": 8}
    assert unopt["memo"] == opt["memo"]  # the rules never remove memo points


def test_msort_no_memoize_counts():
    assert _counts("msort", memoize=False) == {
        "mod": 7,
        "read": 10,
        "write": 13,
        "memo": 0,
    }


def test_matmult_counts_optimized_and_not():
    """mat-mult is built from vector primitives the rewrite rules do not
    fire on: optimized and unoptimized counts are identical (and pinned)."""
    expected = {"mod": 5, "read": 8, "write": 5, "memo": 2}
    assert _counts("mat-mult") == expected
    assert _counts("mat-mult", optimize_flag=False) == expected


def test_matmult_no_memoize_counts():
    assert _counts("mat-mult", memoize=False) == {
        "mod": 5,
        "read": 8,
        "write": 5,
        "memo": 0,
    }


# ----------------------------------------------------------------------
# Dynamic meter pins: exact engine work for a fixed workload, per backend


#: (app, n, seed, changes) -> exact meter counters after the workload:
#: (mods_created, reads_executed, writes, changed_writes, memo_hits,
#:  memo_misses, edges_reexecuted, queue_drained).
METER_PINS = {
    ("msort", 32, 31, 4): (1132, 1605, 1201, 1151, 53, 752, 87, 93),
    ("filter", 32, 31, 4): (96, 73, 66, 64, 8, 68, 5, 5),
}


@pytest.mark.parametrize("workload", sorted(METER_PINS))
@pytest.mark.parametrize("backend", ["interp", "stack"])
def test_meter_counts_pinned(workload, backend):
    name, n, seed, changes = workload
    app = REGISTRY[name]
    rng = random.Random(seed)
    data = app.make_data(n, rng)
    engine = Engine()
    instance = app.instance(engine, backend=backend)
    input_value, handle = app.make_sa_input(engine, data)
    instance.apply(input_value)
    for step in range(changes):
        app.apply_change(handle, rng, step)
        engine.propagate()
    m = engine.meter
    got = (
        m.mods_created,
        m.reads_executed,
        m.writes,
        m.changed_writes,
        m.memo_hits,
        m.memo_misses,
        m.edges_reexecuted,
        m.queue_drained,
    )
    assert got == METER_PINS[workload], (
        f"{name} ({backend}): engine meter diverged from the pinned "
        f"workload counts -- propagation is doing different work"
    )
