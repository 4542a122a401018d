"""Backend speedup: the stack machine vs the interpreter.

Both backends drive the *same* engine through the same primitive sequence
(the differential test suite asserts meter-exact equivalence), so any
timing difference is pure dispatch cost: AST ``isinstance`` ladders and
``Env`` dict chains on the interpreter side, vs flat instruction
sequences over slot-indexed frames under an explicit control stack
(``stack``).

Claims checked at the default sizes: the stack backend's initial msort
run is at least 1.4x faster at n=64 and its change propagation is never
slower than the interpreter's.  (Its other headline feature --
recursion-free deep workloads -- is measured by
``bench_deep_recursion.py``.)
``REPRO_BACKEND_SIZES`` overrides the sizes (e.g. "32 64" for a CI smoke
run); the claims are only asserted at the defaults.
``REPRO_BENCH_REPEAT`` overrides the number of timing attempts per
configuration; the headline table reports the per-size minimum and the
spread table below it reports min/median/stddev so noisy runs are visible
in the checked-in results.
"""

import os

from repro.apps import REGISTRY
from repro.api import measure_app
from repro.backends import BACKENDS
from repro.bench import format_series

from _util import bench_repeat, emit, format_spread_rows, once

_SIZES_ENV = os.environ.get("REPRO_BACKEND_SIZES")
SIZES = [int(s) for s in (_SIZES_ENV or "32 64 128").split()]
_SMOKE = _SIZES_ENV is not None

#: Timing attempts per (backend, n); the minimum is the headline number,
#: the standard defense against scheduler noise on shared machines.
ATTEMPTS = bench_repeat(5)


def _measure(backend):
    app = REGISTRY["msort"]
    tries = [
        [
            measure_app(app, n, prop_samples=8, seed=1, backend=backend)
            for n in SIZES
        ]
        for _ in range(ATTEMPTS)
    ]
    rows = tries[0]
    runs = [[t[i].sa_run for t in tries] for i in range(len(SIZES))]
    props = [[t[i].avg_prop for t in tries] for i in range(len(SIZES))]
    return rows, runs, props


def test_backend_speedup_msort(benchmark, capsys):
    def run():
        return {b: _measure(b) for b in BACKENDS}

    measured = once(benchmark, run)
    interp_rows, interp_runs, interp_props = measured["interp"]

    # Identical engine work: the speedup is dispatch-only, by construction.
    for backend in BACKENDS:
        for i, c in zip(interp_rows, measured[backend][0]):
            assert i.mods_created == c.mods_created
            assert i.trace_size == c.trace_size

    series = {"interp run (s)": [min(s) for s in interp_runs]}
    for backend in BACKENDS:
        if backend == "interp":
            continue
        runs, props = measured[backend][1], measured[backend][2]
        series[f"{backend} run (s)"] = [min(s) for s in runs]
        series[f"{backend} run speedup"] = [
            min(i) / min(c) for i, c in zip(interp_runs, runs)
        ]
    series["interp prop (s)"] = [min(s) for s in interp_props]
    for backend in BACKENDS:
        if backend == "interp":
            continue
        props = measured[backend][2]
        series[f"{backend} prop (s)"] = [min(s) for s in props]
        series[f"{backend} prop speedup"] = [
            min(i) / min(c) for i, c in zip(interp_props, props)
        ]
    text = format_series(
        "Backend speedup: msort, interp vs stack", SIZES, series
    )

    spread_rows = {}
    for i, n in enumerate(SIZES):
        for backend in BACKENDS:
            spread_rows[f"{backend} prop n={n}"] = measured[backend][2][i]
    text += "\n\n" + format_spread_rows(
        f"Timing spread over {ATTEMPTS} attempt(s)", spread_rows
    )

    if not _SMOKE:
        at64 = SIZES.index(64)
        assert series["stack run speedup"][at64] >= 1.4, (
            "stack backend lost its initial-run edge at n=64: "
            f"{series['stack run speedup'][at64]:.2f}x"
        )
        for backend in BACKENDS:
            if backend == "interp":
                continue
            speedups = series[f"{backend} prop speedup"]
            assert all(s >= 1.0 for s in speedups), (
                f"{backend} propagation slower than interp: {speedups}"
            )

    emit(capsys, "Backend speedup", text)
