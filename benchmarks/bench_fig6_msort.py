"""Figure 6: msort across input sizes.

Three series, as in the paper: complete-run time for the conventional and
self-adjusting versions (left plot), change-propagation time (middle), and
speedup of propagation over the conventional run (right).

Shape claims: both complete runs grow like O(n log n) with a constant
overhead factor between them; propagation grows much more slowly than the
complete run; speedup grows with n.  (EXPERIMENTS.md records that our
propagation growth is ~linear-with-small-constant rather than the paper's
O(log n), due to merge trace stability -- the overhead-constant and
growing-speedup claims still hold.)
"""

import os

import pytest

from repro.apps import REGISTRY
from repro.api import measure_app
from repro.bench import format_phases, format_series

from _util import emit, once

# REPRO_MSORT_SIZES overrides the sizes (e.g. "32 64" for a CI smoke run);
# the paper-shape assertions only hold at the default sizes.
_SIZES_ENV = os.environ.get("REPRO_MSORT_SIZES")
SIZES = [int(s) for s in (_SIZES_ENV or "100 200 400 800").split()]
_SMOKE = _SIZES_ENV is not None


def test_fig6_msort_scaling(benchmark, capsys):
    app = REGISTRY["msort"]

    def run():
        # The paper's ratios set the self-adjusting run against the
        # tree-walking conventional run, so it walks the tree as well.
        rows = [
            measure_app(
                app, n, prop_samples=8, seed=1, repeats=3, backend="interp"
            )
            for n in SIZES
        ]
        stack = [
            measure_app(
                app, n, prop_samples=8, seed=1, skip_conventional=True,
                backend="stack",
            )
            for n in SIZES
        ]
        return rows, stack

    rows, stack = once(benchmark, run)

    series = {
        "conv run (s)": [r.conv_run for r in rows],
        "self-adj run (s)": [r.sa_run for r in rows],
        "propagation (s)": [r.avg_prop for r in rows],
        "speedup": [r.speedup for r in rows],
        "overhead": [r.overhead for r in rows],
        # The stack-machine backend: same engine work, flat dispatch
        # (see benchmarks/bench_backend_speedup.py and README "Backends").
        "stack run (s)": [r.sa_run for r in stack],
        "stack prop (s)": [r.avg_prop for r in stack],
        "stack ovhd": [
            c.sa_run / r.conv_run for r, c in zip(rows, stack)
        ],
    }
    text = format_series("Figure 6: msort", SIZES, series)
    text += "\n\n" + format_phases(rows, "Per-phase engine work")

    if not _SMOKE:
        overheads = series["overhead"]
        # Overhead is a constant independent of n (paper Section 4.5).
        assert max(overheads) < 4 * min(overheads)
        # Speedup grows with input size.
        assert series["speedup"][-1] > series["speedup"][0]
        # Propagation is always much cheaper than a conventional rerun.
        assert all(r.avg_prop < r.conv_run / 3 for r in rows)
        # Flattening pays: the stack backend's initial-run overhead over
        # the conventional run is below the interpreter's.  (Aggregated
        # across sizes; per-size runs are single-shot and noisy --
        # bench_backend_speedup.py asserts the per-size >=1.4x claim on
        # noise-resistant minima.)
        assert sum(c.sa_run for c in stack) < sum(r.sa_run for r in rows)

    emit(capsys, "Figure 6", text)
