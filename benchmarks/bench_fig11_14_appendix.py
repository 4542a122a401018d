"""Figures 11-14 (appendix): scaling plots for split, qsort, vec-mult,
and mat-add.

For each benchmark: complete-run time (conventional and self-adjusting),
change-propagation time, and speedup across a sweep of input sizes --
the same three series as Figure 6, for four more applications.

Shape claims (paper Section 4.5): "for all our benchmarks, the overheads
of self-adjusting versions are constant and do not depend on the input
size, whereas speedups ... increase with the input size."
"""

import pytest

from repro.apps import REGISTRY
from repro.api import measure_app
from repro.bench import format_series

from _util import emit, once

SWEEPS = {
    "split": [500, 1000, 2000, 4000],
    "qsort": [100, 200, 400, 800],
    "vec-mult": [500, 1000, 2000, 4000],
    "mat-add": [8, 16, 32],
}
FIGURES = {"split": 11, "qsort": 12, "vec-mult": 13, "mat-add": 14}


@pytest.mark.parametrize("name", list(SWEEPS))
def test_appendix_scaling(benchmark, capsys, name):
    app = REGISTRY[name]
    sizes = SWEEPS[name]

    samples = 20 if name == "qsort" else 8

    # Overheads are against the tree-walking conventional run, so the
    # self-adjusting run walks the tree as well.
    def run():
        return [
            measure_app(
                app, n, prop_samples=samples, seed=5, repeats=3,
                backend="interp",
            )
            for n in sizes
        ]

    rows = once(benchmark, run)
    series = {
        "conv run (s)": [r.conv_run for r in rows],
        "self-adj run (s)": [r.sa_run for r in rows],
        "propagation (s)": [r.avg_prop for r in rows],
        "speedup": [r.speedup for r in rows],
        "overhead": [r.overhead for r in rows],
    }
    text = format_series(
        f"Figure {FIGURES[name]}: {name}", sizes, series, fmt=lambda v: f"{v:.4g}"
    )

    overheads = series["overhead"]
    # Wide bound: sub-10ms wall times jitter on a loaded machine.
    assert max(overheads) < 4.5 * min(overheads), "overhead must stay ~constant"
    # Propagation grows strictly slower than recomputation (with slack for
    # timer noise), so the speedup trend is upward across the sweep.
    conv_growth = series["conv run (s)"][-1] / series["conv run (s)"][0]
    prop_growth = series["propagation (s)"][-1] / max(series["propagation (s)"][0], 1e-12)
    assert prop_growth < 1.2 * conv_growth, "propagation must scale better"
    assert min(series["speedup"]) > 3

    emit(capsys, f"Figure {FIGURES[name]}", text)
