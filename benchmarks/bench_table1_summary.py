"""Table 1: summary of benchmark timings.

For every application the paper lists (map, filter, split, msort, qsort,
vec-reduce, vec-mult, mat-vec-mult, mat-add, transpose, mat-mult,
block-mat-mult) we report: conventional run, self-adjusting run, average
propagation time over random incremental changes, overhead
(self-adj/conv), and speedup (conv/propagation).

Shape claims checked against the paper: overhead is a modest constant;
speedups are large for all benchmarks; transpose's propagation is
essentially free; the blocked representation has lower overhead but lower
speedup than element-wise mat-mult.
"""

import pytest

from repro.apps import REGISTRY
from repro.api import measure_app
from repro.bench import format_table

from _util import emit, once

#: (application, scaled input size) -- the paper's sizes are 1e6/1e5/1e3;
#: ours are scaled for the interpreted substrate.
SIZES = [
    ("map", 3000),
    ("filter", 3000),
    ("split", 3000),
    ("msort", 400),
    ("qsort", 600),
    ("vec-reduce", 3000),
    ("vec-mult", 1500),
    ("mat-vec-mult", 40),
    ("mat-add", 32),
    ("transpose", 48),
    ("mat-mult", 12),
    ("block-mat-mult", 32),
]


def test_table1_summary(benchmark, capsys):
    def run():
        rows = []
        # Overheads are against the tree-walking conventional run, so the
        # self-adjusting run walks the tree as well.
        for name, n in SIZES:
            rows.append(
                measure_app(
                    REGISTRY[name], n, prop_samples=10, seed=0,
                    backend="interp",
                )
            )
        return rows

    rows = once(benchmark, run)
    text = format_table(rows, "Table 1: summary of benchmark timings")
    by_name = {r.name: r for r in rows}

    # Paper shape claims.
    assert all(r.speedup > 3 for r in rows), "propagation must beat re-running"
    assert by_name["transpose"].speedup > 1000  # paper: 4.2e7 (free updates)
    assert by_name["transpose"].overhead < 2.0  # paper: 1.0
    # Blocked representation: coarser tracking.  The deterministic face of
    # the paper's overhead/speedup trade-off is modifiables *per element*:
    # orders of magnitude fewer when blocked.  (The wall-clock speedup
    # comparison across different matrix sizes is too noisy to assert;
    # Figure 7 makes the speedup trade-off within one size.)
    block_row = by_name["block-mat-mult"]
    elem_row = by_name["mat-mult"]
    block_density = block_row.mods_created / (block_row.n ** 2)
    elem_density = elem_row.mods_created / (elem_row.n ** 2)
    assert block_density * 20 < elem_density

    emit(capsys, "Table 1", text)
