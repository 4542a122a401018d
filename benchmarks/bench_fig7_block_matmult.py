"""Figure 7: blocked matrix multiplication across sizes and block sizes.

Four series, as in the paper: complete-run time, propagation time,
propagation speedup, and memory (we report live trace size, the quantity
the paper's space bounds speak about) -- for a sweep of matrix sizes and
block sizes.

Shape claims (paper Section 4.6): all configurations share the O(n^3)
complete-run shape; larger blocks mean lower overhead (fewer modifiables)
but smaller speedups (changing one element recomputes a whole block);
smaller blocks use more memory.
"""

import pytest

from repro.apps import get_app
from repro.api import measure_app
from repro.bench import format_series

from _util import emit, once

SIZES = [16, 32]
BLOCKS = [4, 8, 16]


def test_fig7_block_matmult(benchmark, capsys):
    def run():
        results = {}
        for block in BLOCKS:
            app = get_app("block-mat-mult", block=block)
            # Speedups are against the tree-walking conventional run, so
            # the self-adjusting run walks the tree as well.
            results[block] = [
                measure_app(app, n, prop_samples=4, seed=2, backend="interp")
                for n in SIZES
                if n >= block
            ]
        return results

    results = once(benchmark, run)

    lines = ["Figure 7: blocked matrix multiply (n x n, m x m blocks)"]
    header = (
        f"{'n':>6} {'block':>6} {'run (s)':>10} {'prop (s)':>10} "
        f"{'speedup':>9} {'trace size':>11} {'mods':>8}"
    )
    lines += [header, "-" * len(header)]
    for block, rows in results.items():
        for r in rows:
            lines.append(
                f"{r.n:>6} {block:>6} {r.sa_run:>10.3f} {r.avg_prop:>10.4f} "
                f"{r.speedup:>9.1f} {r.trace_size:>11} {r.mods_created:>8}"
            )
    text = "\n".join(lines)

    # At the common size (n=32): smaller blocks -> more memory (trace),
    # bigger speedup; larger blocks -> fewer modifiables.
    at32 = {
        block: next(r for r in rows if r.n == 32)
        for block, rows in results.items()
        if any(r.n == 32 for r in rows)
    }
    assert at32[4].trace_size > at32[8].trace_size > at32[16].trace_size
    assert at32[4].mods_created > at32[16].mods_created
    assert at32[4].speedup > at32[16].speedup

    emit(capsys, "Figure 7", text)
