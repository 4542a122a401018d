"""Section 4.8: effect of the compiler optimizations.

The paper measures each benchmark compiled with and without the Section
3.4 rewrite rules and reports improvements of up to 60% in run time and in
propagation time/space.  We report, per benchmark: static primitive counts
(mods/reads/writes in the translated code) and the dynamic run/propagation
ratio Unopt/Optimized.
"""

import pytest

from repro.apps import REGISTRY
from repro.api import measure_app
from repro.core.optimize import count_primitives

from _util import emit, once

SIZES = {"map": 1500, "filter": 1500, "qsort": 300, "msort": 200}


def test_sec48_optimizations(benchmark, capsys):
    def run():
        rows = []
        for name, n in SIZES.items():
            app = REGISTRY[name]
            opt_counts = count_primitives(app.compiled().sxml_translated)
            unopt_counts = count_primitives(
                app.compiled(optimize_flag=False).sxml_translated
            )
            # The tree-walking backend, as in the recorded ratios.
            opt = measure_app(app, n, prop_samples=8, seed=6, backend="interp")
            unopt = measure_app(
                app, n, prop_samples=8, seed=6, optimize_flag=False,
                backend="interp",
            )
            rows.append((name, opt_counts, unopt_counts, opt, unopt))
        return rows

    rows = once(benchmark, run)

    header = (
        f"{'bench':<8} {'static mods':>12} {'static reads':>13} "
        f"{'run ratio':>10} {'prop ratio':>11} {'trace ratio':>12}"
    )
    lines = [
        "Section 4.8: Unopt/Optimized ratios (higher = optimizer helps more)",
        header,
        "-" * len(header),
    ]
    for name, oc, uc, opt, unopt in rows:
        lines.append(
            f"{name:<8} {uc['mod']:>5}/{oc['mod']:<6} {uc['read']:>6}/{oc['read']:<6} "
            f"{unopt.sa_run / opt.sa_run:>10.2f} "
            f"{unopt.avg_prop / opt.avg_prop:>11.2f} "
            f"{unopt.trace_size / opt.trace_size:>12.2f}"
        )
    text = "\n".join(lines)

    # The rules remove redundant primitives on every list benchmark, and
    # buy measurable run time and space on average.
    for _name, oc, uc, _o, _u in rows:
        assert uc["mod"] > oc["mod"]
        assert uc["read"] > oc["read"]
    # Deterministic space effect: the rules shrink the live trace.
    avg_trace_ratio = sum(
        u.trace_size / o.trace_size for _n, _oc, _uc, o, u in rows
    ) / len(rows)
    assert avg_trace_ratio > 1.05

    emit(capsys, "Section 4.8 optimizations", text)
