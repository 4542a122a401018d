"""Ablation: merge trace stability (DESIGN.md Section 6).

Our msort's merge memoizes on suffix *pairs*; a change that moves a merge
exhaustion boundary re-keys the output suffix's identity and the
re-keying propagates upward, making propagation grow ~linearly in n.  The
runtime's unsafe interface (``Engine.keyed_mod`` -- keyed destination
allocation, the analogue of AFL's unsafe interface that the paper's
Section 4.9 credits for AFL's edge) stabilizes output-cell identities and
restores polylogarithmic propagation.

This ablation quantifies the difference: propagation work per change for
the pair-keyed and identity-keyed hand-written msorts across input sizes,
next to the compiled msort, whose memoized calls allocate their results
under keys the translator derives from the level types (DESIGN.md
Section 6).
"""

import random

import pytest

from repro.apps import REGISTRY
from repro.bench.handwritten import hand_msort, hand_msort_keyed
from repro.sac.engine import Engine
from repro.interp.marshal import ModListInput

from _util import emit, once

SIZES = [64, 256, 1024, 4096]


def _compiled_msort(engine: Engine, head) -> None:
    REGISTRY["msort"].instance(engine, backend="stack").apply(head)


def _work_per_change(make_sort, n: int) -> float:
    app = REGISTRY["msort"]
    rng = random.Random(5)
    data = app.make_data(n, rng)
    engine = Engine()
    handle = ModListInput(engine, data)
    make_sort(engine, handle.head)
    before = engine.meter.reads_executed + engine.meter.edges_reexecuted
    for step in range(8):
        app.apply_change(handle, rng, step)
        engine.propagate()
    return (engine.meter.reads_executed + engine.meter.edges_reexecuted - before) / 8


def test_merge_stability_ablation(benchmark, capsys):
    def run():
        return {
            "pair-keyed merge": [_work_per_change(hand_msort, n) for n in SIZES],
            "identity-keyed merge (keyed_mod)": [
                _work_per_change(hand_msort_keyed, n) for n in SIZES
            ],
            "compiled": [_work_per_change(_compiled_msort, n) for n in SIZES],
        }

    series = once(benchmark, run)

    header = f"{'n':>8} {'pair-keyed':>12} {'identity-keyed':>15} {'compiled':>10}"
    lines = [
        "Merge-stability ablation: propagation work (reads) per change",
        header,
        "-" * len(header),
    ]
    for i, n in enumerate(SIZES):
        lines.append(
            f"{n:>8} {series['pair-keyed merge'][i]:>12.1f} "
            f"{series['identity-keyed merge (keyed_mod)'][i]:>15.1f} "
            f"{series['compiled'][i]:>10.1f}"
        )
    text = "\n".join(lines)

    pair = series["pair-keyed merge"]
    keyed = series["identity-keyed merge (keyed_mod)"]
    compiled = series["compiled"]
    # Pair-keyed propagation grows ~linearly; keyed stays ~flat, and so
    # does the compiled msort with its type-directed keys.
    assert pair[-1] / pair[0] > 10
    assert keyed[-1] / keyed[0] < 4
    assert keyed[-1] < pair[-1] / 10
    assert compiled[-1] / compiled[0] < 4

    emit(capsys, "Ablation merge stability", text)
