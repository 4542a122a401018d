"""Batched change propagation vs sequential propagation.

The batching claim: coalescing k input edits into one propagation pass
means every affected read re-executes at most once, while k sequential
edit/propagate rounds re-run the shared upper spine of the computation
(merge layers, reduction trees) up to k times.  On msort the edits land
in distinct leaves but share the root merge path, so a 32-edit batch
must beat 32 sequential propagations by at least 2x.

Also measured: the space side of the tentpole.  500 edit/propagate
rounds (batched, 4 edits each) must leave ``trace_size`` within 1.5x of
a fresh run on the final data -- records leave the trace and the memo
table as they die, which keeps the trace from creeping.

``REPRO_BATCH_SIZES`` overrides the input sizes (e.g. "64" for a CI
smoke run); the claims are only asserted at the defaults.
"""

import os
import random

from repro.api import Session
from repro.apps import REGISTRY
from repro.bench import format_series

from _util import emit, once

_SIZES_ENV = os.environ.get("REPRO_BATCH_SIZES")
SIZES = [int(s) for s in (_SIZES_ENV or "64 128 256").split()]
_SMOKE = _SIZES_ENV is not None

EDITS = 32
ATTEMPTS = 5
ROUNDS = 125  # x4 edits per round = 500 edits for the space check


def _run_and_edit(n, seed=3):
    """Fresh msort session with EDITS staged-but-unpropagated changes
    queued up by a deterministic editor closure."""
    app = REGISTRY["msort"]
    rng = random.Random(seed)
    session = Session(app)
    session.run(data=app.make_data(n, rng))
    return app, rng, session


def _sequential_time(n):
    """Total seconds over EDITS edit/propagate rounds (edits untimed)."""
    app, rng, session = _run_and_edit(n)
    total = 0.0
    for step in range(EDITS):
        app.apply_change(session.input_handle, rng, step)
        total += session.propagate().seconds
    return total


def _batched_time(n):
    """Seconds for the single pass propagating all EDITS staged edits.

    Edits stage without propagating (the uniform edit convention), so a
    batch's cost is exactly one propagate over the coalesced queue.
    """
    app, rng, session = _run_and_edit(n)
    for step in range(EDITS):
        app.apply_change(session.input_handle, rng, step)
    return session.propagate().seconds


def _space_growth():
    """(trace after 500 batched edits) / (fresh-run trace on final data)."""
    app = REGISTRY["map"]
    rng = random.Random(11)
    session = Session(app)
    session.run(data=app.make_data(128, random.Random(11)))
    step = 0
    for _round in range(ROUNDS):
        with session.batch():
            for _ in range(4):
                app.apply_change(session.input_handle, rng, step)
                step += 1
    fresh = Session(app)
    fresh.run(data=app.handle_data(session.input_handle))
    return session.trace_size() / fresh.trace_size(), session.trace_size()


def test_batch_propagate_msort(benchmark, capsys):
    def run():
        sequential = [
            min(_sequential_time(n) for _ in range(ATTEMPTS)) for n in SIZES
        ]
        batched = [
            min(_batched_time(n) for _ in range(ATTEMPTS)) for n in SIZES
        ]
        growth, trace = _space_growth()
        return sequential, batched, growth, trace

    sequential, batched, growth, trace = once(benchmark, run)

    speedups = [s / b for s, b in zip(sequential, batched)]
    series = {
        f"{EDITS} sequential props (s)": sequential,
        f"one {EDITS}-edit batch (s)": batched,
        "batch speedup": speedups,
    }
    text = format_series(
        f"Batched propagation: msort, {EDITS} edits, batch vs sequential",
        SIZES,
        series,
    )
    text += (
        f"\ntrace growth after 500 batched edits (map, n=128): "
        f"{growth:.3f}x fresh run ({trace} records)"
    )

    if not _SMOKE:
        at256 = SIZES.index(256)
        assert speedups[at256] >= 2.0, (
            f"batched propagation lost its 2x edge at n=256: "
            f"{speedups[at256]:.2f}x"
        )
        assert growth <= 1.5, (
            f"trace grew to {growth:.2f}x a fresh run over 500 batched edits"
        )

    emit(capsys, "Batch propagate", text)
