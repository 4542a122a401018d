"""Demand-driven propagation vs eager propagation: k edits, one read.

The laziness claim: when a host makes many edits but only observes a
small part of the output, eager propagation pays for the whole dirty
queue after every edit, while lazy mode only marks suspicion at edit
time and, at the single read, re-executes just the dirty cone feeding
the observed cell.  The scenario is msort with EDITS random edits and
one read of the output's head cell:

* eager regime: EDITS x (edit + full propagate), then peek the head --
  the eager discipline must propagate after every edit to keep the
  output consistent;
* lazy regime: EDITS edits (suspect marking included in the timed
  section), then one ``Session.get(head)`` demand.

Most edits land in cells the head's cone never touches, so the lazy
side must beat the eager side by at least 10x at n=256.

Two further regimes measure the relevance filter (the memoized DFS
over reader edges that decides, per queue entry, whether dirty work
feeds a demanded cell) on a large standing dirty queue:

* repeated-demand: EDITS staged edits, then REPEATS rounds of one edit
  plus one head demand.  Reported: wall time, the reader-graph nodes
  the DFS explored (``feeds_dfs_visits``), the relevance verdicts it
  produced (queue pops: drained + deferred), visits per verdict, and
  the re-executions the demands paid for.
* many-targets: the same standing queue, then REPEATS rounds of one
  edit plus one multi-target demand of 8 output-spine cells held from
  the initial run (the server-pool pattern: clients keep references and
  re-read them in batches).  Reported: wall time and DFS visits.

``REPRO_LAZY_SIZES`` overrides the input sizes (e.g. "64" for a CI
smoke run); the claims are only asserted at the defaults.
"""

import os
import random
import time

from repro.api import Session
from repro.apps import REGISTRY
from repro.bench import format_series
from repro.sac.modifiable import Modifiable

from _util import emit, format_spread_rows, once

_SIZES_ENV = os.environ.get("REPRO_LAZY_SIZES")
SIZES = [int(s) for s in (_SIZES_ENV or "64 128 256").split()]
_SMOKE = _SIZES_ENV is not None

EDITS = 32
REPEATS = 8
ATTEMPTS = 5


def _fresh(n, mode, seed=3):
    app = REGISTRY["msort"]
    rng = random.Random(seed)
    session = Session(app, mode=mode)
    output = session.run(data=app.make_data(n, rng))
    return app, rng, session, output


def _eager_time(n):
    """Seconds for EDITS edit+propagate rounds plus the head read."""
    app, rng, session, output = _fresh(n, "eager")
    started = time.perf_counter()
    for step in range(EDITS):
        app.apply_change(session.input_handle, rng, step)
        session.propagate()
    head = output.peek()
    elapsed = time.perf_counter() - started
    assert head is not None
    return elapsed


def _lazy_time(n):
    """Seconds for EDITS edits (suspect marking and all) plus one
    demand of the head cell; also returns how much work the demand did
    and how much it deferred."""
    app, rng, session, output = _fresh(n, "lazy")
    meter = session.engine.meter
    started = time.perf_counter()
    for step in range(EDITS):
        app.apply_change(session.input_handle, rng, step)
    head = session.get(output)
    elapsed = time.perf_counter() - started
    assert head is not None
    return elapsed, meter.edges_reexecuted, meter.demand_deferred


def test_lazy_demand_msort(benchmark, capsys):
    def run():
        eager = [
            min(_eager_time(n) for _ in range(ATTEMPTS)) for n in SIZES
        ]
        lazy, reexec, deferred = [], [], []
        for n in SIZES:
            samples = [_lazy_time(n) for _ in range(ATTEMPTS)]
            lazy.append(min(s[0] for s in samples))
            reexec.append(samples[0][1])
            deferred.append(samples[0][2])
        return eager, lazy, reexec, deferred

    eager, lazy, reexec, deferred = once(benchmark, run)

    speedups = [e / l for e, l in zip(eager, lazy)]
    series = {
        f"{EDITS} eager edit+prop rounds (s)": eager,
        f"{EDITS} edits + 1 head demand (s)": lazy,
        "lazy speedup": speedups,
        "reads re-executed by demand": reexec,
        "queue entries deferred": deferred,
    }
    text = format_series(
        f"Lazy demand: msort, {EDITS} edits then one head read, "
        f"eager vs demand-driven",
        SIZES,
        series,
    )

    # Emit first, so the results file shows what was measured even when
    # the gate below fails.
    emit(capsys, "Lazy demand", text)

    if not _SMOKE:
        at256 = SIZES.index(256)
        assert speedups[at256] >= 10.0, (
            f"lazy demand lost its 10x edge at n=256: "
            f"{speedups[at256]:.2f}x"
        )


# ----------------------------------------------------------------------
# Relevance-filter regimes


def _repeated_demand(n):
    """EDITS staged edits, then REPEATS x (one edit + one head demand).

    Returns the wall seconds of the demand rounds and their DFS visits,
    relevance verdicts and re-executions."""
    app, rng, session, output = _fresh(n, "lazy")
    for step in range(EDITS):
        app.apply_change(session.input_handle, rng, step)
    meter = session.engine.meter
    before = meter.snapshot()
    started = time.perf_counter()
    for k in range(REPEATS):
        app.apply_change(session.input_handle, rng, EDITS + k)
        head = session.get(output)
        assert head is not None
    elapsed = time.perf_counter() - started
    after = meter.snapshot()
    visits = after["feeds_dfs_visits"] - before["feeds_dfs_visits"]
    verdicts = (
        after["queue_drained"] - before["queue_drained"]
        + after["demand_deferred"] - before["demand_deferred"]
    )
    reexec = after["edges_reexecuted"] - before["edges_reexecuted"]
    return elapsed, visits, verdicts, reexec


def _spine_cells(output, count):
    """``count`` spaced modifiables along a consistent cons-list spine."""
    cells, node = [], output
    while isinstance(node, Modifiable):
        cells.append(node)
        value = node.peek()
        if value.arg is None:
            break
        node = value.arg[1]
    stride = max(1, len(cells) // count)
    return cells[:: stride][:count]


def _many_targets(n):
    """EDITS staged edits, then REPEATS x (one edit + one batched demand
    of 8 output-spine cells held since the initial run).  Returns the
    wall seconds and the DFS visits of the demand rounds."""
    app, rng, session, output = _fresh(n, "lazy")
    targets = _spine_cells(output, 8)
    for step in range(EDITS):
        app.apply_change(session.input_handle, rng, step)
    engine = session.engine
    before = engine.meter.feeds_dfs_visits
    started = time.perf_counter()
    for k in range(REPEATS):
        app.apply_change(session.input_handle, rng, EDITS + k)
        values = engine.demand(targets)
        assert len(values) == len(targets)
    elapsed = time.perf_counter() - started
    return elapsed, engine.meter.feeds_dfs_visits - before


def test_repeated_demand(benchmark, capsys):
    def run():
        rows = {}
        for n in SIZES:
            samples = [_repeated_demand(n) for _ in range(ATTEMPTS)]
            # Counters are deterministic; wall time keeps every sample.
            rows[n] = ([s[0] for s in samples],) + samples[0][1:]
        return rows

    rows = once(benchmark, run)

    series = {
        "wall (s)": [min(rows[n][0]) for n in SIZES],
        "dfs filter visits": [rows[n][1] for n in SIZES],
        "relevance verdicts": [rows[n][2] for n in SIZES],
        "dfs visits/verdict": [rows[n][1] / max(rows[n][2], 1) for n in SIZES],
        "reads re-executed": [rows[n][3] for n in SIZES],
    }
    text = format_series(
        f"Repeated demand: msort, {EDITS} staged edits then {REPEATS} x "
        f"(edit + head demand), DFS relevance filter",
        SIZES,
        series,
    )
    text += "\n\n" + format_spread_rows(
        f"wall-time spread ({ATTEMPTS} attempts)",
        {f"n={n}": rows[n][0] for n in SIZES},
    )
    emit(capsys, "Lazy demand repeated", text)


def test_many_targets_demand(benchmark, capsys):
    def run():
        rows = {}
        for n in SIZES:
            samples = [_many_targets(n) for _ in range(ATTEMPTS)]
            rows[n] = ([s[0] for s in samples], samples[0][1])
        return rows

    rows = once(benchmark, run)
    series = {
        "wall (s)": [min(rows[n][0]) for n in SIZES],
        "dfs filter visits": [rows[n][1] for n in SIZES],
    }
    text = format_series(
        f"Many-targets demand: msort, {EDITS} staged edits then "
        f"{REPEATS} x (edit + batched demand of 8 spine cells), DFS "
        f"relevance filter",
        SIZES,
        series,
    )
    text += "\n\n" + format_spread_rows(
        f"wall-time spread ({ATTEMPTS} attempts)",
        {f"n={n}": rows[n][0] for n in SIZES},
    )
    emit(capsys, "Lazy demand many targets", text)
