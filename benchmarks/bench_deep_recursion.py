"""Depth sweep: the stack backend vs the interpreter on deep cons chains.

The interpreter backend recurses in the host, nesting several Python
frames per list cell, so chain depth is capped by the process recursion
limit -- ``Engine`` raises it to 600k, which buys roughly 10^5 frames of
headroom and still overflows on a 10^5-element chain.  The stack backend runs the
same program under an explicit control stack: here it is measured with
the recursion limit *clamped to CPython's default of 1000* to demonstrate
that its depth is genuinely bounded, not just deferred.

The sweep maps a cons chain of n ∈ {10^3, 10^4, 10^5} elements, then
edits the head element (the deep-re-execution worst case) and propagates.
Checked claims at the default sizes: the stack backend completes every
size at the default recursion limit, and the interpreter overflows at the
largest -- the workload class that motivates the backend.

``REPRO_DEEP_SWEEP_SIZES`` overrides the sizes (e.g. "1000" for a CI
smoke run); the claims are only asserted at the defaults.
``REPRO_BENCH_REPEAT`` overrides the timing attempts per configuration.
"""

import os
import random
import sys
import time

from repro.apps import REGISTRY
from repro.sac.engine import Engine

from _util import bench_repeat, emit, format_spread_rows, once

_SIZES_ENV = os.environ.get("REPRO_DEEP_SWEEP_SIZES")
SIZES = [int(s) for s in (_SIZES_ENV or "1000 10000 100000").split()]
_SMOKE = _SIZES_ENV is not None

#: CPython's default recursion limit: the stack backend runs under it.
DEFAULT_LIMIT = 1000

ATTEMPTS = bench_repeat(3)


def _measure(backend, n, clamp_limit):
    """One (run, prop) timing of the map app, or None on RecursionError.

    ``clamp_limit`` drops the recursion limit after instance creation
    (the engine constructor raises it); the caller's limit is restored.
    """
    app = REGISTRY["map"]
    rng = random.Random(7)
    data = app.make_data(n, rng)
    engine = Engine()
    instance = app.instance(engine, backend=backend)
    input_value, handle = app.make_sa_input(engine, data)
    saved = sys.getrecursionlimit()
    if clamp_limit is not None:
        sys.setrecursionlimit(clamp_limit)
    try:
        t0 = time.perf_counter()
        instance.apply(input_value)
        t1 = time.perf_counter()
        handle.set(0, 1_000_000_000)
        t2 = time.perf_counter()
        engine.propagate()
        t3 = time.perf_counter()
    except RecursionError:
        return None
    finally:
        sys.setrecursionlimit(saved)
    return t1 - t0, t3 - t2


def _sweep():
    out = {}
    for n in SIZES:
        stack_tries = [
            _measure("stack", n, DEFAULT_LIMIT) for _ in range(ATTEMPTS)
        ]
        interp_tries = [_measure("interp", n, None) for _ in range(ATTEMPTS)]
        out[n] = (stack_tries, interp_tries)
    return out


def _fmt(value):
    return f"{value:>14.5f}" if value is not None else f"{'overflow':>14}"


def test_deep_recursion_sweep(benchmark, capsys):
    results = once(benchmark, _sweep)

    header = (
        f"{'n':>8} {'stack run (s)':>14} {'stack prop (s)':>14} "
        f"{'interp run (s)':>14} {'interp prop (s)':>14}"
    )
    lines = [
        "Depth sweep: map over an n-element cons chain, head edit + propagate",
        f"(stack backend at recursion limit {DEFAULT_LIMIT}; interp at the "
        "engine's raised limit)",
        header,
        "-" * len(header),
    ]
    spread_rows = {}
    for n in SIZES:
        stack_tries, interp_tries = results[n]
        s_runs = [t[0] for t in stack_tries if t]
        s_props = [t[1] for t in stack_tries if t]
        i_runs = [t[0] for t in interp_tries if t]
        i_props = [t[1] for t in interp_tries if t]
        lines.append(
            f"{n:>8} {_fmt(min(s_runs) if s_runs else None)} "
            f"{_fmt(min(s_props) if s_props else None)} "
            f"{_fmt(min(i_runs) if i_runs else None)} "
            f"{_fmt(min(i_props) if i_props else None)}"
        )
        if s_props:
            spread_rows[f"stack prop n={n}"] = s_props
        if i_props:
            spread_rows[f"interp prop n={n}"] = i_props
    text = "\n".join(lines)
    text += "\n\n" + format_spread_rows(
        f"Timing spread over {ATTEMPTS} attempt(s)", spread_rows
    )

    if not _SMOKE:
        for n in SIZES:
            stack_tries, _ = results[n]
            assert all(t is not None for t in stack_tries), (
                f"stack backend overflowed at n={n} "
                f"(recursion limit {DEFAULT_LIMIT})"
            )
        deepest = max(SIZES)
        assert all(t is None for t in results[deepest][1]), (
            f"interp unexpectedly completed n={deepest}; deepen the sweep "
            "so the results still demonstrate the overflow boundary"
        )

    emit(capsys, "Deep recursion", text)
