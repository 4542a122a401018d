"""Table 3: comparison of the ray tracer with the CPS baseline.

The paper compares its type-directed ray tracer against the CPS (DeltaML)
version and finds the type-directed one roughly twice as fast in both
complete runs and propagation.  Our CPS substitute is the compiler's
``coarse`` mode (with the Section 3.4 optimizer disabled): every changeable
result gets an extra modifiable indirection, emulating CPS's coarse
continuation-based dependency tracking (DESIGN.md Section 2).
"""

import time

import pytest

from repro.api import Session
from repro.apps import REGISTRY
from repro.apps.raytracer import GROUPS, SceneInput, readback_image, standard_scene

from _util import emit, once

IMAGE_SIZE = 14
TOGGLES = ["A", "C", "E", "G"]


def _measure(program, scene):
    # The tree-walking backend, as in the recorded table.
    sa = Session(program, backend="interp")
    handle = SceneInput(sa.engine, scene)
    t0 = time.perf_counter()
    out = sa.run(handle.value)
    run_time = time.perf_counter() - t0
    mods = sa.engine.meter.mods_created
    trace = sa.engine.trace_size()
    props = []
    for group in TOGGLES:
        handle.toggle(group)
        t0 = time.perf_counter()
        sa.propagate()
        props.append(time.perf_counter() - t0)
    return run_time, props, mods, trace


def test_table3_raytracer_vs_cps(benchmark, capsys):
    app = REGISTRY["raytracer"]

    def run():
        scene = standard_scene(IMAGE_SIZE)
        typed = _measure(app.compiled(), scene)
        cps = _measure(
            app.compiled(optimize_flag=False, coarse=True), scene
        )
        return typed, cps

    (
        (typed_run, typed_props, typed_mods, typed_trace),
        (cps_run, cps_props, cps_mods, cps_trace),
    ) = once(benchmark, run)

    header = (
        f"{'Toggle':<8} {'Type-Dir. Prop (s)':>19} {'CPS Prop (s)':>13} "
        f"{'Speedup vs CPS':>15}"
    )
    lines = [
        "Table 3: ray tracer vs the CPS (coarse-tracking) baseline",
        f"complete run: Type-Dir. {typed_run:.3f}s   CPS {cps_run:.3f}s   "
        f"speedup {cps_run / typed_run:.2f}x",
        f"modifiables:  Type-Dir. {typed_mods}   CPS {cps_mods}   "
        f"trace size: {typed_trace} vs {cps_trace}",
        header,
        "-" * len(header),
    ]
    for group, tp, cp in zip(TOGGLES, typed_props, cps_props):
        ratio = cp / tp if tp > 0 else float("inf")
        lines.append(f"{group:<8} {tp:>19.4f} {cp:>13.4f} {ratio:>14.2f}x")
    text = "\n".join(lines)

    # Paper shape: coarse (CPS-style) tracking pays for extra modifiables
    # and trace.  Wall times appear in the report; the assertions use the
    # deterministic counters (the run-time gap at 14x14 is within machine
    # noise on a loaded box).
    # The indirection effect on the ray tracer is mostly in modifiable
    # counts (trace size is dominated by the shading reads); the list
    # benchmarks of Figure 9 show the space effect much more strongly.
    assert cps_mods > typed_mods * 1.05
    assert cps_trace >= typed_trace

    emit(capsys, "Table 3", text)
