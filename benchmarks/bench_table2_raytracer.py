"""Table 2: summary of ray tracer timings.

For each surface group A..G we toggle the group to diffuse and to mirror
(superscripts D and M in the paper) and report: the fraction of output
pixels changed, conventional render time, self-adjusting render time,
propagation time, overhead, and speedup.

Shape claims: speedup is inversely related to the fraction of pixels
changed; mirror toggles (which spawn reflection rays inside the re-executed
reads) are consistently more expensive than diffuse toggles; the smallest
changes see the largest speedups.
"""

import time

import pytest

from repro.api import Session
from repro.apps import REGISTRY
from repro.apps.raytracer import (
    GROUPS,
    SceneInput,
    diffuse_surface,
    image_diff_fraction,
    mirror_surface,
    readback_image,
    standard_scene,
)

from _util import emit, once

IMAGE_SIZE = 20  # paper: 512x512; scaled for the interpreted substrate


def test_table2_raytracer(benchmark, capsys):
    app = REGISTRY["raytracer"]
    program = app.compiled()

    def run():
        scene = standard_scene(IMAGE_SIZE)

        conv = program.conventional_instance()
        conv_input = SceneInput(None, scene).value
        t0 = time.perf_counter()
        conv.apply(conv_input)
        conv_time = time.perf_counter() - t0

        # Tree-walking, like the conventional run it is compared with.
        sa = Session(program, backend="interp")
        handle = SceneInput(sa.engine, scene)
        t0 = time.perf_counter()
        out = sa.run(handle.value)
        sa_time = time.perf_counter() - t0

        rows = []
        for group in GROUPS:
            # Toggle away from the current state first so every measured
            # propagation responds to a real change (paper: each set is
            # changed to diffuse and to mirror).
            currently_mirror = handle.data().surfaces[group][5] > 0.0
            kinds = ("D", "M") if currently_mirror else ("M", "D")
            measured = {}
            for kind in kinds:
                make = diffuse_surface if kind == "D" else mirror_surface
                base = readback_image(out)
                color = handle.data().surfaces[group][:3]
                handle.set_group(group, make(color))
                t0 = time.perf_counter()
                sa.propagate()
                prop = time.perf_counter() - t0
                frac = image_diff_fraction(base, readback_image(out))
                measured[kind] = (frac, prop)
            for kind in ("D", "M"):
                frac, prop = measured[kind]
                rows.append((f"{group}{kind}", frac, conv_time, sa_time, prop))
        return rows

    rows = once(benchmark, run)

    header = (
        f"{'Surface':<8} {'Image Diff (%)':>14} {'Conv. Run (s)':>14} "
        f"{'Self-Adj. Run (s)':>18} {'Avg. Prop. (s)':>15} {'Overhead':>9} {'Speedup':>8}"
    )
    lines = ["Table 2: summary of ray tracer timings", header, "-" * len(header)]
    for name, frac, conv_time, sa_time, prop in rows:
        overhead = sa_time / conv_time
        speedup = conv_time / prop if prop > 0 else float("inf")
        lines.append(
            f"{name:<8} {frac * 100:>13.2f}% {conv_time:>14.3f} {sa_time:>18.3f} "
            f"{prop:>15.4f} {overhead:>9.2f} {speedup:>8.2f}"
        )
    text = "\n".join(lines)

    # Shape claims: larger changed fractions see smaller speedups.
    changed = [(frac, conv_time / prop) for _n, frac, conv_time, _s, prop in rows if prop > 0]
    big = [s for f, s in changed if f > 0.10]
    small = [s for f, s in changed if 0 < f < 0.02]
    if big and small:
        assert min(small) > max(big) * 0.5  # inverse trend (with slack)
    # Mirror toggles cost more than diffuse toggles on average (paper: ~2x).
    d_props = [p for (n, _f, _c, _s, p) in rows if n.endswith("D")]
    m_props = [p for (n, _f, _c, _s, p) in rows if n.endswith("M")]
    assert sum(m_props) > sum(d_props)

    emit(capsys, "Table 2", text)
