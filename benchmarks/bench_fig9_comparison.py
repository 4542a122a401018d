"""Figure 9: comparison with previous work, and the optimizer ablation.

Time and memory for the complete run and for change propagation on the
common list benchmarks (map, filter, qsort, msort), for:

* **Type-Directed** -- our compiler, all phases on (the paper's system);
* **Unopt.** -- the Section 3.4 optimizer disabled (the paper's ablation);
* **CPS** -- coarse-tracking emulation (extra modifiable per changeable
  result, optimizer off), standing in for DeltaML (DESIGN.md Section 2);
* **AFL** -- hand-written self-adjusting programs against the runtime API
  (repro.bench.handwritten), standing in for the hand-tuned AFL library.

All numbers are normalized to Type-Directed = 1.0, as in the paper.

Shape claims: Unopt. and CPS are slower than Type-Directed (the paper
reports the optimizations buy up to 60%, and CPS is ~2x slower); AFL hand
code is at least competitive with (usually faster than) the compiled code.
"""

import pytest

from repro.apps import REGISTRY
from repro.api import measure_app
from repro.bench import measure_handwritten
from repro.bench.handwritten import HANDWRITTEN
from repro.bench.report import format_normalized

from _util import emit, once

SIZES = {"map": 1500, "filter": 1500, "qsort": 300, "msort": 200}
BENCHES = list(SIZES)


def test_fig9_comparison(benchmark, capsys):
    def run():
        data = {
            "run": {"Type-Directed": [], "Unopt.": [], "CPS": [], "AFL": []},
            "prop": {"Type-Directed": [], "Unopt.": [], "CPS": [], "AFL": []},
            "trace": {"Type-Directed": [], "Unopt.": [], "CPS": [], "AFL": []},
        }
        for name in BENCHES:
            n = SIZES[name]
            app = REGISTRY[name]
            # The LML variants run on the tree-walking reference backend,
            # which the recorded AFL-vs-LML ratios assume.
            variants = {
                "Type-Directed": measure_app(
                    app, n, prop_samples=8, seed=3, backend="interp"
                ),
                "Unopt.": measure_app(
                    app, n, prop_samples=8, seed=3, optimize_flag=False,
                    backend="interp",
                ),
                "CPS": measure_app(
                    app, n, prop_samples=8, seed=3,
                    optimize_flag=False, coarse=True, backend="interp",
                ),
                "AFL": measure_handwritten(
                    "AFL", HANDWRITTEN[name], app, n, prop_samples=8, seed=3
                ),
            }
            for label, row in variants.items():
                data["run"][label].append(row.sa_run)
                data["prop"][label].append(row.avg_prop)
                data["trace"][label].append(row.trace_size)
        return data

    data = once(benchmark, run)

    sections = []
    for metric, title in (
        ("run", "Time for complete run"),
        ("prop", "Time for change propagation"),
        ("trace", "Trace size (memory) after the complete run"),
    ):
        sections.append(
            format_normalized(
                f"Figure 9: {title}", BENCHES, data[metric], "Type-Directed"
            )
        )
    text = "\n\n".join(sections)

    # Shape claims, averaged across benchmarks.  Wall times appear in the
    # report; assertions use the deterministic trace-size counters so the
    # benchmark is robust to machine noise.
    def avg_ratio(metric, label):
        pairs = zip(data[metric][label], data[metric]["Type-Directed"])
        ratios = [a / b for a, b in pairs if b > 0]
        return sum(ratios) / len(ratios)

    assert avg_ratio("trace", "Unopt.") > 1.02   # the optimizer removes trace
    assert avg_ratio("trace", "CPS") > avg_ratio("trace", "Unopt.")  # coarser
    assert avg_ratio("trace", "CPS") > 1.2
    assert avg_ratio("trace", "AFL") < 1.0       # hand code is leaner
    assert avg_ratio("run", "AFL") < 1.0         # and faster (native Python)

    emit(capsys, "Figure 9", text)
