"""Repository benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload msort-eager --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` times each layer's public entry points (see ``layers.py``)
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and bounds are declared in ``BENCHMARK.json``.

``--ledger PATH`` (traced runs) also writes the per-phase layer split;
spans are written to ``perfbench/out/`` when a traced run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("msort-eager", "msort-lazy-sparse", "pool-durable")
#: set-up is timed this many times per run (first here, the rest in fresh
#: processes spread through the op phase) and reported as the median
SETUP_SAMPLES = 3


def declared(kind: str) -> dict:
    """Metric name -> unit, for the ``kind`` ("end_to_end" or
    "per_layer") metrics that ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _clean_env() -> None:
    """Measure the defaults: drop every ``REPRO_*`` override."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def _workdir(name: str) -> str:
    return os.path.join(HERE, ".work", f"{name}-{os.getpid()}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _setup_probe(name: str, seed: int) -> float:
    """Time one more set-up in a fresh process (a fresh heap)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("set-up probe output differs from the oracle")
    return result["setup_s"]


def _setup_only(name: str, seed: int) -> int:
    import workloads

    if name in workloads.MSORT:
        _session, _t0, seconds, ok = workloads.msort_setup(name, seed)
    else:
        workdir = _workdir(name)
        try:
            rec = workloads.pool_setup_only(seed, workdir)
        finally:
            import shutil

            shutil.rmtree(workdir, ignore_errors=True)
        seconds, ok = rec.setup_s, rec.failed == 0
    print(json.dumps({"setup_s": seconds, "correct": ok}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", help="traced runs: write the layer split here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--restart-from", help=argparse.SUPPRESS)
    parser.add_argument("--step", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _clean_env()
    if not os.path.isfile(os.path.join(SRC, "repro", "api.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.setup_only:
        return _setup_only(args.workload, args.seed)
    import workloads

    if args.restart_from:
        print(json.dumps(workloads.msort_restart(
            args.workload, args.seed, args.restart_from, args.step
        )))
        return 0

    tracer = None
    if args.trace:
        import layers

        tracer = layers.build_tracer()
    name = args.workload
    probes = []

    def probe_setup(segment: int, parts: int) -> None:
        if args.trace or len(probes) >= SETUP_SAMPLES - 1:
            return
        if segment * SETUP_SAMPLES >= parts * (len(probes) + 1):
            probes.append(_setup_probe(name, args.seed))

    # Set-up runs first thing in the workload, on a fresh heap.
    rec = workloads.run_workload(
        name, args.seed, args.seconds, tracer, _workdir(name), between=probe_setup
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for error in rec.errors:
        print(f"FAILED: {error}")

    lat = rec.latencies
    n = len(lat)
    beyond = n - math.ceil(0.95 * n)
    print(
        f"{name} seed={args.seed}: {n} ops in {rec.op_wall_s:.2f} s, "
        f"{beyond} beyond p95, {rec.attempted} checked, {rec.failed} failed"
    )
    units = declared("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics, bases = layers.per_layer(rec, tracer)
        for key, value in metrics.items():
            print(f"  {key:24s} {value:14.6g} {units[key]:9s} base: {bases[key]}")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(
            os.path.join(out_dir, f"trace-{name}-seed{args.seed}.json"),
            {"workload": name, "seed": args.seed, "windows": rec.windows},
        )
        if args.ledger:
            with open(args.ledger, "w") as f:
                json.dump(
                    {
                        "workload": name,
                        "seed": args.seed,
                        "seconds": args.seconds,
                        "ops": n,
                        "attempted": rec.attempted,
                        "failed": rec.failed,
                        "errors": rec.errors,
                        "phases": layers.ledger(rec, tracer),
                        "metrics": {
                            k: {"value": v, "unit": units[k], "base": bases[k]}
                            for k, v in metrics.items()
                        },
                    },
                    f,
                    indent=1,
                    sort_keys=False,
                )
                f.write("\n")
    else:
        while len(probes) < SETUP_SAMPLES - 1:
            probes.append(_setup_probe(name, args.seed))
        setups = [rec.setup_s] + probes
        print(f"  setup samples: {', '.join(f'{s:.3f}' for s in setups)} s")
        print(f"  restart samples: {', '.join(f'{s:.3f}' for s in rec.restart_s)} s")
        metrics = {
            "setup_s": statistics.median(setups),
            "update_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
            "update_p95_ms": percentile(lat, 0.95) * 1e3 if lat else 0.0,
            "ops_per_s": n / rec.op_wall_s if rec.op_wall_s else 0.0,
            "restart_s": statistics.median(rec.restart_s) if rec.restart_s else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        for key, value in metrics.items():
            print(f"  {key:16s} {value:12.4f} {units[key]}")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    attempted = max(rec.attempted, 1)
    print(json.dumps({
        "correct": rec.failed == 0 and rec.attempted > 0 and n > 0,
        "attempted": attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
