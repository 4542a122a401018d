"""Spread self-check: is a workload steady enough for its bounds?

Runs one workload once per seed (untraced), then prints for every
end-to-end metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound from ``BENCHMARK.json``.
A spread above the bound is flagged ``FAIL``; one above a third of the
bound is flagged ``tight``.  With ``--against FILE`` (a ``--save`` from
an earlier set) it also flags a median that got worse by more than the
bound.  Exits 1 if any metric fails or any run is incorrect.

    python3 perfbench/spread.py --workload msort-eager --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--save", help="write the per-seed values here (JSON)")
    parser.add_argument("--against", help="an earlier --save to compare medians with")
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in bench["end_to_end"]}
    bad = 0
    for seed in _seeds(args.seeds):
        result = run_once(args.workload, seed, args.seconds)
        if not result["correct"] or result["failed"]:
            bad += 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} " +
              " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f, indent=1)
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["values"]

    failed = bad > 0
    print(f"{args.workload}: {len(values['setup_s'])} runs, {bad} incorrect")
    print(f"  {'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values[name]
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if spread > bound:
            flag, failed = "FAIL", True
        elif spread > bound / 3:
            flag = "tight"
        if earlier is not None:
            before = statistics.median(earlier[name])
            worse = (med - before) / before
            if metric["better"] == "higher":
                worse = -worse
            flag += f" drift {worse:+.3f}"
            if worse > bound:
                flag += " FAIL"
                failed = True
        print(f"  {name:16s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} {bound:6.2f} {flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
