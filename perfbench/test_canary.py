"""Determinism canary for the benchmark's workloads.

Two runs with the same seed and a fixed op count must produce identical
engine and persist counts; a different seed must keep each workload's
shape (the head/full read mix, the share of ops that checkpoint).  Runs
are shortened (fewer restarts, fewer pool documents) but take the same
code paths as the benchmark.

    python3 -m pytest perfbench/test_canary.py -q
"""

from __future__ import annotations

import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from repro.server import SessionPool  # noqa: E402

#: counts that must repeat exactly for a seed
PINNED = {
    "msort-eager": ("run.reads", "op.edges_reexecuted", "op.queue_drained", "snapshot.bytes"),
    "msort-lazy-sparse": (
        "run.reads", "op.edges_reexecuted", "op.demand_deferred", "snapshot.bytes",
    ),
    "pool-durable": (
        "run.reads", "op.edges_reexecuted", "op.journal_records",
        "op.pool_checkpoints", "snapshot.bytes",
    ),
}
OPS = {"msort-eager": 20, "msort-lazy-sparse": 48, "pool-durable": 1200}


@pytest.fixture(autouse=True)
def short_runs(monkeypatch, tmp_path):
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setattr(workloads, "MSORT_RESTARTS", 1)
    monkeypatch.setattr(workloads, "POOL_DOCS", 8)
    monkeypatch.setattr(workloads, "POOL_RESTARTS", 1)


def _counts(name: str, seed: int, tmp_path) -> dict:
    rec = workloads.run_workload(
        name, seed, 600.0, None, str(tmp_path / f"{name}-{seed}"), max_ops=OPS[name]
    )
    assert len(rec.latencies) == OPS[name]
    return rec.counts


@pytest.mark.parametrize("name", sorted(PINNED))
def test_same_seed_same_counts(name, tmp_path):
    first = _counts(name, 3, tmp_path)
    second = _counts(name, 3, tmp_path)
    for key in PINNED[name]:
        assert first[key] == second[key], key


@pytest.mark.parametrize("name", sorted(PINNED))
def test_other_seed_same_shape(name, tmp_path):
    a = _counts(name, 3, tmp_path)
    b = _counts(name, 4, tmp_path)
    # another seed gives other inputs (vec-reduce documents differ only in
    # their values, so for the pool the replayed journal suffixes show it)
    assert any(a.get(k) != b.get(k) for k in PINNED[name] + ("journal.replayed",))
    if name.startswith("msort"):
        full_every = workloads.MSORT[name][2]
        full = OPS[name] // full_every if full_every else 0
        for counts in (a, b):
            assert counts.get("reads.full", 0) == full
            assert counts["reads.head"] == OPS[name] - full
    else:
        # every document checkpoints once per checkpoint_every edits
        every = inspect.signature(SessionPool).parameters["checkpoint_every"].default
        for counts in (a, b):
            share = counts["op.pool_checkpoints"] / OPS[name]
            assert 0.5 / every <= share <= 1.5 / every, share
            assert counts["op.journal_records"] == OPS[name]


@pytest.mark.xfail(
    strict=True,
    reason="known defect: under the default feeds='summary' relevance filter "
    "a whole-output demand() after head-only get()s can return a stale msort "
    "output (CHANGES.md); REPRO_FEEDS=dfs passes",
)
def test_lazy_sparse_reads_match_oracle(tmp_path):
    rec = workloads.run_workload(
        "msort-lazy-sparse", 1, 600.0, None, str(tmp_path / "lazy"), max_ops=48
    )
    assert rec.failed == 0, rec.errors


def test_predictions_match_benchmark():
    """predictions.json names each declared per-layer metric once, and
    its gated predictions name gated workloads and end-to-end metrics."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "predictions.json")) as f:
        layers = json.load(f)["layers"].values()
    listed = [m for layer in layers for m in layer["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in bench["per_layer"])
    gated = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for layer in layers:
        for metric, workload in layer["moves"]:
            assert metric in end_to_end and workload in gated, (metric, workload)
        for metric, workload in layer["not_gated"]:
            assert metric in end_to_end and workload not in gated, (metric, workload)
