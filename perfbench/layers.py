"""Layer wiring for the traced run, and the per-layer metrics it yields.

:func:`build_tracer` names every layer after the repo module it times
and registers the public entry point that enters it.  :func:`per_layer`
turns one traced :class:`~workloads.Record` into the per-layer metrics
listed in ``BENCHMARK.json`` (each with the base it is a share of), and
:func:`ledger` into the per-phase split that is checked in under
``perfbench/ledger/``.
"""

from __future__ import annotations

import statistics
from typing import Dict, Tuple

from tracer import Tracer
from workloads import snapshot_bytes


def _meter(obj):
    """The meter behind an engine, a session or an input handle."""
    meter = getattr(obj, "meter", None)
    return meter if meter is not None else obj.engine.meter


def build_tracer() -> Tracer:
    import repro.api
    import repro.apps.base
    import repro.persist
    import repro.server.pool
    import repro.server.protocol
    from repro.api import Session
    from repro.apps import REGISTRY
    from repro.interp.marshal import ModListInput
    from repro.persist.journal import EditJournal
    from repro.sac.engine import Engine
    from repro.server.pool import SessionPool

    t = Tracer()
    # compiler: the pipeline entry point, at both of its call sites
    t.wrap(repro.apps.base, "compile_program", "compile")
    t.wrap(repro.api, "compile_program", "compile")
    for app in (REGISTRY["msort"], REGISTRY["vec-reduce"]):
        t.wrap(app, "make_sa_input", "marshal")
        t.wrap(app, "readback", "readback")
    # backend: the initial (trace-building) run
    t.wrap(Session, "run", "run")
    # edit staging: marshalled input handles and named-handle edits
    edit_probe = dict(
        probe=lambda o: (_meter(o).suspect_marks,),
        keys=("suspect_marks",),
        post=lambda result, _args: result or 0,
        post_key="dirtied",
    )
    t.wrap(ModListInput, "insert", "edit", **edit_probe)
    t.wrap(ModListInput, "remove", "edit", **edit_probe)
    t.wrap(Session, "edit", "edit", **edit_probe)
    drain_keys = ("reexecuted", "drained")
    t.wrap(
        Session,
        "propagate",
        "propagate",
        probe=lambda s: (
            s.engine.meter.edges_reexecuted,
            s.engine.meter.queue_drained,
        ),
        keys=drain_keys,
    )
    demand_keys = drain_keys + ("deferred", "hazards", "demands", "clean")

    def demand_probe(o):
        m = _meter(o)
        return (
            m.edges_reexecuted,
            m.queue_drained,
            m.demand_deferred,
            m.demand_hazards,
            m.demands,
            m.demands_clean,
        )

    t.wrap(Session, "demand", "demand", probe=demand_probe, keys=demand_keys)
    t.wrap(Engine, "demand", "demand", probe=demand_probe, keys=demand_keys)
    # snapshots (Session.snapshot/restore import these at call time)
    t.wrap(
        repro.persist,
        "save_session",
        "snapshot.save",
        post=lambda _r, args: snapshot_bytes(args[1]),
        post_key="bytes",
    )
    t.wrap(repro.persist, "load_session", "snapshot.restore")
    # journal
    t.wrap(EditJournal, "commit", "journal.commit")
    t.wrap(repro.server.pool, "_replay_journal", "journal.replay")
    # server: frames, pool entry points

    def decoded(frame, _args):
        # Spans the server opens for this frame carry the client's op id.
        if isinstance(frame, dict) and isinstance(frame.get("id"), int):
            t.op_id.set(frame["id"])
        return 1

    t.wrap(repro.server.protocol, "decode_frame", "frame.decode", post=decoded, post_key="count")
    t.wrap(repro.server.protocol, "encode_frame", "frame.encode")
    t.wrap(SessionPool, "open", "pool.open")
    t.wrap(SessionPool, "edit", "pool.edit")
    t.wrap(SessionPool, "get", "pool.get")
    return t


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rec, tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Every per-layer metric of one traced run, and the base of each."""
    every = [w for ws in rec.windows.values() for w in ws]
    op = rec.windows.get("op", [])
    times = tracer.layer_times(every)
    op_wall = sum(b - a for a, b in op)
    sc = rec.slice_counts
    c = tracer.counts

    def wall(layer: str) -> float:
        return times.get(layer, {}).get("wall", 0.0)

    gcs = tracer.gc_summary(op)
    traced_ops = rec.slices.get("traced_ops", 0)
    untraced = _frac(rec.slices.get("untraced_ops", 0), rec.slices.get("untraced_s", 0))
    traced = _frac(traced_ops, rec.slices.get("traced_s", 0))
    m: Dict[str, float] = {
        "compile.s": wall("compile"),
        "marshal.s": wall("marshal"),
        "run.s": wall("run"),
        "run.reads": rec.counts.get("run.reads", 0),
        "run.mods": rec.counts.get("run.mods", 0),
        "edit.s": wall("edit"),
        "edit.dirtied": c["edit", "dirtied"],
        "edit.suspect_marks": c["edit", "suspect_marks"],
        "propagate.s": wall("propagate"),
        "propagate.reexecuted": c["propagate", "reexecuted"],
        "propagate.drained": c["propagate", "drained"],
        "propagate.useful_frac": _frac(
            c["propagate", "reexecuted"], c["propagate", "drained"]
        ),
        "queue.pushes": sc.get("queue_pushes", 0),
        "queue.rekeys": sc.get("queue_rekeys", 0),
        "order.relabels": sc.get("order_relabels", 0),
        "memo.hit_frac": _frac(
            sc.get("memo_hits", 0), sc.get("memo_hits", 0) + sc.get("memo_misses", 0)
        ),
        "demand.s": wall("demand"),
        "demand.reexecuted": c["demand", "reexecuted"],
        "demand.deferred": c["demand", "deferred"],
        "demand.clean_frac": _frac(c["demand", "clean"], c["demand", "demands"]),
        "demand.hazards": c["demand", "hazards"],
        "feeds.hits": sc.get("feeds_hits", 0),
        "feeds.updates": sc.get("feeds_updates", 0),
        "feeds.recomputes": sc.get("feeds_recomputes", 0),
        "readback.s": wall("readback"),
        "snapshot.save_s": wall("snapshot.save"),
        # msort restores run in fresh processes, which time them
        "snapshot.restore_s": wall("snapshot.restore")
        + sum(rec.restore_s),
        "snapshot.bytes": c["snapshot.save", "bytes"],
        "restart.first_update_s": statistics.median(rec.first_update_s)
        if rec.first_update_s
        else 0.0,
        "journal.commit_s": wall("journal.commit"),
        "journal.records": times.get("journal.commit", {}).get("calls", 0),
        "journal.replayed": rec.counts.get("journal.replayed", 0),
        "frame.decode_s": wall("frame.decode"),
        "frame.encode_s": wall("frame.encode"),
        "frame.count": c["frame.decode", "count"],
        "pool.edit_s": wall("pool.edit"),
        "pool.get_s": wall("pool.get"),
        "pool.checkpoints": sc.get("pool_checkpoints", 0),
        "scheduler.rotations": sc.get("scheduler_rotations", 0),
        "gc.pause_s": gcs["pause_s"],
        "gc.pause_frac": _frac(gcs["pause_s"], op_wall),
        "gc.gen2": gcs["gen2"],
        "gc.max_pause_ms": gcs["max_pause_ms"],
        "gc.collected": gcs["collected"],
        "trace.overhead_frac": 1.0 - _frac(traced, untraced) if untraced else 0.0,
    }
    setup_wall = sum(b - a for a, b in rec.windows.get("setup", []))
    restart_wall = sum(b - a for a, b in rec.windows.get("restart", []))
    op_base = f"traced op-phase wall {op_wall:.3f} s, {traced_ops} ops"
    bases = {k: "whole traced run (setup + traced op slices + restart)" for k in m}
    for k in ("compile.s", "marshal.s", "run.s", "run.reads", "run.mods"):
        bases[k] = f"setup wall {setup_wall:.3f} s"
    for k in m:
        if k.split(".")[0] in ("queue", "order", "memo", "feeds", "scheduler", "gc") or k == "pool.checkpoints":
            bases[k] = op_base
    bases["gc.pause_frac"] = f"gc.pause_s / traced op-phase wall {op_wall:.3f} s"
    bases["snapshot.restore_s"] = f"restart phase wall {restart_wall:.3f} s"
    bases["restart.first_update_s"] = f"median of {len(rec.first_update_s)} restarts"
    bases["journal.replayed"] = "records replayed by the restart opens"
    bases["propagate.useful_frac"] = "propagate.reexecuted / propagate.drained"
    bases["memo.hit_frac"] = "memo hits / (hits + misses), traced op slices"
    bases["demand.clean_frac"] = "clean demands / demands"
    bases["trace.overhead_frac"] = (
        f"1 - traced/untraced ops_per_s ({traced:.2f} vs {untraced:.2f}) "
        f"over interleaved {rec.slices.get('traced_s', 0):.1f} s / "
        f"{rec.slices.get('untraced_s', 0):.1f} s slices"
    )
    return m, bases


def ledger(rec, tracer: Tracer) -> dict:
    """Each layer's wall and self time per phase, with its share of the
    phase's wall time."""
    out = {}
    for phase, windows in rec.windows.items():
        wall = sum(b - a for a, b in windows)
        rows = tracer.layer_times(windows)
        out[phase] = {
            "wall_s": wall,
            "layers": {
                layer: {
                    "wall_s": row["wall"],
                    "self_s": row["self"],
                    "calls": row["calls"],
                    "self_share": _frac(row["self"], wall),
                }
                for layer, row in sorted(rows.items())
            },
        }
    return out
