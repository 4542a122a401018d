"""Observability layer tests (repro.obs): event log, DDG export, checker.

The event stream and the Meter are two independent instrumentation paths
through the same engine; cross-checking them against each other catches
missed or double emissions on either side.  The invariant checker is
tested both positively (clean runs pass) and negatively (hand-corrupted
traces and fabricated splices are caught) -- a checker that cannot fail
verifies nothing.
"""

import json
from types import SimpleNamespace

import pytest

from repro.apps import REGISTRY
from repro.obs import (
    EventLog,
    FanoutHook,
    InvariantChecker,
    InvariantViolation,
    TraceHook,
    check_trace,
    ddg_dot,
    ddg_json,
    ddg_snapshot,
)
from repro.sac import Engine


def _run_map(hook, n=12, changes=2):
    """Run the compiled `map` app with ``hook`` attached; return (engine,
    output handle plumbing) after ``changes`` insert/propagate rounds."""
    from repro.api import Session

    session = Session(REGISTRY["map"], hook=hook)
    engine = session.engine
    output = session.run(data=list(range(1, n + 1)))
    for step in range(changes):
        session.input_handle.insert(step, 100 + step)
        engine.propagate()
    return engine, output


# ----------------------------------------------------------------------
# EventLog against the Meter


def test_event_log_counts_match_meter():
    log = EventLog()
    engine, _ = _run_map(log, changes=3)
    counts = log.counts()
    meter = engine.meter

    assert counts["read-start"] == meter.reads_executed
    assert counts["read-end"] == counts["read-start"]  # quiescent: all closed
    assert counts["memo-hit"] == meter.memo_hits
    assert counts["memo-hit"] == counts["splice"]  # every hit was spliced
    assert counts["memo-miss"] == meter.memo_misses
    assert counts["write"] == meter.writes
    assert counts["reexec"] == meter.edges_reexecuted
    assert counts["propagate-begin"] == 3
    assert counts["propagate-end"] == 3

    changed = sum(1 for e in log.of_kind("write") if e.info["changed"])
    assert changed == meter.changed_writes

    # keyed_mod recycling emits mod-create(recycled=True) without bumping
    # the counter; everything else is one-to-one.
    recycled = sum(1 for e in log.of_kind("mod-create") if e.info["recycled"])
    assert counts["mod-create"] == meter.mods_created + recycled


def test_event_log_event_shape_and_jsonl():
    log = EventLog(values=True)
    _run_map(log, n=4, changes=1)
    for line in log.to_jsonl().splitlines():
        record = json.loads(line)
        assert isinstance(record["seq"], int)
        assert isinstance(record["kind"], str)
    seqs = [e.seq for e in log]
    assert seqs == sorted(seqs)
    # Stable naming: every read-start refers to a named mod and edge.
    for event in log.of_kind("read-start"):
        assert event.info["mod"].startswith("m")
        assert event.info["edge"].startswith("r")


def test_event_log_maxlen_bound_keeps_newest():
    log = EventLog(maxlen=10)
    _run_map(log, n=8, changes=1)
    assert len(log) == 10
    events = list(log)
    assert events[-1].kind == "propagate-end"  # newest kept, oldest dropped
    assert events[0].seq > 0


def test_event_log_clear():
    log = EventLog()
    _run_map(log, n=4, changes=0)
    assert len(log) > 0
    log.clear()
    assert len(log) == 0


# ----------------------------------------------------------------------
# FanoutHook


def test_fanout_forwards_to_all_hooks():
    log_a, log_b = EventLog(), EventLog()
    checker = InvariantChecker()
    engine, _ = _run_map(FanoutHook([log_a, log_b, checker]), changes=2)
    assert log_a.counts() == log_b.counts()
    assert len(log_a) > 0
    # on_attach reached every member.
    assert log_a.engine is engine
    assert checker.engine is engine
    assert checker.checks["full_trace"] == 2


# ----------------------------------------------------------------------
# check_trace: passes on clean traces, catches hand-made corruption


def _two_read_engine():
    engine = Engine()
    m = engine.make_input(3)
    k = engine.make_input(4)
    engine.mod(lambda d: engine.read(m, lambda v: engine.write(d, v * v)))
    engine.mod(lambda d: engine.read(k, lambda v: engine.write(d, v + 1)))
    (edge_m,) = m.readers
    (edge_k,) = k.readers
    return engine, edge_m, edge_k


def test_check_trace_clean_report():
    engine, _, _ = _two_read_engine()
    report = check_trace(engine)
    assert report.reads == 2
    assert report.queued == 0
    assert "trace OK" in str(report)


def test_check_trace_detects_unregistered_edge():
    engine, edge, _ = _two_read_engine()
    edge.mod.readers.discard(edge)
    with pytest.raises(InvariantViolation, match="not registered"):
        check_trace(engine)


def test_check_trace_detects_dead_record_on_live_stamp():
    engine, edge, _ = _two_read_engine()
    edge.dead = True
    with pytest.raises(InvariantViolation, match="dead record"):
        check_trace(engine)


def test_check_trace_detects_dirty_unqueued_edge():
    engine, edge, _ = _two_read_engine()
    edge.dirty = True  # dirtied behind the engine's back: never queued
    with pytest.raises(InvariantViolation, match="not queued"):
        check_trace(engine)


def test_check_trace_detects_nonempty_queue_when_required():
    engine, edge, _ = _two_read_engine()
    edge.dirty = True
    engine.queue.append((edge.start.key, 0, edge))
    check_trace(engine)  # dirty *and* queued is fine in general...
    with pytest.raises(InvariantViolation, match="queue not empty"):
        check_trace(engine, expect_empty_queue=True)  # ...but not post-prop


def test_check_trace_detects_clean_queued_edge():
    engine, edge, _ = _two_read_engine()
    engine.queue.append((edge.start.key, 0, edge))  # live, not dirty
    with pytest.raises(InvariantViolation, match="not dirty"):
        check_trace(engine)


def test_check_trace_detects_heap_violation():
    engine, edge_m, edge_k = _two_read_engine()
    assert edge_m.start.label < edge_k.start.label
    edge_m.dirty = edge_k.dirty = True
    # later stamp at the root
    engine.queue.extend([(edge_k.start.key, 0, edge_k), (edge_m.start.key, 1, edge_m)])
    with pytest.raises(InvariantViolation, match="min-heap"):
        check_trace(engine)


def test_check_trace_detects_stale_queue_snapshot():
    engine, edge, _ = _two_read_engine()
    edge.dirty = True
    engine.queue.append((edge.start.key - 1, 0, edge))  # snapshot disagrees
    assert engine._queue_epoch == engine.order.epoch
    with pytest.raises(InvariantViolation, match="stale"):
        check_trace(engine)


# ----------------------------------------------------------------------
# InvariantChecker: dynamic discipline (driven with fabricated events)


def _stamp(label):
    return SimpleNamespace(label=label)


def _checker_with(now=50, limit=100):
    checker = InvariantChecker()
    checker.engine = SimpleNamespace(
        now=_stamp(now),
        reuse_limit=None if limit is None else _stamp(limit),
    )
    return checker


def test_checker_accepts_contained_splice():
    checker = _checker_with()
    checker.on_memo_hit(SimpleNamespace(start=_stamp(60), end=_stamp(90)))
    assert checker.checks["splice_containment"] == 1


def test_checker_rejects_splice_outside_reuse_zone():
    checker = _checker_with(limit=None)
    with pytest.raises(InvariantViolation, match="outside any reuse zone"):
        checker.on_memo_hit(SimpleNamespace(start=_stamp(60), end=_stamp(90)))


def test_checker_rejects_splice_behind_cursor():
    checker = _checker_with(now=70)
    with pytest.raises(InvariantViolation, match="behind the cursor"):
        checker.on_memo_hit(SimpleNamespace(start=_stamp(60), end=_stamp(90)))


def test_checker_rejects_splice_escaping_zone():
    checker = _checker_with()
    with pytest.raises(InvariantViolation, match="escapes the reuse zone"):
        checker.on_memo_hit(SimpleNamespace(start=_stamp(60), end=_stamp(200)))


def test_checker_rejects_out_of_order_queue_pops():
    checker = InvariantChecker()
    checker.on_propagate_begin(2)
    checker.on_reexec(SimpleNamespace(start=_stamp(10)))
    with pytest.raises(InvariantViolation, match="out of timestamp order"):
        checker.on_reexec(SimpleNamespace(start=_stamp(5)))


def test_checker_rejects_misnested_read_intervals():
    checker = InvariantChecker()
    outer, inner = SimpleNamespace(), SimpleNamespace()
    checker.on_read_start(outer)
    checker.on_read_start(inner)
    with pytest.raises(InvariantViolation, match="closed out of order"):
        checker.on_read_end(outer)


def test_checker_clean_run_reports_counts():
    checker = InvariantChecker()
    _run_map(checker, changes=2)
    assert checker.checks["full_trace"] == 2
    assert checker.checks["read_nesting"] > 0
    assert checker.checks["splice_containment"] > 0
    assert checker.total_checks() == sum(checker.checks.values())
    assert checker.last_report is not None and checker.last_report.queued == 0


# ----------------------------------------------------------------------
# DDG export


def test_ddg_snapshot_structure():
    engine, _ = _run_map(TraceHook(), n=6, changes=1)
    snap = ddg_snapshot(engine)
    assert snap["trace_size"] == engine.trace_size()
    assert snap["live_stamps"] == engine.order.n_live
    assert len(snap["reads"]) == engine.meter.live_edges
    assert len(snap["memos"]) == engine.meter.live_memo_entries
    ids = {m["id"] for m in snap["mods"]}
    for read in snap["reads"]:
        assert read["mod"] in ids
        # A leaf read (nothing recorded inside) closes on its start stamp.
        assert read["end"] is None or read["start"] <= read["end"]
        assert not read["dirty"]  # quiescent
        assert read["parent"] is None or read["parent"].startswith(("r", "e"))
    # n_readers totals the read->mod edges.
    assert sum(m["n_readers"] for m in snap["mods"]) == len(snap["reads"])


def test_ddg_snapshot_lists_keyed_sites():
    """Every live keyed allocation site appears, naming the modifiable it
    allocated and, for a compiled call, its memo entry."""
    engine, _ = _run_map(TraceHook(), n=6, changes=2)
    snap = ddg_snapshot(engine)
    assert len(snap["sites"]) == len(engine.alloc_table) > 0
    mods = {m["id"] for m in snap["mods"]}
    memos = {e["id"] for e in snap["memos"]}
    for site in snap["sites"]:
        assert site["mod"] in mods and site["memo"] in memos
    dot = ddg_dot(engine)
    assert dot.count("[shape=point]") == len(snap["sites"])
    assert dot.count("[style=dotted]") == len(snap["sites"])


def test_ddg_json_round_trips():
    engine, _ = _run_map(TraceHook(), n=4, changes=0)
    snap = json.loads(ddg_json(engine))
    assert set(snap) >= {"mods", "reads", "memos", "meter", "trace_size"}


def test_ddg_dot_shape():
    engine, _ = _run_map(TraceHook(), n=4, changes=0)
    dot = ddg_dot(engine, title="map-run")
    assert dot.startswith('digraph "map-run" {')
    assert dot.rstrip().endswith("}")
    assert "shape=ellipse" in dot  # modifiables
    assert "shape=box" in dot  # read edges
    assert "shape=diamond" in dot  # memo entries
    assert "style=dashed" in dot  # containment forest
    snap = ddg_snapshot(engine)
    for read in snap["reads"]:
        assert f'{read["id"]} -> {read["mod"]};' in dot


def test_ddg_values_flag():
    engine = Engine()
    m = engine.make_input("hello")
    engine.mod(lambda d: engine.read(m, lambda v: engine.write(d, v.upper())))
    with_values = ddg_snapshot(engine, values=True)
    without = ddg_snapshot(engine, values=False)
    assert any("hello" in mod.get("value", "") for mod in with_values["mods"])
    assert all("value" not in mod for mod in without["mods"])
