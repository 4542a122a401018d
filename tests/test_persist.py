"""Durability (DESIGN.md Section 10): snapshots, journals, restores.

A checkpoint records a session's inputs, not its trace, so the headline
property is that a restored session *is* a from-scratch run on the
recorded inputs: the same values and the same meter counters as a fresh
session run on them, at the restore point and after identical edit
streams, across both backends and both propagation modes, including
snapshots taken with lazy edits staged but unpropagated -- and the same
values as the session that was saved.  The rest covers the file
format's typed failure model (corrupt/mismatched snapshots never
half-restore), the write-ahead journal's replay semantics (torn tails
dropped, corrupt prefix preserved, replay idempotent), and the
end-to-end crash story: snapshot + journal suffix reproduces every
acknowledged edit.
"""

import logging
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.api import Session, values_close
from repro.apps import REGISTRY
from repro.persist import (
    EditJournal,
    JournalCorruptError,
    JournalError,
    PersistError,
    SnapshotCorruptError,
    SnapshotFormatError,
    SnapshotMismatchError,
    SnapshotStateError,
    FORMAT_VERSION,
    inspect_snapshot,
    read_header,
    read_journal,
    replay_journal,
)

BACKENDS = ["interp", "stack"]
MODES = ["eager", "lazy"]

# Scalar-cell app used wherever edits go through wire handles (its
# ``cell:<i>`` mods hold plain floats, like the server's documents).
SCALAR_APP = "vec-reduce"


def _run_session(app_name, n, seed, backend, mode):
    app = REGISTRY[app_name]
    rng = random.Random(seed)
    session = Session(app, backend=backend, mode=mode)
    session.run(data=app.make_data(n, rng))
    return session, app, rng


def _settle(session):
    if session.mode == "lazy":
        session.demand()
    else:
        session.propagate()


def _bind_cells(session):
    handles = []
    for i, mod in enumerate(session.input_handle.mods):
        handles.append(session.handle(mod, f"cell:{i}"))
    return handles


def _fresh_on_recorded_inputs(session):
    """A never-checkpointed session run on ``session``'s current inputs."""
    twin = Session(session.app, backend=session.backend, mode=session.mode)
    twin.run(data=session.app.handle_data(session.input_handle))
    return twin


# ----------------------------------------------------------------------
# Restore == a fresh run on the recorded inputs, every backend x mode


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", MODES)
def test_restore_is_meter_exact_under_random_edits(tmp_path, backend, mode):
    """save -> restore -> k random edits: the restored session matches a
    fresh run on the recorded inputs in meters and values, and the live
    session in values."""
    app_name = "msort"
    session, app, rng = _run_session(app_name, 16, 7, backend, mode)
    for step in range(2):
        app.apply_change(session.input_handle, rng, step)
        _settle(session)

    path = str(tmp_path / "s.snap")
    header = session.snapshot(path)
    assert header["content"]["backend"] == session.backend
    restored = Session.restore(path, app_name)
    assert restored.backend == session.backend
    assert restored.mode == session.mode
    fresh = _fresh_on_recorded_inputs(session)

    # Identical meters at the restore point...
    assert restored.engine.meter.snapshot() == fresh.engine.meter.snapshot()
    assert values_close(
        app.readback(restored.output), app.readback(session.output)
    )
    # ...and after an identical stream of further random edits, which
    # the live session takes too.
    rngs = [random.Random(99) for _ in range(3)]
    for step in range(4):
        for twin, twin_rng in zip((session, fresh, restored), rngs):
            app.apply_change(twin.input_handle, twin_rng, step)
            _settle(twin)
        assert values_close(
            app.readback(restored.output), app.readback(fresh.output)
        )
        assert values_close(
            app.readback(restored.output), app.readback(session.output)
        )
    assert restored.engine.meter.snapshot() == fresh.engine.meter.snapshot()
    expected = app.reference(app.handle_data(restored.input_handle))
    assert values_close(app.readback(restored.output), expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_lazy_snapshot_round_trips_staged_edits(tmp_path, backend):
    """A lazy session with staged-but-unpropagated edits snapshots; the
    restored session ran on the edited inputs, so it owes no deferred
    work and matches both a fresh run on them and the demanded original."""
    session, app, rng = _run_session("msort", 16, 3, backend, "lazy")
    app.apply_change(session.input_handle, rng, 0)
    app.apply_change(session.input_handle, rng, 1)
    assert session.engine.queue  # staged, not yet demanded

    path = str(tmp_path / "staged.snap")
    session.snapshot(path)
    restored = Session.restore(path, "msort")
    assert not restored.engine.queue
    fresh = _fresh_on_recorded_inputs(session)
    assert restored.engine.meter.snapshot() == fresh.engine.meter.snapshot()

    session.demand()
    restored.demand()
    assert values_close(
        app.readback(restored.output), app.readback(session.output)
    )
    expected = app.reference(app.handle_data(restored.input_handle))
    assert values_close(app.readback(restored.output), expected)


def test_snapshot_preserves_handles_and_session_counters(tmp_path):
    session, app, _rng = _run_session(SCALAR_APP, 8, 0, "interp", "eager")
    cells = _bind_cells(session)
    session.edit(cells[2], 5.5)
    session.propagate()
    path = str(tmp_path / "h.snap")
    session.snapshot(path)

    restored = Session.restore(path, SCALAR_APP)
    assert set(restored.handles()) == set(session.handles())
    assert restored.get("cell:2") == 5.5
    assert restored.resolve("cell:2") is restored.input_handle.mods[2]
    assert restored.propagations == session.propagations
    # The handle registry is live, not just present: edits through it work.
    assert restored.edit("cell:2", -1.0) >= 0
    restored.propagate()
    assert restored.get("cell:2") == -1.0


def test_snapshot_requires_quiescence(tmp_path):
    from repro.persist.errors import SnapshotStateError

    session, app, _rng = _run_session(SCALAR_APP, 8, 0, "interp", "eager")
    path = str(tmp_path / "q.snap")
    with session.batch():
        session.edit(session.input_handle.mods[0], 9.0)
        with pytest.raises(SnapshotStateError):
            session.snapshot(path)
    session.propagate()
    session.snapshot(path)  # quiescent again: fine


def test_snapshot_refuses_sessions_it_cannot_describe(tmp_path):
    """A checkpoint is an app's input data plus handles naming input
    cells or the output: anything else is refused before writing."""
    path = str(tmp_path / "x.snap")
    session, _app, _rng = _run_session(SCALAR_APP, 8, 0, "interp", "eager")
    session.handle(session.output, "out")
    session.handle(session.engine.make_input(1.0), "stray")
    with pytest.raises(SnapshotStateError, match="stray"):
        session.snapshot(path)
    assert not os.path.exists(path)

    source = Session("val main : int $C -> int $C = fn x => x + 1")
    source.run(source.make_input(3))
    with pytest.raises(SnapshotStateError, match="app-backed"):
        source.snapshot(path)
    assert not os.path.exists(path)


# ----------------------------------------------------------------------
# The typed failure model


def _saved(tmp_path, name="f.snap"):
    session, app, rng = _run_session("msort", 12, 1, "interp", "eager")
    path = str(tmp_path / name)
    session.snapshot(path)
    return session, path


def test_corrupt_snapshot_raises_typed_errors(tmp_path):
    _session, path = _saved(tmp_path)
    blob = open(path, "rb").read()

    open(path, "wb").write(b"not a snapshot at all\n" + blob[22:])
    with pytest.raises(SnapshotFormatError):
        Session.restore(path, "msort")

    open(path, "wb").write(blob[: len(blob) // 2])
    with pytest.raises(SnapshotCorruptError):
        Session.restore(path, "msort")

    i = len(blob) - 100
    open(path, "wb").write(blob[:i] + bytes([blob[i] ^ 1]) + blob[i + 1 :])
    with pytest.raises(SnapshotCorruptError):
        Session.restore(path, "msort")

    open(path, "wb").write(b"")
    with pytest.raises(SnapshotFormatError):
        Session.restore(path, "msort")


def test_mismatched_snapshot_refused(tmp_path):
    session, path = _saved(tmp_path)
    # Another app's inputs are refused before anything runs.
    with pytest.raises(SnapshotMismatchError, match="'msort'.*'qsort'"):
        Session.restore(path, "qsort")
    # Another backend is no mismatch: it runs on the recorded inputs.
    app = REGISTRY["msort"]
    other = Session.restore(path, "msort", backend="stack")
    assert other.backend == "stack"
    assert values_close(
        app.readback(other.output), app.readback(session.output)
    )


def test_restore_does_not_depend_on_compile_order(tmp_path, monkeypatch):
    """A checkpoint written by a process that compiled only msort restores
    in one that compiled another app first (compilation draws fresh names
    from process-wide counters, so the compiled text differs)."""
    path = str(tmp_path / "order.snap")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import random, sys\n"
        "from repro.api import Session\n"
        "from repro.apps import REGISTRY\n"
        "app = REGISTRY['msort']\n"
        "s = Session(app, backend='stack')\n"
        "s.run(data=app.make_data(16, random.Random(2)))\n"
        "app.apply_change(s.input_handle, random.Random(3), 0)\n"
        "s.propagate()\n"
        "s.snapshot(sys.argv[1])\n"
        "print(repr(app.readback(s.output)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, path],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    saved = eval(done.stdout.strip())

    for name in ("vec-reduce", "msort"):  # compile both again, in this order
        monkeypatch.setattr(REGISTRY[name], "_cache", {})
    Session("vec-reduce")
    restored = Session.restore(path)
    app = REGISTRY["msort"]
    assert app.readback(restored.output) == saved
    assert saved == app.reference(app.handle_data(restored.input_handle))


def test_inspect_and_header_do_not_decode(tmp_path):
    session, path = _saved(tmp_path)
    info = inspect_snapshot(path)
    assert info["format"] == FORMAT_VERSION
    assert info["content"]["app"] == "msort"
    assert info["content"]["backend"] == session.backend
    assert info["counters"]["propagations"] == session.propagations
    header = read_header(path)
    assert [s["name"] for s in header["sections"]] == ["inputs"]


# ----------------------------------------------------------------------
# The write-ahead journal


def test_journal_append_replay_round_trip(tmp_path):
    path = str(tmp_path / "j.wal")
    with EditJournal(path) as journal:
        assert journal.append([("cell:0", 1.5)]) == 1
        assert journal.append([("cell:1", None), ("cell:2", [1, 2])]) == 2
    assert replay_journal(path) == [
        (1, [("cell:0", 1.5)]),
        (2, [("cell:1", None), ("cell:2", [1, 2])]),
    ]
    # Reopening resumes the sequence (no seq reuse after restart).
    with EditJournal(path) as journal:
        assert journal.append([("cell:0", 2.0)]) == 3
    assert len(replay_journal(path)) == 3


def test_journal_torn_tail_dropped_and_prefix_kept(tmp_path):
    path = str(tmp_path / "torn.wal")
    with EditJournal(path) as journal:
        for i in range(5):
            journal.append([(f"cell:{i}", float(i))])
    blob = open(path, "rb").read()

    # Crash mid-append: truncation near the end loses at most the
    # record(s) it tore, and replay keeps the contiguous prefix.
    record_len = len(blob) // 5
    for cut in (1, 7, record_len + 3):
        open(path, "wb").write(blob[: len(blob) - cut])
        records = replay_journal(path)
        assert 3 <= len(records) <= 4
        assert [s for s, _ in records] == list(range(1, len(records) + 1))

    # Corruption *before* the tail is not a torn write: typed error, and
    # the clean prefix rides on the exception for the caller to keep.
    lines = blob.splitlines(keepends=True)
    bad = lines[1]
    lines[1] = bad[:10] + bytes([bad[10] ^ 1]) + bad[11:]
    open(path, "wb").write(b"".join(lines))
    with pytest.raises(JournalCorruptError) as exc_info:
        replay_journal(path)
    assert [s for s, _ in exc_info.value.records] == [1]


def test_journal_missing_file_and_bad_values(tmp_path):
    assert replay_journal(str(tmp_path / "absent.wal")) == []
    with EditJournal(str(tmp_path / "v.wal")) as journal:
        with pytest.raises(JournalError):
            journal.append([("cell:0", object())])
        # The failed append must not burn a sequence number.
        assert journal.append([("cell:0", 1.0)]) == 1


def test_session_journals_edits_and_replay_is_idempotent(tmp_path):
    wal = str(tmp_path / "s.wal")
    session, app, _rng = _run_session(SCALAR_APP, 8, 0, "interp", "eager")
    cells = _bind_cells(session)
    session.enable_journal(wal)
    session.edit("cell:0", 4.25)
    with session.batch():
        session.edit("cell:1", 1.0)
        session.edit("cell:2", 2.0)
    session.propagate()
    assert len(replay_journal(wal)) == 3

    # Unnamed modifiables cannot be journaled (recovery could not
    # address them), and the edit is refused before it stages.
    fresh = session.engine.make_input(0.0)
    with pytest.raises(JournalError):
        session.edit(fresh, 1.0)

    # Replay over the already-final state: absolute values cut off.
    before = app.readback(session.output)
    dirtied = session.replay_journal(wal)
    assert dirtied == 3
    session.propagate()
    assert app.readback(session.output) == before


@pytest.mark.parametrize("mode", MODES)
def test_crash_recovery_loses_no_acknowledged_edit(tmp_path, mode):
    """snapshot + journal suffix == every acknowledged edit survives."""
    snap = str(tmp_path / "c.snap")
    wal = str(tmp_path / "c.wal")

    session, app, _rng = _run_session(SCALAR_APP, 10, 2, "interp", mode)
    _bind_cells(session)
    session.snapshot(snap)
    session.enable_journal(wal)
    rng = random.Random(5)
    acked = {}
    for _ in range(7):
        cell = f"cell:{rng.randrange(10)}"
        value = round(rng.uniform(-2, 2), 3)
        session.edit(cell, value)  # durable once edit() returns
        acked[cell] = value
    _settle(session)
    live_out = app.readback(session.output)
    del session  # the "crash": nothing of the live process survives

    recovered = Session.restore(snap, SCALAR_APP)
    assert recovered.replay_journal(wal) == 7
    _settle(recovered)
    assert values_close(app.readback(recovered.output), live_out)
    for cell, value in acked.items():
        assert recovered.get(cell) == value
    expected = app.reference(app.handle_data(recovered.input_handle))
    assert values_close(app.readback(recovered.output), expected)


def test_journal_fsync_off_still_replays(tmp_path):
    wal = str(tmp_path / "nf.wal")
    with EditJournal(wal, fsync=False) as journal:
        journal.append([("cell:0", 1.0)])
    assert len(replay_journal(wal)) == 1


def test_journal_reset_after_checkpoint(tmp_path):
    wal = str(tmp_path / "r.wal")
    with EditJournal(wal) as journal:
        journal.append([("cell:0", 1.0)])
        journal.reset()
        assert replay_journal(wal) == []
        assert journal.append([("cell:1", 2.0)]) == 1


def test_journal_resume_truncates_torn_tail(tmp_path):
    """Appending after a crash must not concatenate onto torn bytes:
    resume truncates back to the last clean record boundary, so records
    appended after the resume replay cleanly instead of reading as
    mid-file corruption (which would silently lose all of them)."""
    path = str(tmp_path / "resume.wal")
    with EditJournal(path) as journal:
        for i in range(3):
            journal.append([(f"cell:{i}", float(i))])
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-5])  # the crash tore record 3

    with EditJournal(path) as journal:
        assert journal.seq == 2  # the torn record was never durable
        assert journal.append([("cell:7", 7.0)]) == 3
        assert journal.append([("cell:8", 8.0)]) == 4
    records = replay_journal(path)  # must not raise JournalCorruptError
    assert [s for s, _ in records] == [1, 2, 3, 4]
    assert records[-1] == (4, [("cell:8", 8.0)])


def test_journal_resume_truncates_corrupt_tail_line(tmp_path):
    """A complete final line with a bad CRC (a torn multi-page write can
    persist its newline) is equally unusable as an append base: resume
    cuts it off so later appends stay replayable."""
    path = str(tmp_path / "resume2.wal")
    with EditJournal(path) as journal:
        for i in range(3):
            journal.append([(f"cell:{i}", float(i))])
    lines = open(path, "rb").read().splitlines(keepends=True)
    bad = lines[2]
    lines[2] = bad[:5] + bytes([bad[5] ^ 1]) + bad[6:]
    open(path, "wb").write(b"".join(lines))

    with EditJournal(path) as journal:
        assert journal.seq == 2
        assert journal.append([("cell:9", 9.0)]) == 3
    assert [s for s, _ in replay_journal(path)] == [1, 2, 3]


def test_journal_resumes_from_a_replay_without_rereading(tmp_path, monkeypatch):
    """``read_journal`` returns the replayed records plus ``(last seq,
    clean boundary)``; an appender handed that pair never reads the file
    again, and still cuts a torn tail or a corrupt suffix back to the
    boundary before appending."""
    import repro.persist.journal as journal_module

    path = str(tmp_path / "resume3.wal")
    with EditJournal(path) as journal:
        for i in range(3):
            journal.append([(f"cell:{i}", float(i))])
    lines = open(path, "rb").read().splitlines(keepends=True)

    def no_rescan(_blob):
        raise AssertionError("the appender re-read the journal")

    # Torn tail: the crash tore record 3.
    open(path, "wb").write(b"".join(lines)[:-5])
    records, resume = read_journal(path)
    assert [s for s, _ in records] == [1, 2]
    assert resume == (2, len(lines[0]) + len(lines[1]))
    monkeypatch.setattr(journal_module, "_scan", no_rescan)
    with EditJournal(path, resume=resume) as journal:
        assert journal.append([("cell:7", 7.0)]) == 3
    monkeypatch.undo()
    assert [s for s, _ in replay_journal(path)] == [1, 2, 3]

    # Corrupt prefix: the error carries the clean prefix and its boundary.
    bad = lines[1]
    lines[1] = bad[:10] + bytes([bad[10] ^ 1]) + bad[11:]
    open(path, "wb").write(b"".join(lines))
    with pytest.raises(JournalCorruptError) as exc_info:
        read_journal(path)
    assert [s for s, _ in exc_info.value.records] == [1]
    assert exc_info.value.resume == (1, len(lines[0]))
    monkeypatch.setattr(journal_module, "_scan", no_rescan)
    with EditJournal(path, resume=exc_info.value.resume) as journal:
        assert journal.append([("cell:8", 8.0)]) == 2
    monkeypatch.undo()
    assert replay_journal(path) == [(1, [("cell:0", 0.0)]), (2, [("cell:8", 8.0)])]
    assert read_journal(str(tmp_path / "absent.wal")) == ([], (0, 0))


def test_journal_corrupt_final_line_dropped_but_logged(tmp_path, caplog):
    """Replay still treats a CRC-failing final complete line as a torn
    tail (prefix-exact recovery), but the drop is surfaced: it may be
    corruption of an acknowledged record, not a torn write."""
    path = str(tmp_path / "tail.wal")
    with EditJournal(path) as journal:
        for i in range(3):
            journal.append([(f"cell:{i}", float(i))])
    lines = open(path, "rb").read().splitlines(keepends=True)
    bad = lines[2]
    lines[2] = bad[:5] + bytes([bad[5] ^ 1]) + bad[6:]
    open(path, "wb").write(b"".join(lines))

    with caplog.at_level(logging.WARNING, logger="repro.persist.journal"):
        records = replay_journal(path)
    assert [s for s, _ in records] == [1, 2]
    assert any("failed its CRC" in r.message for r in caplog.records)


def test_session_edit_rolls_back_when_journal_write_fails(tmp_path):
    """An edit whose durable append fails is undone before the error
    surfaces: the caller was told the edit failed, so neither reads nor
    a later checkpoint may include its value."""
    wal = str(tmp_path / "fail.wal")
    session, app, _rng = _run_session(SCALAR_APP, 8, 0, "interp", "eager")
    _bind_cells(session)
    journal = session.enable_journal(wal)
    session.edit("cell:0", 4.25)
    before = session.get("cell:1")

    def boom(record):
        raise OSError("disk full")

    journal.commit = boom
    with pytest.raises(OSError):
        session.edit("cell:1", before + 9.0)
    del journal.commit  # back to the real method

    assert session.get("cell:1") == before
    assert len(replay_journal(wal)) == 1  # only the acknowledged edit
    session.propagate()
    expected = app.reference(app.handle_data(session.input_handle))
    assert values_close(app.readback(session.output), expected)


# ----------------------------------------------------------------------
# Raytracer: the deep-trace app with non-list inputs round-trips too


@pytest.mark.parametrize("backend", BACKENDS)
def test_raytracer_snapshot_round_trip(tmp_path, backend):
    session, app, rng = _run_session("raytracer", 6, 1, backend, "eager")
    app.apply_change(session.input_handle, rng, 0)
    session.propagate()
    path = str(tmp_path / "rt.snap")
    session.snapshot(path)
    restored = Session.restore(path, "raytracer")
    fresh = _fresh_on_recorded_inputs(session)
    assert restored.engine.meter.snapshot() == fresh.engine.meter.snapshot()
    assert values_close(
        app.readback(restored.output), app.readback(session.output)
    )
    app.apply_change(session.input_handle, rng, 1)
    app.apply_change(restored.input_handle, random.Random(1), 1)
    # Drive the restored copy with an identical change: same rng state is
    # not reproducible here, so instead compare against the reference.
    session.propagate()
    restored.propagate()
    assert values_close(
        app.readback(restored.output),
        app.reference(app.handle_data(restored.input_handle)),
    )


# ----------------------------------------------------------------------
# PersistError taxonomy sanity


def test_all_persist_errors_are_persist_errors():
    for exc in (
        SnapshotCorruptError,
        SnapshotFormatError,
        SnapshotMismatchError,
        JournalError,
        JournalCorruptError,
    ):
        assert issubclass(exc, PersistError)
