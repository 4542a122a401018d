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
from repro.sac.exceptions import EnginePoisonedError
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
    load_session,
    read_journal,
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
    assert read_journal(path)[0] == [
        (1, [("cell:0", 1.5)]),
        (2, [("cell:1", None), ("cell:2", [1, 2])]),
    ]
    # Reopening resumes the sequence (no seq reuse after restart).
    with EditJournal(path) as journal:
        assert journal.append([("cell:0", 2.0)]) == 3
    assert len(read_journal(path)[0]) == 3


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
        records = read_journal(path)[0]
        assert 3 <= len(records) <= 4
        assert [s for s, _ in records] == list(range(1, len(records) + 1))

    # Corruption *before* the tail is not a torn write: typed error, and
    # the clean prefix rides on the exception for the caller to keep.
    lines = blob.splitlines(keepends=True)
    bad = lines[1]
    lines[1] = bad[:10] + bytes([bad[10] ^ 1]) + bad[11:]
    open(path, "wb").write(b"".join(lines))
    with pytest.raises(JournalCorruptError) as exc_info:
        read_journal(path)[0]
    assert [s for s, _ in exc_info.value.records] == [1]


def test_journal_missing_file_and_bad_values(tmp_path):
    assert read_journal(str(tmp_path / "absent.wal"))[0] == []
    with EditJournal(str(tmp_path / "v.wal")) as journal:
        with pytest.raises(JournalError):
            journal.append([("cell:0", object())])
        # The failed append must not burn a sequence number.
        assert journal.append([("cell:0", 1.0)]) == 1


def test_session_journals_edits_and_replay_is_idempotent(tmp_path):
    """One record per request: an edit, then a two-edit batch, append two
    records.  Reopening a checkpoint that already absorbed them with the
    journal changes nothing: records carry absolute values."""
    wal = str(tmp_path / "s.wal")
    session, app, _rng = _run_session(SCALAR_APP, 8, 0, "interp", "eager")
    cells = _bind_cells(session)
    session.enable_journal(wal)
    session.edit("cell:0", 4.25)
    with session.batch():
        session.edit("cell:1", 1.0)
        session.edit("cell:2", 2.0)
    session.propagate()
    records = read_journal(wal)[0]
    assert records == [
        (1, [("cell:0", 4.25)]),
        (2, [("cell:1", 1.0), ("cell:2", 2.0)]),
    ]

    # Unnamed modifiables cannot be journaled (recovery could not
    # address them), and the edit is refused before it stages.
    fresh = session.engine.make_input(0.0)
    with pytest.raises(JournalError):
        session.edit(fresh, 1.0)

    snap = str(tmp_path / "s.snap")
    session.snapshot(snap)
    reopened = load_session(snap, journal=records)
    data = app.handle_data(session.input_handle)
    assert app.handle_data(reopened.input_handle) == data
    assert app.readback(reopened.output) == app.readback(session.output)


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

    records = read_journal(wal)[0]
    assert len(records) == 7
    recovered = load_session(snap, SCALAR_APP, journal=records)
    _settle(recovered)
    assert values_close(app.readback(recovered.output), live_out)
    for cell, value in acked.items():
        assert recovered.get(cell) == value
    expected = app.reference(app.handle_data(recovered.input_handle))
    assert values_close(app.readback(recovered.output), expected)


def test_load_session_applies_a_journal_suffix_before_its_one_run(tmp_path):
    """``load_session(journal=...)`` sets the suffix in the unrun cells:
    the session equals a fresh run on the edited inputs, meters included.
    A suffix naming a handle the checkpoint lacks does not extend it and
    is refused before anything runs."""
    snap = str(tmp_path / "j.snap")
    session, app, _rng = _run_session(SCALAR_APP, 6, 1, "stack", "eager")
    _bind_cells(session)
    session.snapshot(snap)
    suffix = [(1, [("cell:1", 9.5)]), (2, [("cell:4", -1.25), ("cell:1", 2.0)])]

    loaded = load_session(snap, journal=suffix, mode="lazy")
    data = app.handle_data(session.input_handle)
    data[1], data[4] = 2.0, -1.25
    fresh = Session(app, backend="stack", mode="lazy")
    fresh.run(data=data)
    assert loaded.mode == "lazy"
    assert app.handle_data(loaded.input_handle) == data
    assert loaded.engine.meter.snapshot() == fresh.engine.meter.snapshot()
    assert values_close(app.readback(loaded.output), app.reference(data))
    assert loaded.get("cell:4") == -1.25

    with pytest.raises(JournalError, match="'cell:9'"):
        load_session(snap, journal=[(1, [("cell:9", 1.0)])])


def test_journal_fsync_off_still_replays(tmp_path):
    wal = str(tmp_path / "nf.wal")
    with EditJournal(wal, fsync=False) as journal:
        journal.append([("cell:0", 1.0)])
    assert len(read_journal(wal)[0]) == 1


def test_journal_reset_after_checkpoint(tmp_path):
    wal = str(tmp_path / "r.wal")
    with EditJournal(wal) as journal:
        journal.append([("cell:0", 1.0)])
        journal.reset()
        assert read_journal(wal)[0] == []
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
    records = read_journal(path)[0]  # must not raise JournalCorruptError
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
    assert [s for s, _ in read_journal(path)[0]] == [1, 2, 3]


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
    assert [s for s, _ in read_journal(path)[0]] == [1, 2, 3]

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
    assert read_journal(path)[0] == [(1, [("cell:0", 0.0)]), (2, [("cell:8", 8.0)])]
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
        records = read_journal(path)[0]
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
    assert len(read_journal(wal)[0]) == 1  # only the acknowledged edit
    session.propagate()
    expected = app.reference(app.handle_data(session.input_handle))
    assert values_close(app.readback(session.output), expected)


def test_refused_journaled_edit_is_undone_when_it_dirtied_nothing(tmp_path):
    """A second edit of a lazy cell before any demand dirties no reads
    (its readers are dirty already), yet it changes the cell.  If its
    durable append fails, it is undone all the same: neither reads nor a
    later checkpoint may include the refused value."""
    app = REGISTRY[SCALAR_APP]
    session = Session(app, mode="lazy")
    session.run(data=[1.0, 2.0, 3.0, 4.0])
    _bind_cells(session)
    wal = str(tmp_path / "lazy.wal")
    journal = session.enable_journal(wal)
    assert session.edit("cell:1", 10.0) > 0

    def boom(record):
        raise OSError("disk full")

    journal.commit = boom
    with pytest.raises(OSError):
        session.edit("cell:1", 99.0)
    del journal.commit

    assert session.resolve("cell:1").value == 10.0
    assert not session.engine.poisoned
    assert read_journal(wal)[0] == [(1, [("cell:1", 10.0)])]
    session.demand()
    assert values_close(app.readback(session.output), 18.0)


def test_failed_undo_of_refused_journaled_edit_poisons(tmp_path):
    """When undoing a refused journaled edit itself raises, the cell may
    still hold the refused value, so the engine is poisoned (naming the
    cell) and refuses further work; the journal failure stays the error
    the caller sees."""
    app = REGISTRY[SCALAR_APP]
    session = Session(app, mode="lazy")
    session.run(data=[1.0, 2.0, 3.0, 4.0])
    _bind_cells(session)
    journal = session.enable_journal(str(tmp_path / "undo.wal"))
    real_change = session.engine.change
    calls = []

    def change_once(mod, value):
        calls.append(value)
        if len(calls) > 1:
            raise RuntimeError("undo failed")
        return real_change(mod, value)

    def boom(record):
        raise OSError("disk full")

    session.engine.change = change_once
    journal.commit = boom
    with pytest.raises(OSError):
        session.edit("cell:2", 50.0)
    assert calls == [50.0, 3.0]
    with pytest.raises(EnginePoisonedError, match="'cell:2'"):
        session.demand()


def test_journaled_edit_whose_staging_raises_is_undone(tmp_path):
    """An edit whose staging raises after the cell took the value (here
    a faulting change hook) is never journaled, so it is undone like one
    whose journal commit fails: the cell keeps the journaled state."""
    from repro.obs.faults import FaultInjector, PlantedFault

    app = REGISTRY[SCALAR_APP]
    session = Session(app, mode="lazy")
    session.run(data=[1.0, 2.0, 3.0, 4.0])
    _bind_cells(session)
    session.enable_journal(str(tmp_path / "stage.wal"))
    session.engine.attach_hook(FaultInjector("change", at=0, during="run"))
    with pytest.raises(PlantedFault):
        session.edit("cell:2", 50.0)
    assert session.input_handle.mods[2].value == 3.0
    assert read_journal(str(tmp_path / "stage.wal"))[0] == []
    assert values_close(app.readback(session.rebuild()), 10.0)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_undo_of_refused_journaled_edit_keeps_the_old_value(
    tmp_path, backend, mode
):
    """A failed undo still leaves the refused edit's old value in the
    cell, so the cells agree with the journal: a rebuild (which reads
    them) serves the oracle output without the refused value."""
    app = REGISTRY[SCALAR_APP]
    session = Session(app, backend=backend, mode=mode)
    session.run(data=[1.0, 2.0, 3.0, 4.0])
    _bind_cells(session)
    journal = session.enable_journal(str(tmp_path / "undo.wal"))
    session.edit("cell:1", 10.0)
    real_change = session.engine.change

    def change_then_fail_undo(mod, value):
        if value == 4.0:
            raise RuntimeError("undo failed")
        return real_change(mod, value)

    def boom(record):
        raise OSError("disk full")

    session.engine.change = change_then_fail_undo
    journal.commit = boom
    with pytest.raises(OSError):
        session.edit("cell:3", 40.0)
    assert session.engine.poisoned
    expected = app.reference([1.0, 10.0, 3.0, 4.0])
    assert values_close(app.readback(session.rebuild()), expected)
    _bind_cells(session)
    assert session.get("cell:3") == 4.0
    assert read_journal(str(tmp_path / "undo.wal"))[0] == [
        (1, [("cell:1", 10.0)])
    ]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("refusal", ["commit", "non-json", "body", "same-cell"])
def test_refused_journaled_batch_is_all_or_nothing(
    tmp_path, backend, mode, refusal
):
    """A journaled batch is one record: when its commit fails, one of its
    values cannot be journaled, or its body raises, every edit it staged
    is undone (newest first, so a cell edited twice gets its pre-batch
    value) and nothing of it reaches the journal.  The next batch
    appends exactly one record."""
    app = REGISTRY[SCALAR_APP]
    data = [1.0, 2.0, 3.0, 4.0]
    session = Session(app, backend=backend, mode=mode)
    session.run(data=list(data))
    _bind_cells(session)
    wal = str(tmp_path / "batch.wal")
    journal = session.enable_journal(wal)
    session.edit("cell:3", 40.0)  # acknowledged before the batch
    data[3] = 40.0
    real_commit = journal.commit

    def commit_fails_on_cell_1(record):
        if b'"cell:1"' in record:
            raise OSError("disk full")
        return real_commit(record)

    journal.commit = commit_fails_on_cell_1
    with pytest.raises((OSError, JournalError, RuntimeError)):
        with session.batch():
            session.edit("cell:0", 10.0)
            if refusal == "same-cell":
                session.edit("cell:0", 11.0)
            if refusal == "non-json":
                session.edit("cell:1", object())
            elif refusal == "body":
                raise RuntimeError("the client went away")
            else:
                session.edit("cell:1", 20.0)
    del journal.commit

    assert not session.engine.poisoned
    assert [mod.value for mod in session.input_handle.mods] == data
    _settle(session)
    assert values_close(app.readback(session.output), app.reference(data))
    assert read_journal(wal)[0] == [(1, [("cell:3", 40.0)])]

    with session.batch():
        session.edit("cell:0", 5.0)
        session.edit("cell:2", 6.0)
    data[0], data[2] = 5.0, 6.0
    assert read_journal(wal)[0][1:] == [(2, [("cell:0", 5.0), ("cell:2", 6.0)])]
    _settle(session)
    assert values_close(app.readback(session.output), app.reference(data))


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
