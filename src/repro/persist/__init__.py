"""Durability for self-adjusting sessions (DESIGN.md Section 10).

Two layers, separable and composable:

* :mod:`repro.persist.snapshot` -- versioned, CRC'd checkpoint files that
  record a session's input data (not its trace), plus
  ``save_session``/``load_session``: a restore is a from-scratch run on
  the recorded inputs;
* :mod:`repro.persist.journal` -- the fsync'd write-ahead edit journal,
  one record per acknowledged request; ``load_session(path,
  journal=read_journal(wal)[0])`` reopens a checkpoint with it, so
  acknowledged edits survive ``SIGKILL``.

The server's checkpointing (``SessionPool(checkpoint_dir=...)``) and the
``python -m repro snapshot`` CLI are thin drivers over these.
"""

from repro.persist.errors import (
    CodecError,
    JournalCorruptError,
    JournalError,
    PersistError,
    SnapshotCorruptError,
    SnapshotFormatError,
    SnapshotMismatchError,
    SnapshotStateError,
)
from repro.persist.journal import EditJournal, read_journal
from repro.persist.snapshot import (
    FORMAT_VERSION,
    inspect_snapshot,
    load_session,
    read_header,
    read_inputs,
    read_snapshot,
    save_session,
    write_snapshot,
)

__all__ = [
    "PersistError",
    "CodecError",
    "SnapshotStateError",
    "SnapshotFormatError",
    "SnapshotCorruptError",
    "SnapshotMismatchError",
    "JournalError",
    "JournalCorruptError",
    "EditJournal",
    "read_journal",
    "save_session",
    "load_session",
    "inspect_snapshot",
    "read_header",
    "read_inputs",
    "read_snapshot",
    "write_snapshot",
    "FORMAT_VERSION",
]
