"""Typed failures of the durability subsystem.

The distinctions matter operationally: a :class:`SnapshotCorruptError`
(torn write, flipped bit, truncated section) means the recorded inputs
are lost, a :class:`SnapshotMismatchError` (a checkpoint of a *different*
app, or of a backend this build lacks) means they belong elsewhere, a
:class:`SnapshotStateError` is a caller bug (checkpointing mid-propagation,
or a session a checkpoint cannot describe) and a :class:`CodecError` means
the input data held something ``marshal`` cannot write.  The server's
recovery ladder catches :class:`PersistError` -- the common base -- and
never lets any of them poison the pool.
"""

from __future__ import annotations

__all__ = [
    "PersistError",
    "CodecError",
    "SnapshotStateError",
    "SnapshotFormatError",
    "SnapshotCorruptError",
    "SnapshotMismatchError",
    "JournalError",
    "JournalCorruptError",
]


class PersistError(Exception):
    """Base class for all durability failures."""


class CodecError(PersistError):
    """The session's input data contains a value ``marshal`` cannot
    write."""


class SnapshotStateError(PersistError):
    """Snapshot requested from a non-quiescent engine (mid-propagation,
    inside a batch/mod scope, or poisoned), from a session without an
    app's input data, or with a handle naming a modifiable that is neither
    an input cell nor the output."""


class SnapshotFormatError(PersistError):
    """Not a snapshot file at all (bad magic), or an unknown format
    version."""


class SnapshotCorruptError(PersistError):
    """A snapshot failed an integrity check: truncated file, header or
    section CRC mismatch, or inputs that do not unmarshal."""


class SnapshotMismatchError(PersistError):
    """A structurally valid snapshot that does not fit the restorer: it
    records another app's inputs, or names a backend this build lacks."""


class JournalError(PersistError):
    """Base class for edit-journal failures."""


class JournalCorruptError(JournalError):
    """A journal record failed its CRC somewhere *before* the tail.  (A
    torn final record is the normal signature of a crash and is silently
    dropped; corruption earlier in the file is reported.)"""
