"""Write-ahead edit journal: fsync'd, CRC'd, replayable.

One JSON record per acknowledged request -- a single edit or a whole
edit batch -- per line, each carrying its own CRC32::

    {"seq": 17, "edits": [["cell:3", 2.5], ["cell:9", 0.0]]}\\t<crc32 hex>\\n

A request is *durable* -- and may be acknowledged to a client -- once
:meth:`EditJournal.commit` returns: the record is written, flushed, and
(by default) fsync'd first.  Recovery is one reader: :func:`read_journal`
parses the suffix and :func:`repro.persist.load_session` sets it in the
last checkpoint's input cells before its one run.  Because records carry
absolute cell values (not deltas), records the checkpoint already
absorbed re-apply as no-ops, so the checkpoint-then-truncate sequence
needs no cross-file atomicity.

A torn final record is the normal signature of a crash mid-append and is
dropped (with a log line when it parses as a complete line, since that
can also be corruption of an acknowledged record).  A CRC failure
*before* the tail is real corruption: replay stops there and reports it
(:class:`JournalCorruptError` carries the records recovered so far),
letting the caller keep the prefix or degrade to a cold rebuild.

Resuming an existing journal first truncates it back to the end of its
last clean record: appending after torn crash bytes would otherwise
merge the new record into one CRC-failing line, turning a recoverable
tail into what replay must treat as mid-file corruption -- silently
losing every record written after the resume.  A caller that has just
replayed the file hands the appender :func:`read_journal`'s ``resume``
pair, so the file is read once per reopen.
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from typing import Any, List, Optional, Tuple

from repro.persist.errors import JournalCorruptError, JournalError

__all__ = ["EditJournal", "read_journal"]

log = logging.getLogger("repro.persist.journal")


class EditJournal:
    """Appender for one document's write-ahead journal.

    ``resume`` is :func:`read_journal`'s ``(last seq, clean boundary)``
    for this file; without it, an existing file is scanned for them.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = True,
        resume: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.appended = 0
        self._f = open(path, "ab")
        size = os.fstat(self._f.fileno()).st_size
        if resume is None:
            records, keep, _bad = _scan(_read(path) if size else b"")
            resume = (_last_seq(records), keep)
        # Resuming an existing journal: continue the sequence, and cut
        # the file back to the last clean record boundary so the next
        # append starts a fresh line (see the module docstring).
        self.seq, keep = resume
        if keep != size:
            log.warning(
                "journal %r: resuming past a torn/corrupt tail; "
                "truncating %d byte(s) back to the last clean record "
                "boundary (after seq %d)",
                path,
                size - keep,
                self.seq,
            )
            self._f.truncate(keep)
            if self.fsync:
                os.fsync(self._f.fileno())

    def encode(self, edits: List[Tuple[str, Any]]) -> bytes:
        """Serialize one edit batch to a complete journal record.

        Splitting :meth:`append` into encode + :meth:`commit` lets a
        caller validate serializability *before* mutating its own state:
        encode raises :class:`JournalError` on a non-JSON value with
        nothing written and no sequence number consumed.  The record is
        built for the *next* sequence number -- commit (or discard) it
        before encoding another.
        """
        if self._f is None:
            raise JournalError("journal is closed")
        try:
            body = json.dumps(
                {"seq": self.seq + 1, "edits": [[h, v] for h, v in edits]},
                separators=(",", ":"),
            )
        except (TypeError, ValueError) as exc:
            raise JournalError(
                f"journal requires JSON-representable edit values: {exc}"
            ) from exc
        return f"{body}\t{zlib.crc32(body.encode()):08x}\n".encode()

    def commit(self, record: bytes) -> int:
        """Durably write a record from :meth:`encode`; returns its seq.

        On an I/O failure any torn bytes of this record are truncated
        away (best effort) so the next append still starts on a clean
        record boundary, and the sequence number is not consumed.
        """
        if self._f is None:
            raise JournalError("journal is closed")
        start = os.fstat(self._f.fileno()).st_size
        try:
            self._f.write(record)
            self._f.flush()
            if self.fsync:
                os.fsync(self._f.fileno())
        except OSError:
            try:
                self._f.truncate(start)
            except OSError:
                pass  # the write failure is the primary error
            raise
        self.seq += 1
        self.appended += 1
        return self.seq

    def append(self, edits: List[Tuple[str, Any]]) -> int:
        """Durably record one edit batch; returns its sequence number.

        ``edits`` is a list of ``(handle, value)`` pairs with
        JSON-representable values -- the same constraint the server
        protocol already imposes on cell values.
        """
        return self.commit(self.encode(edits))

    def reset(self) -> None:
        """Truncate to empty (after a successful snapshot absorbed it)."""
        if self._f is None:
            raise JournalError("journal is closed")
        self._f.truncate(0)
        self._f.seek(0)
        self._f.flush()
        if self.fsync:
            os.fsync(self._f.fileno())
        self.seq = 0

    def close(self) -> None:
        if self._f is not None:
            self._f.close()
            self._f = None

    def __enter__(self) -> "EditJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_journal(
    path: str,
) -> Tuple[List[Tuple[int, List[Tuple[str, Any]]]], Tuple[int, int]]:
    """Parse a journal; return ``(records, resume)``.

    ``records`` is ``[(seq, [(handle, value), ...]), ...]``, what
    :func:`repro.persist.load_session` takes as ``journal=``.  Missing
    file -> no records.  A torn tail (trailing bytes with no newline) ->
    dropped silently.  A complete final line that fails its CRC is also
    dropped -- a torn multi-page write can persist the trailing newline
    without the middle -- but logged, because it may instead be
    corruption of an acknowledged record.  CRC or parse failure *before*
    the tail -> :class:`JournalCorruptError`.

    ``resume`` is ``(last seq, clean boundary)``, the byte offset just
    past the last clean record.  Pass it as ``EditJournal(path,
    resume=resume)`` to resume the journal without reading it again.  A
    :class:`JournalCorruptError` carries both, as ``exc.records`` (the
    clean prefix) and ``exc.resume``.
    """
    try:
        blob = _read(path)
    except FileNotFoundError:
        return [], (0, 0)
    records, keep, bad = _scan(blob)
    resume = (_last_seq(records), keep)
    if bad is not None:
        line_no, at_tail = bad
        if not at_tail:
            exc = JournalCorruptError(
                f"journal record at line {line_no} failed its CRC/parse "
                f"check in {path!r}"
            )
            exc.records = records
            exc.resume = resume
            raise exc
        log.warning(
            "journal %r: final record (line %d) failed its CRC check and "
            "was dropped; this is the torn-tail crash signature, but it "
            "may be corruption of an acknowledged record",
            path,
            line_no,
        )
    return records, resume


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _last_seq(records: List[Tuple[int, List[Tuple[str, Any]]]]) -> int:
    return max((s for s, _e in records), default=0)


def _scan(
    blob: bytes,
) -> Tuple[
    List[Tuple[int, List[Tuple[str, Any]]]], int, Optional[Tuple[int, bool]]
]:
    """Walk a journal's bytes; return ``(records, keep, bad)``.

    ``records`` is the parsed clean prefix; ``keep`` is the byte offset
    just past its last record -- the clean boundary a resuming appender
    must truncate back to; ``bad`` is ``None`` for a clean file or
    ``(line_no, at_tail)`` for the first complete line failing its
    CRC/parse check (``at_tail``: no later newline exists, i.e. it is
    the file's final complete line).
    """
    records: List[Tuple[int, List[Tuple[str, Any]]]] = []
    pos = keep = line_no = 0
    bad: Optional[Tuple[int, bool]] = None
    while pos < len(blob):
        nl = blob.find(b"\n", pos)
        if nl < 0:
            break  # torn tail: trailing bytes without a newline
        line = blob[pos:nl]
        line_no += 1
        if line:
            parsed = _parse_record(line)
            if parsed is None:
                bad = (line_no, blob.find(b"\n", nl + 1) < 0)
                break
            records.append(parsed)
        keep = pos = nl + 1
    return records, keep, bad


def _parse_record(line: bytes) -> Optional[Tuple[int, List[Tuple[str, Any]]]]:
    tab = line.rfind(b"\t")
    if tab < 0:
        return None
    body, crc_hex = line[:tab], line[tab + 1 :]
    try:
        if zlib.crc32(body) != int(crc_hex, 16):
            return None
        obj = json.loads(body)
        return int(obj["seq"]), [(str(h), v) for h, v in obj["edits"]]
    except (ValueError, KeyError, TypeError):
        return None
