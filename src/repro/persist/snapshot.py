"""Versioned, content-addressed snapshot files.

Layout (all after a fixed magic line)::

    #repro-snapshot 1\\n
    {json header}\\n          <- format/python versions, content address,
                                 section table (name, length, CRC32), meta
    <section bytes...>        <- concatenated, in section-table order

The ``objects`` section is the :mod:`marshal`-serialized flat object
table produced by :mod:`repro.persist.codec`.  Before it, an app session's
snapshot carries a small ``inputs`` section: the marshalled plain input
data (``app.handle_data``).  A reader that cannot restore the trace can
still rebuild the session from it, and because a torn or truncated tail
hits the end of the file, the damage that ruins ``objects`` usually spares
``inputs``.  Every section carries a CRC32; a torn tail, flipped bit, or
truncated header fails closed with :class:`SnapshotCorruptError` before
any object is rebuilt.

The **content address** keys a snapshot to what produced it: the SHA-256
of the compiled (translated) SXML text and compiler options, the backend,
the propagation mode, and a digest of the marshalled input values.  A
restorer recomputes the program key from its own compilation and refuses
mismatches (:class:`SnapshotMismatchError`) -- restoring a raytracer trace
into an msort session, or an eager trace into a lazy engine, is detected
before decode.  The input digest is re-derived from the *decoded* graph as
an end-to-end integrity check behind the CRCs.

Snapshots are written atomically (temp file + fsync + rename) so a crash
mid-checkpoint leaves the previous snapshot intact.  They are a trusted
format: CRCs detect corruption, not tampering (``marshal`` is not designed
to reject adversarial bytecode) -- keep checkpoint directories as private
as the process state they mirror.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import sys
import time
import zlib
from typing import Any, Collection, Dict, Optional, Tuple

from repro.persist.codec import CODEC_VERSION, decode_graph, encode_graph
from repro.persist.errors import (
    SnapshotCorruptError,
    SnapshotFormatError,
    SnapshotMismatchError,
)
from repro.sac.modifiable import Modifiable

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "program_key",
    "input_digest",
    "write_snapshot",
    "read_snapshot",
    "read_header",
    "save_session",
    "load_session",
    "inspect_snapshot",
]

FORMAT_VERSION = 2
MAGIC = b"#repro-snapshot 1\n"

_PYTHON = "%d.%d" % sys.version_info[:2]


# ----------------------------------------------------------------------
# Content address


def program_key(program: Any, backend: str, mode: str) -> str:
    """SHA-256 content address of (compiled SXML, options, backend, mode)."""
    h = hashlib.sha256()
    h.update(program.dump_translated().encode())
    h.update(b"\x00")
    h.update(repr(program.options).encode())
    h.update(b"\x00")
    h.update(backend.encode())
    h.update(b"\x00")
    h.update(mode.encode())
    return h.hexdigest()


def input_digest(value: Any) -> str:
    """Deterministic digest of a runtime input value.

    Iterative (no recursion: inputs can be spine-deep lists) and
    sharing-aware: revisited objects hash as backreferences, so the digest
    of a decoded graph matches the original's iff the decoded topology
    does.  Computed at save over the session input and recomputed after
    decode as the end-to-end check behind the per-section CRCs.
    """
    from repro.interp.values import ConValue, RefCell

    h = hashlib.sha256()
    upd = h.update
    seen: Dict[int, int] = {}
    stack = [value]
    while stack:
        v = stack.pop()
        if v is None:
            upd(b"N")
            continue
        t = type(v)
        if t is bool or t is int or t is float or t is str:
            upd(repr(v).encode())
            upd(b";")
            continue
        if t is bytes:
            upd(b"B")
            upd(v)
            continue
        vid = id(v)
        idx = seen.get(vid)
        if idx is not None:
            upd(b"@%d" % idx)
            continue
        seen[vid] = len(seen)
        if t is tuple or t is list:
            upd(b"T%d;" % len(v))
            stack.extend(reversed(v))
        elif t is Modifiable:
            if v.written:
                upd(b"M")
                stack.append(v.value)
            else:
                upd(b"MU")
        elif t is ConValue:
            upd(b"C")
            upd(v.tag.encode())
            upd(b";")
            stack.append(v.arg)
        elif t is RefCell:
            upd(b"R")
            stack.append(v.value)
        elif t is dict:
            upd(b"D%d;" % len(v))
            for k, x in reversed(list(v.items())):
                stack.append(x)
                stack.append(k)
        else:
            upd(b"?")
            upd(type(v).__qualname__.encode())
            upd(b";")
    return h.hexdigest()


# ----------------------------------------------------------------------
# File I/O


def write_snapshot(path: str, header: dict, sections: Dict[str, bytes]) -> None:
    """Atomically write a snapshot file (temp + fsync + rename)."""
    table = []
    for name, data in sections.items():
        table.append({"name": name, "len": len(data), "crc": zlib.crc32(data)})
    header = dict(header)
    header["sections"] = table
    header_line = json.dumps(header, separators=(",", ":")).encode() + b"\n"
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(header_line)
        for _name, data in sections.items():
            f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


def _fsync_dir(dirname: str) -> None:
    try:
        fd = os.open(dirname, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _parse_header(blob: bytes) -> Tuple[dict, int]:
    if not blob.startswith(MAGIC):
        raise SnapshotFormatError("not a repro snapshot (bad magic)")
    end = blob.find(b"\n", len(MAGIC))
    if end < 0:
        raise SnapshotCorruptError("truncated snapshot: no header line")
    try:
        header = json.loads(blob[len(MAGIC) : end])
    except ValueError as exc:
        raise SnapshotCorruptError(f"corrupt snapshot header: {exc}") from exc
    if header.get("format") != FORMAT_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot format {header.get('format')!r}"
        )
    return header, end + 1


def read_header(path: str) -> dict:
    """Parse and validate only the header (cheap inspection)."""
    with open(path, "rb") as f:
        blob = f.read(1 << 20)
    header, _offset = _parse_header(blob)
    return header


def read_snapshot(
    path: str, names: Optional[Collection[str]] = None
) -> Tuple[dict, Dict[str, bytes]]:
    """Read and CRC-verify a snapshot; returns (header, sections).

    With ``names``, only those sections are read and verified (damage
    elsewhere in the file is not looked at); a named section the file
    does not have is simply absent from the result.
    """
    with open(path, "rb") as f:
        blob = f.read()
    header, offset = _parse_header(blob)
    sections: Dict[str, bytes] = {}
    for entry in header.get("sections", []):
        name, length, crc = entry["name"], entry["len"], entry["crc"]
        if names is not None and name not in names:
            offset += length
            continue
        data = blob[offset : offset + length]
        if len(data) != length:
            raise SnapshotCorruptError(
                f"truncated snapshot: section {name!r} is {len(data)} of "
                f"{length} bytes"
            )
        if zlib.crc32(data) != crc:
            raise SnapshotCorruptError(f"section {name!r} failed its CRC check")
        sections[name] = data
        offset += length
    return header, sections


# ----------------------------------------------------------------------
# Session-level save / load


def save_session(session: Any, path: str) -> dict:
    """Snapshot a quiescent :class:`repro.api.Session` to ``path``.

    Returns the written header.  The session itself is untouched (same
    engine, same trace); staged-but-unpropagated lazy state round-trips.
    """
    engine = session.engine
    engine.snapshot_precondition()
    root = {
        "engine": engine,
        "instance": session.instance,
        "input_handle": session.input_handle,
        "input_value": session.input_value,
        "output": session.output,
        "handles": session._handles,
        "handle_seq": session._handle_seq,
        "propagations": session.propagations,
        "demands": session.demands,
        "rebuilds": session.rebuilds,
    }
    doc = encode_graph(root)
    sections: Dict[str, bytes] = {}
    if session.app is not None:
        try:
            sections["inputs"] = marshal.dumps(
                session.app.handle_data(session.input_handle)
            )
        except ValueError:
            pass  # input data holds objects marshal cannot write
    sections["objects"] = marshal.dumps(doc)
    header = {
        "format": FORMAT_VERSION,
        "codec": CODEC_VERSION,
        "python": _PYTHON,
        "created": time.time(),
        "content": {
            "program_key": program_key(session.program, session.backend, session.mode),
            "backend": session.backend,
            "mode": session.mode,
            "app": session.app.name if session.app is not None else None,
            "input_digest": input_digest(session.input_value),
        },
        "meta": {
            "stamps": engine.order.n_live,
            "live_edges": engine.meter.live_edges,
            "live_memo_entries": engine.meter.live_memo_entries,
            "queued": len(engine.queue),
            "objects": len(doc["kinds"]),
        },
    }
    write_snapshot(path, header, sections)
    return header


def load_session(
    path: str,
    app: Any = None,
    *,
    backend: Optional[str] = None,
    hook: Any = None,
    verify_digest: bool = True,
) -> Any:
    """Restore a :class:`repro.api.Session` from ``path``.

    ``app`` may be an app name, an :class:`repro.apps.base.App`, LML
    source, or a compiled program; when omitted, the app named in the
    snapshot header is looked up in the registry.  The restorer
    *recompiles* the program and checks the snapshot's content address
    against its own -- a snapshot of different code, backend, mode, or
    Python never decodes.
    """
    from repro.api import Session
    from repro.backends import BACKENDS

    header, sections = read_snapshot(path)
    content = header["content"]
    if header.get("python") != _PYTHON:
        raise SnapshotMismatchError(
            f"snapshot was written by Python {header.get('python')}, "
            f"this is {_PYTHON} (marshal bytecode is version-specific)"
        )
    if header.get("codec") != CODEC_VERSION:
        raise SnapshotMismatchError(
            f"snapshot codec {header.get('codec')!r} != {CODEC_VERSION}"
        )
    if content["backend"] not in BACKENDS:
        raise SnapshotMismatchError(
            f"snapshot was written by backend {content['backend']!r}, "
            f"which this build does not have (expected one of {BACKENDS})"
        )
    if app is None:
        app = content.get("app")
        if app is None:
            raise SnapshotMismatchError(
                "snapshot names no registered app; pass app=/program explicitly"
            )
    session = Session(
        app,
        backend=backend if backend is not None else content["backend"],
        mode=content["mode"],
        hook=hook,
    )
    expected = program_key(session.program, session.backend, session.mode)
    if expected != content["program_key"]:
        raise SnapshotMismatchError(
            "content address mismatch: snapshot "
            f"{content['program_key'][:12]}.. vs live {expected[:12]}.. "
            "(different program, options, backend, or mode)"
        )
    try:
        doc = marshal.loads(sections["objects"])
    except (ValueError, EOFError, TypeError, KeyError) as exc:
        raise SnapshotCorruptError(f"object table failed to unmarshal: {exc}") from exc
    root = decode_graph(doc)
    if verify_digest:
        digest = input_digest(root["input_value"])
        if digest != content["input_digest"]:
            raise SnapshotCorruptError(
                "restored input digest does not match the snapshot's "
                "content address"
            )
    engine = root["engine"]
    session.engine = engine
    session.mode = engine.mode
    session.instance = root["instance"]
    session.input_handle = root["input_handle"]
    session.input_value = root["input_value"]
    session.output = root["output"]
    session._handles = root["handles"]
    session._handle_names = {id(mod): name for name, mod in root["handles"].items()}
    session._handle_seq = root["handle_seq"]
    session.propagations = root["propagations"]
    session.demands = root["demands"]
    session.rebuilds = root["rebuilds"]
    if hook is not None:
        engine.attach_hook(hook)
    return session


def inspect_snapshot(path: str) -> dict:
    """Header, content address, and sizes -- without decoding objects."""
    header = read_header(path)
    return {
        "path": path,
        "bytes": os.path.getsize(path),
        "format": header.get("format"),
        "codec": header.get("codec"),
        "python": header.get("python"),
        "created": header.get("created"),
        "content": header.get("content", {}),
        "meta": header.get("meta", {}),
        "sections": header.get("sections", []),
    }
