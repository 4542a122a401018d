"""Versioned checkpoint files: a session's recorded inputs, not its trace.

Layout (all after a fixed magic line)::

    #repro-snapshot 1\\n
    {json header}\\n          <- format version, what to run (app, backend,
                                 mode, compiler options), session counters,
                                 handle registry, section table (name,
                                 length, CRC32), and the header's own CRC32
    <inputs bytes>            <- marshal.dumps(app.handle_data(input_handle))

Self-adjusting semantics make a from-scratch run on the current input the
reference for every value a session shows, so a checkpoint records just
that input.  Restoring compiles the app, sets any journal suffix in the
recorded input cells, runs once on that data, and rebinds the handle
registry (each handle names an input cell by its index, or the output)
and the counters.  The restored session therefore equals a fresh
:class:`repro.api.Session` run on the same inputs -- values and meters --
rather than the trace the saved session had grown.

The CRCs are the integrity check: a torn tail, flipped bit, or truncated
file fails closed with :class:`SnapshotCorruptError` before anything runs.
Files written before this layout also carry an ``objects`` section (a
serialized trace); readers skip it and run on their ``inputs`` section,
and one without ``inputs`` is refused with :class:`SnapshotFormatError`.

Snapshots are written atomically (temp file + fsync + rename) so a crash
mid-checkpoint leaves the previous snapshot intact.  CRCs detect
corruption, not tampering -- keep checkpoint directories as private as the
process state they mirror.
"""

from __future__ import annotations

import json
import marshal
import os
import time
import zlib
from typing import Any, Collection, Dict, Optional, Sequence, Tuple

from repro.persist.errors import (
    CodecError,
    JournalError,
    SnapshotCorruptError,
    SnapshotFormatError,
    SnapshotMismatchError,
    SnapshotStateError,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "write_snapshot",
    "read_snapshot",
    "read_header",
    "read_inputs",
    "save_session",
    "load_session",
    "inspect_snapshot",
]

FORMAT_VERSION = 2
MAGIC = b"#repro-snapshot 1\n"

#: the handle-registry entry naming the session output (others are
#: input-cell indices)
OUT = "out"


# ----------------------------------------------------------------------
# File I/O


def _dump(header: dict) -> bytes:
    return json.dumps(header, separators=(",", ":")).encode()


def write_snapshot(path: str, header: dict, sections: Dict[str, bytes]) -> None:
    """Atomically write a snapshot file (temp + fsync + rename)."""
    table = []
    for name, data in sections.items():
        table.append({"name": name, "len": len(data), "crc": zlib.crc32(data)})
    header = dict(header)
    header.pop("crc", None)
    header["sections"] = table
    header["crc"] = zlib.crc32(_dump(header))
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(_dump(header) + b"\n")
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
    # Files written before the header carried its own CRC have none.
    crc = header.pop("crc", None)
    if crc is not None and zlib.crc32(_dump(header)) != crc:
        raise SnapshotCorruptError("snapshot header failed its CRC check")
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


def read_inputs(path: str) -> Tuple[dict, Any]:
    """Read a checkpoint's header and the input data it recorded."""
    header, sections = read_snapshot(path, names=("inputs",))
    if "inputs" not in sections:
        raise SnapshotFormatError(
            f"snapshot {path} records no inputs (a trace-only checkpoint "
            f"from an older build)"
        )
    try:
        return header, marshal.loads(sections["inputs"])
    except (ValueError, EOFError, TypeError) as exc:
        raise SnapshotCorruptError(
            f"inputs failed to unmarshal: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Session-level save / load


def _handle_indices(session: Any) -> Dict[str, Any]:
    """The handle registry as name -> input-cell index, or :data:`OUT`."""
    cells = getattr(session.input_handle, "mods", ())
    index = {id(mod): i for i, mod in enumerate(cells)}
    handles: Dict[str, Any] = {}
    for name, mod in session._handles.items():
        if mod is session.output:
            handles[name] = OUT
        elif id(mod) in index:
            handles[name] = index[id(mod)]
        else:
            raise SnapshotStateError(
                f"handle {name!r} names a modifiable that is neither an "
                f"input cell nor the output, so a restore could not rebind it"
            )
    return handles


def save_session(session: Any, path: str) -> dict:
    """Checkpoint a quiescent app-backed :class:`repro.api.Session` to
    ``path``; returns the header.  The session itself is untouched.
    """
    session.engine.snapshot_precondition()
    app = session.app
    if app is None or session.input_handle is None:
        raise SnapshotStateError(
            "only an app-backed session run on data= can be checkpointed: "
            "a checkpoint records the app's input data"
        )
    handles = _handle_indices(session)
    try:
        inputs = marshal.dumps(app.handle_data(session.input_handle))
    except ValueError as exc:
        raise CodecError(
            f"{app.name} input data is not marshallable: {exc}"
        ) from exc
    options = session.options
    header = {
        "format": FORMAT_VERSION,
        "created": time.time(),
        "content": {
            "app": app.name,
            "backend": session.backend,
            "mode": session.mode,
            "options": {
                "memoize": options.memoize,
                "optimize": options.optimize,
                "coarse": options.coarse,
            },
        },
        "counters": {
            "propagations": session.propagations,
            "demands": session.demands,
            "rebuilds": session.rebuilds,
            "handle_seq": session._handle_seq,
        },
        "handles": handles,
    }
    write_snapshot(path, header, {"inputs": inputs})
    return header


def load_session(
    path: str,
    app: Any = None,
    *,
    backend: Optional[str] = None,
    mode: Optional[str] = None,
    journal: Sequence[Tuple[int, Sequence[Tuple[str, Any]]]] = (),
    backend_fallback: bool = False,
    hook: Any = None,
) -> Any:
    """Restore a :class:`repro.api.Session` from ``path``.

    ``app`` may be an app name or an :class:`repro.apps.base.App`; when
    omitted, the app named in the header is looked up in the registry.
    The session is compiled with the recorded options and marshalled on
    the recorded inputs, under the recorded mode and backend unless
    ``mode``/``backend`` override them.  A recorded backend this build
    lacks is a :class:`SnapshotMismatchError`, or with
    ``backend_fallback`` the default backend.  Each edit in ``journal``
    (``read_journal`` records that extend this checkpoint) is set in its
    input cell before anything reads it, so the session runs once, from
    scratch, on the current inputs; then the handles and counters are
    rebound and ``hook`` is attached.
    """
    from repro.api import Session
    from repro.apps import REGISTRY
    from repro.apps.base import App
    from repro.backends import BACKENDS

    header, data = read_inputs(path)
    content = header.get("content", {})
    recorded = content.get("app")
    if app is None:
        app = recorded
    if isinstance(app, str):
        app = REGISTRY.get(app, app)
    if not isinstance(app, App):
        raise SnapshotMismatchError(
            f"a checkpoint restores onto a registered app; got {app!r}"
        )
    if app.name != recorded:
        raise SnapshotMismatchError(
            f"snapshot records inputs of app {recorded!r}, not {app.name!r}"
        )
    if backend is None:
        backend = content.get("backend")
        if backend not in BACKENDS:
            if not backend_fallback:
                raise SnapshotMismatchError(
                    f"snapshot was written by backend {backend!r}, which "
                    f"this build does not have (expected one of {BACKENDS})"
                )
            backend = None
    options = content.get("options", {})
    session = Session(
        app,
        backend=backend,
        mode=mode or content.get("mode"),
        memoize=options.get("memoize", True),
        optimize=options.get("optimize", True),
        coarse=options.get("coarse", False),
    )
    session.prepare(data=data)
    cells = getattr(session.input_handle, "mods", ())
    handles = header.get("handles", {})
    for _seq, edits in journal:
        for name, value in edits:
            ref = handles.get(name)
            if ref is None or ref == OUT:
                raise JournalError(
                    f"journal edit of {name!r} names no input cell of "
                    f"checkpoint {path}, so the journal does not extend it"
                )
            session.engine.change(cells[ref], value)
    session.run()
    for name, ref in handles.items():
        session.handle(session.output if ref == OUT else cells[ref], name)
    counters = header.get("counters", {})
    session.propagations = counters.get("propagations", 0)
    session.demands = counters.get("demands", 0)
    session.rebuilds = counters.get("rebuilds", 0)
    session._handle_seq = counters.get("handle_seq", 0)
    if hook is not None:
        session.engine.attach_hook(hook)
    return session


def inspect_snapshot(path: str) -> dict:
    """Header fields and file size -- without running anything."""
    return {"path": path, "bytes": os.path.getsize(path), **read_header(path)}
