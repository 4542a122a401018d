"""Flat object-graph codec for engine state.

``pickle`` cannot serialize a live DDG: the trace's reader callbacks are
nested function objects (closures staged by the backends), and the order
maintenance chain is a linked list tens of thousands of stamps deep, so
recursive serializers overflow even when the individual objects are
picklable.  This codec therefore flattens the graph into an integer-indexed
object table -- every compound object is one row (parallel ``kinds`` /
``payloads`` arrays) whose payload fields are *slots*: non-negative ints
index the table, negative ints a deduplicated literal pool.
Encoding and decoding are fully iterative (worklists, never Python
recursion), so trace depth is bounded only by memory.

The table itself contains nothing but scalars, lists, tuples and code
objects, which makes :mod:`marshal` -- CPython's own bytecode serializer --
a suitable wire format: it is iterative, fast, handles ``code`` objects
natively, and performs no attribute lookups or constructor calls on load
(untrusted-input hardening is the CRC/content-address layer's job, see
:mod:`repro.persist.snapshot`).  The cost is that snapshots are
CPython-minor-version-specific; the snapshot header records the version and
mismatches degrade to a cold rebuild.

Function objects are serialized as ``(code, module, defaults, closure
cells)``; their ``__globals__`` are rebound by importing ``__module__`` at
decode time.  This round-trips every closure the backends create, because
all of them are defined in importable ``repro.*`` modules (none are built
with ``exec``).  Hash-consed constructor values are rebuilt through the
intern table (:meth:`repro.sac.intern.InternTable.rehydrate`), preserving
the canonical-identity invariant that makes equality cutoffs and memo keys
identity-fast.  The order chain is restored under its *original* labels
(stamp keys are serialized verbatim and the bucket partition recovered
from them), so future relabel cascades -- which depend on label density --
cost exactly what they would have in the never-persisted engine, and the
propagation heap is rebuilt in pop order against those keys.
"""

from __future__ import annotations

import os
import functools
import importlib
import sys
import types
from typing import Any, Dict, List, Optional, Tuple

from repro.persist.errors import CodecError
from repro.sac.engine import Engine
from repro.sac.gcpause import gc_paused
from repro.sac.intern import INTERN
from repro.sac.modifiable import UNWRITTEN, Modifiable
from repro.sac.order import (
    LOCAL_BITS,
    LOCAL_MAX,
    Bucket,
    Order,
    Stamp,
)
from repro.sac.trace import MemoEntry, ReadEdge
from repro.interp.values import ConValue, RefCell, _MISSING

__all__ = ["encode_graph", "decode_graph", "CODEC_VERSION"]

#: Bumped whenever the table layout changes incompatibly.
CODEC_VERSION = 2

_INLINE_TYPES = (bool, int, float, str, bytes)

#: Kinds decoded as mutable shells in pass 1 and filled in pass 3.
_MUTABLE_KINDS = frozenset(
    [
        "list",
        "set",
        "dict",
        "obj",
        "mod",
        "ref",
        "cell",
        "stamp",
        "edge",
        "memo",
        "ord",
        "eng",
    ]
)


def _singletons() -> List[Tuple[Any, str, str]]:
    from repro.api import _UNSET  # deferred: api imports persist lazily too

    return [
        (UNWRITTEN, "repro.sac.modifiable", "UNWRITTEN"),
        (_MISSING, "repro.interp.values", "_MISSING"),
        (_UNSET, "repro.api", "_UNSET"),
    ]


@functools.lru_cache(maxsize=None)
def _import_module(module: str) -> Any:
    try:
        return importlib.import_module(module)
    except Exception as exc:
        raise CodecError(f"cannot import module {module!r}: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _lookup_qualname(module: str, qualname: str) -> Any:
    target: Any = _import_module(module)
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError as exc:
            raise CodecError(f"{module}.{qualname} no longer exists") from exc
    return target


# ----------------------------------------------------------------------
# Encoding


class _Encoder:
    def __init__(self) -> None:
        self.objects: List[Any] = []
        self.ids: Dict[int, int] = {}
        self.pin: List[Any] = []  # keeps ids unique while we encode
        self.work: List[Tuple[int, Any]] = []
        self.code_ids: Dict[int, int] = {}
        self.singleton_ids = {id(obj): (mod, name) for obj, mod, name in _singletons()}
        self.literals: List[Any] = []
        self.lit_ids: Dict[Any, int] = {}

    # -- table management ----------------------------------------------

    def ref(self, v: Any) -> int:
        """Encode one value slot as a single int.

        Non-negative: object-table index.  Negative: ``-(i + 1)`` into
        the deduplicated literal pool (scalars repeat heavily -- shared
        floats, generation counters, flag booleans -- so pooling them
        shrinks the marshal blob and makes every slot a small int).
        """
        t = type(v)
        if v is None or t in _INLINE_TYPES:
            # Keyed by type too: 1 != 1.0 != True here.  Floats key on
            # their hex form so -0.0 and 0.0 stay distinct.
            key = (t.__name__, v.hex() if t is float else v)
            idx = self.lit_ids.get(key)
            if idx is None:
                idx = len(self.literals)
                self.literals.append(v)
                self.lit_ids[key] = idx
            return -idx - 1
        vid = id(v)
        idx = self.ids.get(vid)
        if idx is None:
            idx = len(self.objects)
            self.objects.append(None)
            self.ids[vid] = idx
            self.pin.append(v)
            self.work.append((idx, v))
        return idx

    def _code_ref(self, code: types.CodeType) -> int:
        idx = self.code_ids.get(id(code))
        if idx is None:
            idx = len(self.objects)
            self.objects.append(("code", code))
            self.code_ids[id(code)] = idx
            self.pin.append(code)
        return idx

    def encode(self, root: Any) -> dict:
        root_slot = self.ref(root)
        while self.work:
            idx, v = self.work.pop()
            self.objects[idx] = self._build(v)
        # Parallel arrays of tuple payloads instead of one list of
        # (kind, payload) list-rows: tuples of scalars are untracked by
        # the cyclic GC, which makes ``marshal.loads`` on a big snapshot
        # ~7x faster (no collector passes over 100k+ fresh lists) and
        # the blob ~15% smaller.
        kinds: List[str] = []
        payloads: List[Any] = []
        for kind, payload in self.objects:
            kinds.append(kind)
            payloads.append(payload)
        return {
            "codec": CODEC_VERSION,
            "kinds": kinds,
            "payloads": payloads,
            "literals": self.literals,
            "root": root_slot,
        }

    # -- per-kind builders ----------------------------------------------

    def _build(self, v: Any) -> Tuple[str, Any]:
        glob = self.singleton_ids.get(id(v))
        if glob is not None:
            return ("glob", glob)
        t = type(v)
        if t is tuple:
            return ("tup", tuple(self.ref(x) for x in v))
        if t is list:
            return ("list", tuple(self.ref(x) for x in v))
        if t is dict:
            return (
                "dict",
                tuple((self.ref(k), self.ref(x)) for k, x in v.items()),
            )
        if t is set:
            return ("set", tuple(self.ref(x) for x in v))
        if t is frozenset:
            return ("fset", tuple(self.ref(x) for x in v))
        if t is Modifiable:
            # fsum is an arbitrary-width int bitset; marshal handles big
            # ints natively, so the summary state rides along as scalars
            # (in_edges is rebuilt structurally at decode).
            return (
                "mod",
                (
                    self.ref(v.value),
                    tuple(self.ref(e) for e in v.readers),
                    bool(v.suspect),
                    v.fsum,
                    bool(v.fsum_valid),
                    v.root_bit,
                ),
            )
        if t is ConValue:
            return ("con", (v.tag, self.ref(v.arg), bool(v._hc)))
        if t is RefCell:
            return ("ref", (self.ref(v.value),))
        if t is Stamp:
            if not v.live:
                raise CodecError(
                    "dead stamp reached outside the engine's trace sections"
                )
            return ("stamp", (v.gen, self.ref(v.owner)))
        if t is ReadEdge:
            return self._build_edge(v)
        if t is MemoEntry:
            return self._build_memo(v)
        if t is types.FunctionType:
            return self._build_function(v)
        if t is types.MethodType:
            return self._build_method(v)
        if t is types.BuiltinFunctionType or t is types.BuiltinMethodType:
            owner = getattr(v, "__self__", None)
            if isinstance(owner, types.ModuleType):
                return ("glob", (owner.__name__, v.__name__))
            raise CodecError(f"cannot serialize builtin method {v!r}")
        if t is functools.partial:
            return (
                "part",
                (
                    self.ref(v.func),
                    tuple(self.ref(a) for a in v.args),
                    tuple(
                        (k, self.ref(x))
                        for k, x in (v.keywords or {}).items()
                    ),
                ),
            )
        if isinstance(v, type):
            return ("glob", (v.__module__, v.__qualname__))
        if t is types.ModuleType:
            return ("modu", v.__name__)
        if t is types.CellType:
            try:
                contents = v.cell_contents
            except ValueError:
                return ("cell", (False, self.ref(None)))
            return ("cell", (True, self.ref(contents)))
        if t is Engine:
            return self._build_engine(v)
        if t is Order or t is Bucket:
            raise CodecError(f"{t.__name__} reached outside its owning engine")
        return self._build_object(v)

    def _build_edge(self, e: ReadEdge) -> Tuple[str, Any]:
        if e.dead:
            # A discarded edge's interval stamps are dead (outside the
            # chain); the restored engine only needs the flags, and queue
            # rebuild resurrects a keyed tombstone for heap ordering.
            none = self.ref(None)
            return ("edge", (none, none, none, none, none, bool(e.dirty), True))
        return (
            "edge",
            (
                self.ref(e.mod),
                self.ref(e.reader),
                self.ref(e.start),
                self.ref(e.end),
                self.ref(e.dest),
                bool(e.dirty),
                False,
            ),
        )

    def _build_memo(self, m: MemoEntry) -> Tuple[str, Any]:
        if m.dead:
            none = self.ref(None)
            return ("memo", (self.ref(m.key), none, none, none, True))
        return (
            "memo",
            (
                self.ref(m.key),
                self.ref(m.result),
                self.ref(m.start),
                self.ref(m.end),
                False,
            ),
        )

    def _build_function(self, v: types.FunctionType) -> Tuple[str, Any]:
        module = v.__module__ or "builtins"
        qualname = v.__qualname__
        if "<locals>" not in qualname and "<lambda>" not in qualname:
            mod_obj = sys.modules.get(module)
            target: Any = mod_obj
            for part in qualname.split("."):
                target = getattr(target, part, None)
                if target is None:
                    break
            if target is v:
                # Module-level function (or method reached through its
                # class): restore by name, no bytecode needed.
                return ("glob", (module, qualname))
        defaults = (
            None
            if v.__defaults__ is None
            else tuple(self.ref(x) for x in v.__defaults__)
        )
        kwdefaults = (
            None
            if v.__kwdefaults__ is None
            else tuple((k, self.ref(x)) for k, x in v.__kwdefaults__.items())
        )
        closure = (
            ()
            if v.__closure__ is None
            else tuple(self.ref(c) for c in v.__closure__)
        )
        fdict = (
            tuple((k, self.ref(x)) for k, x in v.__dict__.items())
            if v.__dict__
            else ()
        )
        return (
            "func",
            (
                self._code_ref(v.__code__),
                module,
                v.__name__,
                qualname,
                defaults,
                kwdefaults,
                closure,
                fdict,
            ),
        )

    def _build_method(self, v: types.MethodType) -> Tuple[str, Any]:
        owner = v.__self__
        name = v.__func__.__name__
        if getattr(type(owner), name, None) is not v.__func__:
            raise CodecError(
                f"bound method {v!r} is not reachable as "
                f"{type(owner).__name__}.{name}"
            )
        return ("meth", (self.ref(owner), name))

    def _build_object(self, v: Any) -> Tuple[str, Any]:
        cls = type(v)
        module, qualname = cls.__module__, cls.__qualname__
        if "<locals>" in qualname:
            raise CodecError(f"cannot serialize instance of local class {cls!r}")
        if _lookup_qualname(module, qualname) is not cls:
            raise CodecError(f"class {module}.{qualname} does not resolve to {cls!r}")
        state: Dict[str, Any] = {}
        if hasattr(v, "__dict__"):
            state.update(v.__dict__)
        for klass in cls.__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot in ("__dict__", "__weakref__"):
                    continue
                try:
                    state[slot] = getattr(v, slot)
                except AttributeError:
                    pass
        return (
            "obj",
            (
                module,
                qualname,
                tuple((k, self.ref(x)) for k, x in state.items()),
            ),
        )

    # -- the engine ------------------------------------------------------

    def _build_engine(self, e: Engine) -> Tuple[str, Any]:
        e.snapshot_precondition()
        stamps = []  # base first, chain order
        keys = []
        for s in e.order:
            stamps.append(self.ref(s))
            keys.append(s.key)
        order_idx = len(self.objects)
        self.objects.append(
            (
                "ord",
                (
                    tuple(stamps),
                    tuple(keys),
                    e.order.epoch,
                    e.order.n_relabels,
                    e.order.stamps_allocated,
                    e.order.stamps_reused,
                ),
            )
        )
        self.ids[id(e.order)] = order_idx
        self.pin.append(e.order)
        alloc = []
        for key, (mod, stamp, gen) in e.alloc_table.items():
            stale = not stamp.live or stamp.gen != gen
            alloc.append(
                (
                    self.ref(key),
                    self.ref(mod),
                    self.ref(None) if stale else self.ref(stamp),
                    gen,
                )
            )
        return (
            "eng",
            {
                "mode": e.mode,
                "recursion_limit": e.recursion_limit,
                "order": order_idx,
                "now": self.ref(e.now),
                "queue": tuple(self.ref(edge) for edge in e.queue_pop_order()),
                "alloc": tuple(alloc),
                "memo": self.ref(e.memo_table),
                "meter": self.ref(e.meter),
                "suspects": self.ref(e._suspect_mods),
                "edit_log": self.ref(e._edit_log),
                "scalars": {
                    "_queue_peak": e._queue_peak,
                    "edges_reused": e.edges_reused,
                    "memo_entries_reused": e.memo_entries_reused,
                    "_drain_gen": e._drain_gen,
                    "_has_imperative": e._has_imperative,
                    "_dead_memo_entries": e._dead_memo_entries,
                    "compact_threshold": e.compact_threshold,
                    "_journal_enabled": e._journal_enabled,
                    "feeds_impl": e.feeds_impl,
                    "_feeds_summary": e._feeds_summary,
                    "_next_root_bit": e._next_root_bit,
                    "_dirty_roots": e._dirty_roots,
                    "_dirty_roots_exact": e._dirty_roots_exact,
                },
            },
        )


@gc_paused
def encode_graph(root: Any) -> dict:
    """Flatten ``root``'s object graph into a marshal-able table."""
    return _Encoder().encode(root)


# ----------------------------------------------------------------------
# Decoding


_IMMUTABLE_KINDS = frozenset(["tup", "fset", "con", "func", "meth", "part"])

#: Fill order: trace records and containers first, then the order chain
#: (assigns fresh stamp keys), then the engine (reads those keys to
#: rebuild its propagation heap).
_FILL_ORDER = (
    "stamp",
    "edge",
    "memo",
    "mod",
    "ref",
    "cell",
    "list",
    "set",
    "dict",
    "obj",
    "ord",
    "eng",
)


class _Decoder:
    def __init__(self, doc: dict) -> None:
        if doc.get("codec") != CODEC_VERSION:
            raise CodecError(f"unsupported codec version {doc.get('codec')!r}")
        self.kinds: List[str] = doc["kinds"]
        self.payloads: List[Any] = doc["payloads"]
        self.literals: List[Any] = doc["literals"]
        self.root_slot = doc["root"]
        if len(self.kinds) != len(self.payloads):
            raise CodecError("kind/payload arrays disagree in length")
        n = len(self.kinds)
        self.out: List[Any] = [None] * n
        self.built = [False] * n

    def decode(self) -> Any:
        self._make_shells()
        self._build_immutables()
        self._fill_shells()
        return self.resolve(self.root_slot)

    # -- slot resolution -------------------------------------------------

    def resolve(self, slot: int) -> Any:
        if slot < 0:
            return self.literals[-1 - slot]
        if not self.built[slot]:
            raise CodecError(f"dangling reference to unbuilt object #{slot}")
        return self.out[slot]

    # -- pass 1: shells ---------------------------------------------------

    #: kind -> zero-arg shell factory (the "obj" kind, whose class comes
    #: from its payload, is handled separately).
    _SHELL_FACTORIES = {
        "list": list,
        "set": set,
        "dict": dict,
        "cell": types.CellType,
        "mod": functools.partial(object.__new__, Modifiable),
        "ref": functools.partial(object.__new__, RefCell),
        "stamp": functools.partial(object.__new__, Stamp),
        "edge": functools.partial(object.__new__, ReadEdge),
        "memo": functools.partial(object.__new__, MemoEntry),
        "ord": functools.partial(object.__new__, Order),
        "eng": functools.partial(object.__new__, Engine),
    }

    def _make_shells(self) -> None:
        out = self.out
        built = self.built
        factories = self._SHELL_FACTORIES
        new = object.__new__
        payloads = self.payloads
        for i, kind in enumerate(self.kinds):
            factory = factories.get(kind)
            if factory is not None:
                out[i] = factory()
                built[i] = True
            elif kind == "obj":
                payload = payloads[i]
                out[i] = new(_lookup_qualname(payload[0], payload[1]))
                built[i] = True

    # -- pass 2: immutables ----------------------------------------------

    def _imm_deps(self, i: int):
        kind = self.kinds[i]
        payload = self.payloads[i]
        slots: List[Any] = []
        if kind in ("tup", "fset"):
            slots = payload
        elif kind == "con":
            slots = [payload[1]]
        elif kind == "func":
            _code, _m, _n, _q, defaults, kwdefaults, closure, fdict = payload
            slots = list(closure)
            if defaults:
                slots.extend(defaults)
            if kwdefaults:
                slots.extend(s for _k, s in kwdefaults)
            slots.extend(s for _k, s in fdict)
        elif kind == "meth":
            slots = [payload[0]]
        elif kind == "part":
            slots = [payload[0], *payload[1], *[s for _k, s in payload[2]]]
        for slot in slots:
            if slot >= 0 and not self.built[slot]:
                yield slot

    def _build_immutables(self) -> None:
        built = self.built
        out = self.out
        for i, kind in enumerate(self.kinds):
            if built[i]:
                continue
            if kind in ("glob", "modu", "code"):
                out[i] = self._construct(i)
                built[i] = True
        # Fast path: the encoder's worklist hands children higher table
        # indexes than the parent that first references them, so one
        # reverse sweep builds nearly everything; only entries whose deps
        # were first referenced elsewhere (shared structure) fall through
        # to the cycle-checking DFS below.  Tuples and cons cells -- the
        # bulk of a trace's immutables -- are built inline.
        kinds = self.kinds
        payloads = self.payloads
        lits = self.literals
        rehydrate = INTERN.rehydrate
        for i in range(len(kinds) - 1, -1, -1):
            if built[i]:
                continue
            kind = kinds[i]
            payload = payloads[i]
            if kind == "tup":
                for s in payload:
                    if s >= 0 and not built[s]:
                        break
                else:
                    out[i] = tuple(
                        out[s] if s >= 0 else lits[-1 - s] for s in payload
                    )
                    built[i] = True
                continue
            if kind == "con":
                s = payload[1]
                if s < 0 or built[s]:
                    out[i] = rehydrate(
                        ConValue,
                        payload[0],
                        out[s] if s >= 0 else lits[-1 - s],
                        payload[2],
                    )
                    built[i] = True
                continue
            if next(self._imm_deps(i), None) is None:
                out[i] = self._construct(i)
                built[i] = True
        expanding: Dict[int, bool] = {}
        for start in range(len(kinds)):
            if self.built[start]:
                continue
            stack = [start]
            while stack:
                i = stack[-1]
                if self.built[i]:
                    stack.pop()
                    continue
                if expanding.get(i):
                    # Deps were pushed on the first visit; all built now.
                    for j in self._imm_deps(i):
                        raise CodecError(
                            f"cycle through immutable objects at #{i} -> #{j}"
                        )
                    self.out[i] = self._construct(i)
                    self.built[i] = True
                    stack.pop()
                    continue
                expanding[i] = True
                for j in self._imm_deps(i):
                    if expanding.get(j) and not self.built[j]:
                        raise CodecError(f"cycle through immutable objects at #{j}")
                    stack.append(j)

    def _construct(self, i: int) -> Any:
        kind = self.kinds[i]
        payload = self.payloads[i]
        if kind == "tup":
            return tuple(self.resolve(s) for s in payload)
        if kind == "fset":
            return frozenset(self.resolve(s) for s in payload)
        if kind == "con":
            tag, arg_slot, canonical = payload
            return INTERN.rehydrate(ConValue, tag, self.resolve(arg_slot), canonical)
        if kind == "glob":
            return _lookup_qualname(payload[0], payload[1])
        if kind == "modu":
            try:
                return importlib.import_module(payload)
            except Exception as exc:
                raise CodecError(f"cannot import module {payload!r}: {exc}") from exc
        if kind == "code":
            return payload
        if kind == "func":
            code_idx, module, name, qualname, defaults, kwdefaults, closure, fdict = (
                payload
            )
            code = self.out[code_idx]
            try:
                globals_dict = importlib.import_module(module).__dict__
            except Exception as exc:
                raise CodecError(
                    f"cannot rebind function {qualname!r}: module {module!r} "
                    f"failed to import ({exc})"
                ) from exc
            fn = types.FunctionType(
                code,
                globals_dict,
                name,
                None if defaults is None else tuple(self.resolve(s) for s in defaults),
                tuple(self.resolve(s) for s in closure) or None,
            )
            fn.__qualname__ = qualname
            if kwdefaults is not None:
                fn.__kwdefaults__ = {k: self.resolve(s) for k, s in kwdefaults}
            for k, s in fdict:
                fn.__dict__[k] = self.resolve(s)
            return fn
        if kind == "meth":
            owner = self.resolve(payload[0])
            return types.MethodType(getattr(type(owner), payload[1]), owner)
        if kind == "part":
            func = self.resolve(payload[0])
            args = [self.resolve(s) for s in payload[1]]
            kwargs = {k: self.resolve(s) for k, s in payload[2]}
            return functools.partial(func, *args, **kwargs)
        raise CodecError(f"unknown immutable kind {kind!r}")

    # -- pass 3: fills -----------------------------------------------------

    def _fill_shells(self) -> None:
        """Pass 3, one tight loop per kind in :data:`_FILL_ORDER`.

        By now every table entry is built, so slots resolve with a plain
        index: ``out[s]`` for references, ``lits[-1 - s]`` for pooled
        literals.  The per-kind loops (instead of a per-object dispatch
        chain) are what make decoding tens of thousands of trace records
        cheaper than re-executing the reads that created them.
        """
        by_kind: Dict[str, List[int]] = {}
        for i, kind in enumerate(self.kinds):
            if kind in _MUTABLE_KINDS:
                by_kind.setdefault(kind, []).append(i)
        payloads = self.payloads
        out = self.out
        lits = self.literals
        for kind in _FILL_ORDER:
            idxs = by_kind.get(kind)
            if not idxs:
                continue
            if kind == "stamp":
                for i in idxs:
                    payload = payloads[i]
                    obj = out[i]
                    obj.gen = payload[0]
                    s = payload[1]
                    obj.owner = out[s] if s >= 0 else lits[-1 - s]
            elif kind == "edge":
                for i in idxs:
                    p = payloads[i]
                    obj = out[i]
                    s = p[0]
                    obj.mod = out[s] if s >= 0 else lits[-1 - s]
                    s = p[1]
                    obj.reader = out[s] if s >= 0 else lits[-1 - s]
                    s = p[2]
                    obj.start = out[s] if s >= 0 else lits[-1 - s]
                    s = p[3]
                    obj.end = out[s] if s >= 0 else lits[-1 - s]
                    s = p[4]
                    obj.dest = out[s] if s >= 0 else lits[-1 - s]
                    obj.dirty = p[5]
                    obj.dead = p[6]
            elif kind == "memo":
                for i in idxs:
                    p = payloads[i]
                    obj = out[i]
                    s = p[0]
                    obj.key = out[s] if s >= 0 else lits[-1 - s]
                    s = p[1]
                    obj.result = out[s] if s >= 0 else lits[-1 - s]
                    s = p[2]
                    obj.start = out[s] if s >= 0 else lits[-1 - s]
                    s = p[3]
                    obj.end = out[s] if s >= 0 else lits[-1 - s]
                    obj.dead = p[4]
            elif kind == "mod":
                for i in idxs:
                    p = payloads[i]
                    obj = out[i]
                    s = p[0]
                    obj.value = out[s] if s >= 0 else lits[-1 - s]
                    obj.readers = {
                        out[s] if s >= 0 else lits[-1 - s] for s in p[1]
                    }
                    obj.suspect = p[2]
                    obj.fsum = p[3]
                    obj.fsum_valid = p[4]
                    obj.root_bit = p[5]
                    obj.in_edges = None
            elif kind == "ref":
                for i in idxs:
                    s = payloads[i][0]
                    out[i].value = out[s] if s >= 0 else lits[-1 - s]
            elif kind == "cell":
                for i in idxs:
                    p = payloads[i]
                    if p[0]:
                        s = p[1]
                        out[i].cell_contents = (
                            out[s] if s >= 0 else lits[-1 - s]
                        )
            elif kind == "list":
                for i in idxs:
                    out[i].extend(
                        out[s] if s >= 0 else lits[-1 - s]
                        for s in payloads[i]
                    )
            elif kind == "set":
                for i in idxs:
                    out[i].update(
                        out[s] if s >= 0 else lits[-1 - s]
                        for s in payloads[i]
                    )
            elif kind == "dict":
                for i in idxs:
                    obj = out[i]
                    for ks, vs in payloads[i]:
                        obj[out[ks] if ks >= 0 else lits[-1 - ks]] = (
                            out[vs] if vs >= 0 else lits[-1 - vs]
                        )
            elif kind == "obj":
                for i in idxs:
                    obj = out[i]
                    for name, s in payloads[i][2]:
                        setattr(
                            obj, name, out[s] if s >= 0 else lits[-1 - s]
                        )
            elif kind == "ord":
                for i in idxs:
                    self._fill_order(out[i], payloads[i])
            elif kind == "eng":
                for i in idxs:
                    self._fill_engine(out[i], payloads[i])

    def _fill_order(self, order: Order, payload: Any) -> None:
        """Relink the serialized stamp chain under its *original* labels.

        Each stamp's packed key (``bucket.label << LOCAL_BITS | local``) is
        serialized verbatim, so the bucket partition is recovered by
        grouping consecutive stamps that share ``key >> LOCAL_BITS``.
        Restoring the exact labels -- not just the relative order -- matters
        for meter parity: future relabel cascades (and hence ``queue_rekeys``
        / ``order.epoch`` churn) depend on label *density*, so a restored
        engine must start from the same partition the live engine had.
        """
        stamp_slots, keys, epoch, n_relabels, allocated, reused = payload
        stamps = [self.resolve(s) for s in stamp_slots]
        if not stamps:
            raise CodecError("order chain must contain at least the base stamp")
        if len(keys) != len(stamps):
            raise CodecError("order key list does not match the stamp chain")
        local_mask = LOCAL_MAX - 1
        base = stamps[0]
        bucket = Bucket(keys[0] >> LOCAL_BITS)
        base.bucket = bucket
        base.local = keys[0] & local_mask
        base.key = keys[0]
        base.prev = None
        base.live = True
        bucket.first = base
        bucket.count = 1
        n_buckets = 1
        prev = base
        for s, key in zip(stamps[1:], keys[1:]):
            label = key >> LOCAL_BITS
            if label != bucket.label:
                if label < bucket.label:
                    raise CodecError("order bucket labels must increase")
                nxt_bucket = Bucket(label)
                nxt_bucket.prev = bucket
                bucket.next = nxt_bucket
                bucket = nxt_bucket
                n_buckets += 1
            s.bucket = bucket
            s.local = key & local_mask
            s.key = key
            s.live = True
            s.prev = prev
            prev.next = s
            if bucket.first is None:
                bucket.first = s
            bucket.count += 1
            prev = s
        prev.next = None
        order.base = base
        order._base_bucket = base.bucket
        order._first_bucket = base.bucket
        order._last_bucket = bucket
        order._last = prev
        order.n_live = len(stamps)
        order.n_buckets = n_buckets
        order.n_relabels = n_relabels
        order.epoch = epoch
        order._pool = []
        order.stamps_allocated = allocated
        order.stamps_reused = reused

    def _fill_engine(self, e: Engine, payload: dict) -> None:
        order: Order = self.resolve(payload["order"])
        mode = payload["mode"]
        e.mode = mode
        e.lazy = mode == "lazy"
        e.recursion_limit = payload["recursion_limit"]
        if sys.getrecursionlimit() < e.recursion_limit:
            sys.setrecursionlimit(e.recursion_limit)
        e.order = order
        e.now = self.resolve(payload["now"])
        e._insert_after = order.insert_after
        alloc: Dict[Any, Tuple[Modifiable, Stamp, int]] = {}
        for key_slot, mod_slot, stamp_slot, gen in payload["alloc"]:
            stamp = self.resolve(stamp_slot)
            if stamp is None:
                stamp = _dead_stamp(0, gen)
            alloc[self.resolve(key_slot)] = (self.resolve(mod_slot), stamp, gen)
        e.alloc_table = alloc
        for name, value in payload["scalars"].items():
            setattr(e, name, value)
        e.install_queue([self.resolve(s) for s in payload["queue"]])
        e.memo_table = self.resolve(payload["memo"])
        e.meter = self.resolve(payload["meter"])
        e._suspect_mods = self.resolve(payload["suspects"])
        e._edit_log = self.resolve(payload["edit_log"])
        # Quiescent-state defaults: pools empty, no hook, no propagation
        # in flight.  (Reuse counters were restored verbatim above; empty
        # pools only mean the first few discards allocate fresh records.)
        e._edge_pool = []
        e._memo_pool = []
        e.reuse_limit = None
        e._mod_depth = 0
        e._reexec_depth = 0
        e._dest_stack = []
        e._drain_feeds = None
        e._demand_reads = {}
        e._demand_degrade = False
        e.propagating = False
        e._batch_depth = 0
        e._batch_changes = 0
        e._poison = None
        e.hook = None
        e._drain_mask = None
        e._deferred_deaths = []
        # Debug-only flag: never persisted, always re-derived from the
        # restoring process's environment (like Engine.__init__).
        e.feeds_oracle = os.environ.get(
            "REPRO_FEEDS_ORACLE", ""
        ).strip().lower() in ("1", "true", "yes", "on")
        if e._feeds_summary:
            # The reverse index is pure structure: every live reader edge
            # with a destination is a feeder of that destination.  The
            # serialized fsum/fsum_valid/root_bit fields are meter-exact
            # state; in_edges is rebuilt rather than serialized because
            # the edge set is already in the snapshot and a second
            # per-edge reference table would only bloat the blob.
            for stamp in e.order:
                owner = stamp.owner
                if (
                    type(owner) is ReadEdge
                    and not owner.dead
                    and owner.start is stamp
                ):
                    d = owner.dest
                    if d is not None:
                        ie = d.in_edges
                        if ie is None:
                            d.in_edges = {owner}
                        else:
                            ie.add(owner)


def _dead_stamp(key: int, gen: int) -> Stamp:
    """A keyed tombstone: enough stamp for heap re-keying and staleness
    checks, deliberately outside any order chain."""
    s = object.__new__(Stamp)
    s.key = key
    s.local = 0
    s.bucket = None
    s.prev = None
    s.next = None
    s.live = False
    s.gen = gen
    s.owner = None
    return s


@gc_paused
def decode_graph(doc: dict) -> Any:
    """Rebuild the object graph flattened by :func:`encode_graph`."""
    return _Decoder(doc).decode()
