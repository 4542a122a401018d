"""The flat stack-machine backend (``backend="stack"``).

The tree-walking interpreter recurses in the host: it nests one Python
frame per AST step, so every traced list cell costs a handful of CPython
frames during the initial run *and* again whenever change propagation
re-executes a reader.  Deep inputs (a 10^5-element cons chain, msort at
scale) therefore die with ``RecursionError``/``RecursionReexecutionError``
on it unless the process-wide recursion limit is cranked
(``REPRO_RECURSION_LIMIT``).

This module follows the *self-adjusting stack machines* idea (Hammer et
al., see PAPERS.md): flatten the translated SXML into linear instruction
sequences and drive them with an explicit control stack, so execution
depth lives in a Python list instead of the interpreter stack.  Machine
registers are ``(instrs, pc, frame, dest)``; the control stack holds
continuation records:

* ``K_RET``   -- a stable call awaiting the callee's value,
* ``K_MEMO``  -- an open memo interval awaiting its result,
* ``K_MOD``   -- an open ``mod`` awaiting its body's terminal write,
* ``K_READ``  -- an open read interval awaiting its reader's completion,
* ``K_DONE`` / ``K_DONEC`` -- the run's entry sentinel (stable value /
  re-executed reader).

The engine implements each primitive once, as split halves
(``mod_begin``/``mod_end``, ``read_begin``/``read_end``,
``memo_probe``/``memo_commit``); the ``mod``/``read``/``memo`` the
interpreter calls are wrappers that run their bodies synchronously
between the halves.  The machine calls the halves directly and
interleaves them with its own dispatch, producing the *identical*
engine-primitive sequence -- same stamps, meters, memo keys, hook
events -- as the interpreter (``tests/test_backends_differential.py``
holds the two meter-exact and their hook event streams equal).

A memoized call whose callee opens with its result ``mod``
(``Code.keyed``) passes its allocation key, built from compile-time key
slots, to ``memo_probe``; when the miss recycles a modifiable, the
machine hands it to the callee's opening ``MOD``.

Re-execution enters the machine the same way it enters the interpreter:
each ``READ`` registers a :class:`StackReader` as the edge's
reader callback, and ``Engine._drain`` re-invokes it with the new value.
A re-executed reader resumes mid-sequence -- ``__call__`` starts a fresh
dispatch loop at its reader code's entry with a fresh frame and the
captured destination, one Python frame total regardless of how deep the
traced structure is.  Copy reads (``read x as v in write v``) register
``partial(engine.write, dest)`` exactly like the interpreter, so their
re-execution never enters the machine at all.

Exception semantics mirror the interpreter's ``try``/``finally``
nesting: on any raise the dispatch loop walks the remaining control stack
innermost-first -- ``read_abort`` for open reads, ``mod_abort`` for open
mods (truncating at the outermost transactional checkpoint) -- and
re-raises unmangled, so transactional initial runs, propagate-time abort/
rollback/rebuild, lazy-demand hazards (``_DemandStaleRead``), and planted
faults from :mod:`repro.obs.faults` all behave identically.

Frame layout, slot allocation and atom/primitive staging come from
:mod:`repro.compile.closures`: slot 0 is the static link, binder names are
globally unique, and pure straight-line ``let`` segments stay fused Python
closures executed as a single ``STEPS`` instruction -- only the engine
boundaries (application, memo, mod, read) and control flow become
instructions.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import sxml as S
from repro.core.sxmlutil import opening_mod
from repro.compile.closures import _Scope, _Unit, atom, local_slot, prim
from repro.interp.builtins import BuiltinFn
from repro.interp.values import (
    ConValue,
    LmlRuntimeError,
    MatchFailure,
)
from repro.sac.api import memo_key
from repro.sac.engine import Engine
from repro.sac.modifiable import Modifiable

__all__ = ["StackClosure", "StackReader", "StackSelfAdjusting"]

# ----------------------------------------------------------------------
# Instruction set (tuples; first field is the opcode)

OP_STEPS = 0    # (op, run)                     fused pure let-steps
OP_RET = 1      # (op, g)                       return g(frame) to ctrl
OP_STOREJ = 2   # (op, slot, g, pc)             frame[slot] = g(frame); jump
OP_IF = 3       # (op, g, else_pc)              fallthrough = then arm
OP_CASE = 4     # (op, g, slot, table, dflt)    table: tag -> (bslot, pc)
OP_CASEK = 5    # (op, g, arms, dflt)           arms: (type, val) -> pc
OP_CALL = 6     # (op, slot, gf, ga, cont)      stable application
OP_TCALL = 7    # (op, gf, ga)                  tail application (a jump)
OP_MEMO = 8     # (op, slot, gf, ga, gk, cont)  memoized application
OP_TMEMO = 9    # (op, gf, ga, gk)              tail memoized application
OP_MOD = 10     # (op, slot, cont)              body at pc+1; slot None=tail
OP_READ = 11    # (op, gsrc, rcode, bslot)      terminal changeable read
OP_READC = 12   # (op, gsrc)                    fused copy read
OP_WRITE = 13   # (op, g)                       terminal changeable write
OP_WRITES = 14  # (op, slot)                    write of a local slot

# Control-stack record kinds
K_RET = 0       # (k, instrs, frame, slot, cont_pc)
K_MEMO = 1      # (k, entry)
K_MOD = 2       # (k, dest_mod, checkpoint, saved_dest, instrs, frame,
                #     slot, cont_pc)
K_READ = 3      # (k, edge)
K_DONE = 4      # (k,) -- entry sentinel: return the value
K_DONEC = 5     # (k,) -- entry sentinel: re-executed reader completed

_DONE = (K_DONE,)
_DONEC = (K_DONEC,)

#: Stable-compilation continuation sentinel: "return the value".
_RETK = object()


class _Ref:
    """A forward jump target, patched once its pc is known."""

    __slots__ = ("pc",)

    def __init__(self) -> None:
        self.pc: Optional[int] = None


class Code:
    """One flattened frame unit: the top level, a lambda body, or a
    reader body.  ``size`` (frame length) and ``param`` (argument /
    binder slot) are filled in after the whole unit is compiled.
    ``keyed``: a lambda body that opens with its result ``mod``
    (:func:`repro.core.sxmlutil.opening_mod`), so the first ``MOD`` it
    executes allocates the value it returns."""

    __slots__ = ("instrs", "size", "param", "name", "keyed")

    def __init__(self, name: str = "") -> None:
        self.instrs: Tuple[tuple, ...] = ()
        self.size = 0
        self.param = 0
        self.name = name
        self.keyed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<stack code {self.name or 'unit'} [{len(self.instrs)}]>"


class StackClosure:
    """A compiled function value: flat code plus its defining frame.

    Memoization keys by identity, exactly like the interpreter's
    ``Closure``, so compiler-inserted ``BMemoApp`` hits and misses line
    up one-for-one across both backends.
    """

    __slots__ = ("code", "frame")

    def __init__(self, code: Code, frame: list) -> None:
        self.code = code
        self.frame = frame

    def memo_key(self) -> Any:
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<stack closure {self.code.name or 'fn'}>"


class StackReader:
    """The reader callback a ``READ`` instruction registers on its edge.

    During the initial run the machine executes the reader body inline
    (no Python call); during change propagation ``Engine._drain`` calls
    this object with the modifiable's new value, and it resumes the
    flattened reader code mid-sequence: fresh frame, captured parent
    frame and destination, one dispatch loop -- constant Python stack
    depth no matter how deep the traced structure is.
    """

    __slots__ = ("rt", "code", "frame", "dest")

    def __init__(
        self, rt: "StackSelfAdjusting", code: Code, frame: list,
        dest: Optional[Modifiable],
    ) -> None:
        self.rt = rt
        self.code = code
        self.frame = frame
        self.dest = dest

    def __call__(self, value: Any) -> None:
        code = self.code
        frame = [None] * code.size
        frame[0] = self.frame
        frame[code.param] = value
        self.rt._execute(code.instrs, frame, self.dest, _DONEC)


# ----------------------------------------------------------------------
# Flattening pass


def _steps_run(steps: list) -> Callable:
    """One runner closure for a fused pure let-segment.

    Steps are ``(slot, g)`` stores or ``(None, g)`` effects (impwrite);
    the common one- and two-store segments get unrolled variants that
    skip the loop.
    """
    if len(steps) == 1 and steps[0][0] is not None:
        s1, b1 = steps[0]

        def run1(f):
            f[s1] = b1(f)

        return run1
    if (
        len(steps) == 2
        and steps[0][0] is not None
        and steps[1][0] is not None
    ):
        (s1, b1), (s2, b2) = steps

        def run2(f):
            f[s1] = b1(f)
            f[s2] = b2(f)

        return run2
    steps_t = tuple(steps)

    def run(f):
        for s, bf in steps_t:
            if s is None:
                bf(f)
            else:
                f[s] = bf(f)

    return run


def _is_ret_of(e: S.Expr, name: str) -> bool:
    """``e`` is exactly ``ret name`` -- the tail-position pattern."""
    return (
        type(e) is S.ERet
        and type(e.atom) is S.AVar
        and not e.atom.is_builtin
        and e.atom.name == name
    )


class _Flattener:
    """Compiles one frame unit into a flat instruction list.

    Shares the scope chain with enclosing units; lambda and reader bodies
    recurse into fresh flatteners (fresh units, this unit's scope as the
    static-link parent).
    """

    def __init__(self, rt: "StackSelfAdjusting", name: str = "") -> None:
        self.rt = rt
        self.instrs: List[list] = []
        self.name = name

    def emit(self, ins: list) -> int:
        self.instrs.append(ins)
        return len(self.instrs) - 1

    @property
    def pc(self) -> int:
        return len(self.instrs)

    def finalize(self) -> Tuple[tuple, ...]:
        """Resolve forward references and freeze the instruction list."""
        out = []
        for ins in self.instrs:
            fields = []
            for x in ins:
                if type(x) is _Ref:
                    x = x.pc
                elif type(x) is dict:
                    x = {
                        key: (
                            (tgt[0], tgt[1].pc)
                            if type(tgt) is tuple
                            else tgt.pc
                        )
                        for key, tgt in x.items()
                    }
                fields.append(x)
            out.append(tuple(fields))
        return tuple(out)

    # -- pure binds (no engine calls, no control flow) -----------------

    def pure_bind(self, b: S.Bind, sc: _Scope) -> Optional[Callable]:
        """A getter for ``b`` if it stages to a plain closure, else None.

        Applications, memoized applications, mods, and the control-flow
        binds return None and become instructions.
        """
        t = type(b)
        if t is S.BAtom or t is S.BAscribe:
            return atom(b.atom, sc)
        if t is S.BPrim:
            return prim(b, sc)
        if t is S.BTuple:
            getters = [atom(a, sc) for a in b.items]
            if len(getters) == 2:
                g1, g2 = getters
                return lambda f: (g1(f), g2(f))
            if len(getters) == 3:
                g1, g2, g3 = getters
                return lambda f: (g1(f), g2(f), g3(f))
            getters_t = tuple(getters)
            return lambda f: tuple(g(f) for g in getters_t)
        if t is S.BProj:
            g = atom(b.arg, sc)
            index = b.index - 1
            return lambda f: g(f)[index]
        if t is S.BCon:
            tag = b.tag
            if b.args:
                g = atom(b.args[0], sc)
                return lambda f: ConValue(tag, g(f))
            nullary = ConValue(tag)
            return lambda f: nullary
        if t is S.BLam:
            return self.lam(b, sc)
        if t is S.BAssign:
            gref = atom(b.ref, sc)
            gval = atom(b.value, sc)
            impwrite = self.rt.engine.impwrite

            def bassign(f):
                cell = gref(f)
                if not isinstance(cell, Modifiable):
                    raise LmlRuntimeError("assignment to a non-modifiable")
                impwrite(cell, gval(f))
                return ()

            return bassign
        if t is S.BMatchFail:

            def bmatchfail(f):
                raise MatchFailure("inexhaustive match")

            return bmatchfail
        return None

    def lam(self, b: S.BLam, sc: _Scope, name: str = "") -> Callable:
        """Compile a lambda body as its own unit; the getter allocates a
        :class:`StackClosure` over the current frame."""
        unit = _Unit()
        inner = _Scope(unit, sc)
        code = Code(name or b.name_hint)
        code.param = inner.bind(b.param)
        code.keyed = opening_mod(b.body) is not None
        em = _Flattener(self.rt, code.name)
        em.expr(b.body, inner, _RETK)
        code.instrs = em.finalize()
        code.size = unit.size
        return lambda f, _c=code: StackClosure(_c, f)

    # -- engine-boundary binds -----------------------------------------

    def _memo_getters(self, b: S.BMemoApp, sc: _Scope):
        """Getters for the function, the argument and the allocation key
        ``(site, *keys)``; the key getter reads compile-time slots."""
        site = b.site
        gs = [atom(k, sc) for k in b.keys]
        if not site:
            gk = None  # a hand-built call: unkeyed
        elif not gs:
            key = (site,)
            gk = lambda f: key  # noqa: E731
        elif len(gs) == 1:
            (g1,) = gs
            gk = lambda f: (site, g1(f))  # noqa: E731
        elif len(gs) == 2:
            g1, g2 = gs
            gk = lambda f: (site, g1(f), g2(f))  # noqa: E731
        elif len(gs) == 3:
            g1, g2, g3 = gs
            gk = lambda f: (site, g1(f), g2(f), g3(f))  # noqa: E731
        else:
            gs_t = tuple(gs)
            gk = lambda f: (site, *[g(f) for g in gs_t])  # noqa: E731
        return atom(b.fn, sc), atom(b.arg, sc), gk

    def bind_engine(self, b: S.Bind, slot: Optional[int], sc: _Scope,
                    cont) -> None:
        """Emit the instruction for an application/memo/mod bind.

        ``slot`` receives the result; ``cont`` is an int pc, a
        :class:`_Ref`, or None meaning "the next instruction" (filled in
        after emission).
        """
        t = type(b)
        if t is S.BApp:
            gf = atom(b.fn, sc)
            ga = atom(b.arg, sc)
            idx = self.emit([OP_CALL, slot, gf, ga, cont])
        elif t is S.BMemoApp:
            gf, ga, gk = self._memo_getters(b, sc)
            idx = self.emit([OP_MEMO, slot, gf, ga, gk, cont])
        elif t is S.BMod:
            idx = self.emit([OP_MOD, slot, cont])
            self.cexpr(b.body, sc)
        else:  # pragma: no cover - classification bug
            raise AssertionError(f"not an engine bind: {b!r}")
        if cont is None:
            self.instrs[idx][-1] = self.pc

    # -- stable expressions --------------------------------------------

    def expr(self, e: S.Expr, sc: _Scope, k) -> None:
        """Flatten a stable expression.

        ``k`` is the continuation: ``_RETK`` (deliver the value to the
        control stack) or ``(slot, ref)`` (store into ``slot`` of this
        frame and jump to ``ref``).
        """
        steps: list = []

        def flush() -> None:
            if steps:
                self.emit([OP_STEPS, _steps_run(steps)])
                del steps[:]

        while True:
            t = type(e)
            if t is S.ELet:
                b = e.bind
                g = self.pure_bind(b, sc)
                if g is not None:
                    steps.append((sc.bind(e.name), g))
                    e = e.body
                    continue
                flush()
                tb = type(b)
                if tb is S.BApp or tb is S.BMemoApp or tb is S.BMod:
                    if _is_ret_of(e.body, e.name):
                        # Tail position: the let-bound result is returned
                        # (or stored) immediately -- compile the call as a
                        # jump so deep recursion costs control-stack
                        # entries, never Python frames.
                        if k is _RETK:
                            if tb is S.BApp:
                                self.emit([
                                    OP_TCALL,
                                    atom(b.fn, sc),
                                    atom(b.arg, sc),
                                ])
                            elif tb is S.BMemoApp:
                                gf, ga, gk = self._memo_getters(b, sc)
                                self.emit([OP_TMEMO, gf, ga, gk])
                            else:
                                self.emit([OP_MOD, None, None])
                                self.cexpr(b.body, sc)
                            return
                        # (slot, ref) continuation: deliver straight into
                        # the outer slot and jump, skipping e.name's slot.
                        self.bind_engine(b, k[0], sc, k[1])
                        return
                    self.bind_engine(b, sc.bind(e.name), sc, None)
                    e = e.body
                    continue
                # Control-flow bind: BIf / BCase / BCaseConst.  The arms
                # are full stable expressions; flatten them with a
                # continuation that stores the bind's value.
                if _is_ret_of(e.body, e.name):
                    self.branch_bind(b, sc, k)
                    return
                slot = sc.bind(e.name)
                join = _Ref()
                self.branch_bind(b, sc, (slot, join))
                join.pc = self.pc
                e = e.body
            elif t is S.ELetRec:
                slots = [sc.bind(name) for name, _ in e.bindings]
                for slot, (name, lam) in zip(slots, e.bindings):
                    steps.append((slot, self.lam(lam, sc, name=name)))
                e = e.body
            elif t is S.ERet:
                g = atom(e.atom, sc)
                flush()
                if k is _RETK:
                    self.emit([OP_RET, g])
                else:
                    self.emit([OP_STOREJ, k[0], g, k[1]])
                return
            else:  # pragma: no cover - closed IR
                raise AssertionError(f"unknown expr {e!r}")

    def branch_bind(self, b: S.Bind, sc: _Scope, k) -> None:
        """Flatten a BIf/BCase/BCaseConst bind; every arm ends in ``k``."""
        t = type(b)
        if t is S.BIf:
            gcond = atom(b.cond, sc)
            els = _Ref()
            self.emit([OP_IF, gcond, els])
            self.expr(b.then, sc, k)
            els.pc = self.pc
            self.expr(b.els, sc, k)
            return
        if t is S.BCase:
            gscrut, sslot = self._scrut(b.scrut, sc)
            table: dict = {}
            arms = []
            for clause in b.clauses:
                cslot = (
                    sc.bind(clause.binder)
                    if clause.binder is not None
                    else None
                )
                if clause.tag not in table:
                    ref = _Ref()
                    table[clause.tag] = (cslot, ref)
                    arms.append((ref, clause.body))
            dflt = _Ref() if b.default is not None else None
            self.emit([OP_CASE, gscrut, sslot, table, dflt])
            for ref, body in arms:
                ref.pc = self.pc
                self.expr(body, sc, k)
            if dflt is not None:
                dflt.pc = self.pc
                self.expr(b.default, sc, k)
            return
        if t is S.BCaseConst:
            gscrut = atom(b.scrut, sc)
            arm_map: dict = {}
            arms = []
            for value, body in b.arms:
                key = (type(value), value)
                if key not in arm_map:
                    ref = _Ref()
                    arm_map[key] = ref
                    arms.append((ref, body))
            dflt = _Ref() if b.default is not None else None
            self.emit([OP_CASEK, gscrut, arm_map, dflt])
            for ref, body in arms:
                ref.pc = self.pc
                self.expr(body, sc, k)
            if dflt is not None:
                dflt.pc = self.pc
                self.expr(b.default, sc, k)
            return
        raise AssertionError(f"not a branching bind: {b!r}")

    def _scrut(self, a: S.Atom, sc: _Scope):
        """(getter, slot) for a case scrutinee -- slot dispatch when local."""
        slot = local_slot(a, sc)
        if slot is not None:
            return None, slot
        return atom(a, sc), None

    # -- changeable expressions ----------------------------------------

    def cexpr(self, e: S.CExpr, sc: _Scope) -> None:
        """Flatten a changeable expression (terminal: write or read)."""
        steps: list = []

        def flush() -> None:
            if steps:
                self.emit([OP_STEPS, _steps_run(steps)])
                del steps[:]

        while True:
            t = type(e)
            if t is S.CLet:
                b = e.bind
                g = self.pure_bind(b, sc)
                if g is not None:
                    steps.append((sc.bind(e.name), g))
                    e = e.body
                    continue
                flush()
                tb = type(b)
                if tb is S.BApp or tb is S.BMemoApp or tb is S.BMod:
                    self.bind_engine(b, sc.bind(e.name), sc, None)
                else:
                    slot = sc.bind(e.name)
                    join = _Ref()
                    self.branch_bind(b, sc, (slot, join))
                    join.pc = self.pc
                e = e.body
            elif t is S.CLetRec:
                slots = [sc.bind(name) for name, _ in e.bindings]
                for slot, (name, lam) in zip(slots, e.bindings):
                    steps.append((slot, self.lam(lam, sc, name=name)))
                e = e.body
            elif t is S.CImpWrite:
                gref = atom(e.ref, sc)
                gval = atom(e.value, sc)
                impwrite = self.rt.engine.impwrite
                steps.append(
                    (None, lambda f, _gr=gref, _gv=gval: impwrite(_gr(f), _gv(f)))
                )
                e = e.body
            elif t is S.CWrite:
                slot = local_slot(e.atom, sc)
                flush()
                if slot is not None:
                    self.emit([OP_WRITES, slot])
                else:
                    self.emit([OP_WRITE, atom(e.atom, sc)])
                return
            elif t is S.CRead:
                flush()
                self.cread(e, sc)
                return
            elif t is S.CIf:
                gcond = atom(e.cond, sc)
                flush()
                els = _Ref()
                self.emit([OP_IF, gcond, els])
                self.cexpr(e.then, sc)
                els.pc = self.pc
                self.cexpr(e.els, sc)
                return
            elif t is S.CCase:
                gscrut, sslot = self._scrut(e.scrut, sc)
                flush()
                self.ccase_arms(e, sc, gscrut, sslot)
                return
            elif t is S.CCaseConst:
                gscrut = atom(e.scrut, sc)
                flush()
                arm_map: dict = {}
                arms = []
                for value, body in e.arms:
                    key = (type(value), value)
                    if key not in arm_map:
                        ref = _Ref()
                        arm_map[key] = ref
                        arms.append((ref, body))
                dflt = _Ref() if e.default is not None else None
                self.emit([OP_CASEK, gscrut, arm_map, dflt])
                for ref, body in arms:
                    ref.pc = self.pc
                    self.cexpr(body, sc)
                if dflt is not None:
                    dflt.pc = self.pc
                    self.cexpr(e.default, sc)
                return
            else:  # pragma: no cover - closed IR
                raise AssertionError(f"unknown cexpr {e!r}")

    def ccase_arms(self, e, sc: _Scope, gscrut, sslot) -> None:
        """Emit a changeable case dispatch plus its arm bodies."""
        table: dict = {}
        arms = []
        for clause in e.clauses:
            cslot = (
                sc.bind(clause.binder) if clause.binder is not None else None
            )
            if clause.tag not in table:
                ref = _Ref()
                table[clause.tag] = (cslot, ref)
                arms.append((ref, clause.body))
        dflt = _Ref() if e.default is not None else None
        self.emit([OP_CASE, gscrut, sslot, table, dflt])
        for ref, body in arms:
            ref.pc = self.pc
            self.cexpr(body, sc)
        if dflt is not None:
            dflt.pc = self.pc
            self.cexpr(e.default, sc)

    def cread(self, e: S.CRead, sc: _Scope) -> None:
        """Flatten a read: copy-read fusion, fused read-case, or general.

        The reader body compiles as its own frame unit (fresh frame per
        (re-)execution, like the interpreter's fresh reader env); the
        fused read-case shape puts the ``CASE`` dispatch at the reader's
        entry so re-execution dispatches on the fresh value directly.
        """
        gsrc = atom(e.src, sc)
        body_e = e.body
        if (
            type(body_e) is S.CWrite
            and type(body_e.atom) is S.AVar
            and not body_e.atom.is_builtin
            and body_e.atom.name == e.binder
        ):
            # Copy read (``read x as v in write v``, the coercion shape of
            # Section 3.3): the registered reader is just
            # ``write(dest, value)`` -- identical to the interpreter, so
            # its re-execution never enters the machine.
            self.emit([OP_READC, gsrc])
            return
        unit = _Unit()
        inner = _Scope(unit, sc)
        code = Code(f"reader:{e.binder}")
        code.param = inner.bind(e.binder)
        em = _Flattener(self.rt, code.name)
        if (
            type(body_e) is S.CCase
            and type(body_e.scrut) is S.AVar
            and body_e.scrut.name == e.binder
        ):
            # Fused read-then-match: dispatch on the read value directly.
            em.ccase_arms(body_e, inner, None, code.param)
        else:
            em.cexpr(body_e, inner)
        code.instrs = em.finalize()
        code.size = unit.size
        self.emit([OP_READ, gsrc, code, code.param])


class StackSelfAdjusting:
    """The stack-machine backend.

    A drop-in alternative to ``SelfAdjustingInterpreter``: same
    constructor, same ``run``/``apply`` surface, same engine-primitive
    sequence -- but initial runs and re-executions proceed with constant
    Python stack depth, so deep workloads need no recursion-limit tuning.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    def run(self, expr: S.Expr) -> Any:
        unit = _Unit()
        sc = _Scope(unit)
        em = _Flattener(self, "main")
        em.expr(expr, sc, _RETK)
        code = Code("main")
        code.instrs = em.finalize()
        code.size = unit.size
        frame: List[Any] = [None] * code.size
        return self._execute(code.instrs, frame, None, _DONE)

    def apply(self, fn: Any, arg: Any) -> Any:
        if type(fn) is StackClosure:
            code = fn.code
            frame = [None] * code.size
            frame[0] = fn.frame
            frame[code.param] = arg
            return self._execute(code.instrs, frame, None, _DONE)
        if isinstance(fn, BuiltinFn):
            return fn.fn(self, arg)
        raise LmlRuntimeError(f"application of non-function {fn!r}")

    # ------------------------------------------------------------------

    def _execute(
        self,
        instrs: Tuple[tuple, ...],
        frame: list,
        dest: Optional[Modifiable],
        base: tuple,
    ) -> Any:
        """The dispatch loop: run ``instrs`` until ``base`` pops.

        One invocation is one Python frame; all nesting -- calls, memo
        intervals, mods, reads -- lives on the explicit ``ctrl`` stack.
        """
        engine = self.engine
        read_begin = engine.read_begin
        read_end = engine.read_end
        mod_begin = engine.mod_begin
        mod_end = engine.mod_end
        memo_probe = engine.memo_probe
        memo_commit = engine.memo_commit
        engine_write = engine.write
        ctrl: List[tuple] = [base]
        push = ctrl.append
        pop = ctrl.pop
        pc = 0
        #: a keyed memo miss's recycled modifiable, for the callee's
        #: opening MOD (the next MOD the machine executes)
        recycle = None
        try:
            while True:
                # ---- dispatch until a value return (1) or unwind (2)
                action = 0
                value = None
                while True:
                    ins = instrs[pc]
                    op = ins[0]
                    if op == OP_STEPS:
                        ins[1](frame)
                        pc += 1
                    elif op == OP_READ:
                        src = ins[1](frame)
                        if not isinstance(src, Modifiable):
                            raise LmlRuntimeError(
                                f"read of a non-modifiable value: {src!r}"
                            )
                        rcode = ins[2]
                        reader = StackReader(self, rcode, frame, dest)
                        edge, rvalue = read_begin(src, reader)
                        push((K_READ, edge))
                        # Fresh frame per (re-)execution, like the
                        # interpreter's fresh reader env.
                        frame = [None] * rcode.size
                        frame[0] = reader.frame
                        frame[ins[3]] = rvalue
                        instrs = rcode.instrs
                        pc = 0
                    elif op == OP_CASE:
                        g = ins[1]
                        scrut = frame[ins[2]] if g is None else g(frame)
                        ent = ins[3].get(scrut.tag)
                        if ent is not None:
                            bslot, pc = ent
                            if bslot is not None:
                                frame[bslot] = scrut.arg
                        elif ins[4] is not None:
                            pc = ins[4]
                        else:
                            raise MatchFailure(f"no clause for {scrut.tag}")
                    elif op == OP_MOD:
                        if recycle is None:
                            dmod, checkpoint = mod_begin()
                        else:
                            dmod, checkpoint = mod_begin(None, recycle)
                            recycle = None
                        push((
                            K_MOD, dmod, checkpoint, dest,
                            instrs, frame, ins[1], ins[2],
                        ))
                        dest = dmod
                        pc += 1
                    elif op == OP_WRITES:
                        engine_write(dest, frame[ins[1]])
                        action = 2
                        break
                    elif op == OP_WRITE:
                        engine_write(dest, ins[1](frame))
                        action = 2
                        break
                    elif op == OP_READC:
                        src = ins[1](frame)
                        if not isinstance(src, Modifiable):
                            raise LmlRuntimeError(
                                f"read of a non-modifiable value: {src!r}"
                            )
                        reader = partial(engine_write, dest)
                        edge, rvalue = read_begin(src, reader)
                        push((K_READ, edge))
                        reader(rvalue)
                        pop()
                        read_end(edge)
                        action = 2
                        break
                    elif op == OP_MEMO or op == OP_TMEMO:
                        tail = op == OP_TMEMO
                        if tail:
                            _o, gf, ga, gk = ins
                            slot = cont = None
                        else:
                            _o, slot, gf, ga, gk, cont = ins
                        fn = gf(frame)
                        kf = (
                            fn if type(fn) is StackClosure else memo_key(fn)
                        )
                        arg = ga(frame)
                        ta = type(arg)
                        if (
                            ta is Modifiable or ta is int or ta is str
                            or ta is bool
                        ):
                            ka = arg
                        elif ta is ConValue:
                            ka = arg.memo_key()
                        else:
                            ka = memo_key(arg)
                        hit, result, entry = memo_probe(
                            (kf, ka),
                            gk
                            if type(fn) is StackClosure and fn.code.keyed
                            else None,
                            frame,
                        )
                        if hit:
                            if tail:
                                value = result
                                action = 1
                                break
                            frame[slot] = result
                            pc = cont
                        elif type(fn) is StackClosure:
                            if not tail:
                                push((K_RET, instrs, frame, slot, cont))
                            push((K_MEMO, entry))
                            rcode = fn.code
                            nf = [None] * rcode.size
                            nf[0] = fn.frame
                            nf[rcode.param] = arg
                            frame = nf
                            instrs = rcode.instrs
                            pc = 0
                            recycle = entry.result
                        elif isinstance(fn, BuiltinFn):
                            result = fn.fn(self, arg)
                            memo_commit(entry, result)
                            if tail:
                                value = result
                                action = 1
                                break
                            frame[slot] = result
                            pc = cont
                        else:
                            raise LmlRuntimeError(
                                f"application of non-function {fn!r}"
                            )
                    elif op == OP_CALL or op == OP_TCALL:
                        if op == OP_CALL:
                            _o, slot, gf, ga, cont = ins
                        else:
                            _o, gf, ga = ins
                        fn = gf(frame)
                        arg = ga(frame)
                        if type(fn) is StackClosure:
                            if op == OP_CALL:
                                push((K_RET, instrs, frame, slot, cont))
                            rcode = fn.code
                            nf = [None] * rcode.size
                            nf[0] = fn.frame
                            nf[rcode.param] = arg
                            frame = nf
                            instrs = rcode.instrs
                            pc = 0
                        elif isinstance(fn, BuiltinFn):
                            result = fn.fn(self, arg)
                            if op == OP_TCALL:
                                value = result
                                action = 1
                                break
                            frame[slot] = result
                            pc = cont
                        else:
                            raise LmlRuntimeError(
                                f"application of non-function {fn!r}"
                            )
                    elif op == OP_RET:
                        value = ins[1](frame)
                        action = 1
                        break
                    elif op == OP_STOREJ:
                        frame[ins[1]] = ins[2](frame)
                        pc = ins[3]
                    elif op == OP_IF:
                        if ins[1](frame):
                            pc += 1
                        else:
                            pc = ins[2]
                    elif op == OP_CASEK:
                        scrut = ins[1](frame)
                        pc = ins[2].get((type(scrut), scrut))
                        if pc is None:
                            pc = ins[3]
                            if pc is None:
                                raise MatchFailure(f"no arm for {scrut!r}")
                    else:  # pragma: no cover - compiler bug
                        raise AssertionError(f"unknown opcode {op}")

                # ---- return / unwind through the control stack
                while True:
                    top = pop()
                    k = top[0]
                    if action == 1:
                        if k == K_MEMO:
                            memo_commit(top[1], value)
                            continue
                        if k == K_RET:
                            instrs = top[1]
                            frame = top[2]
                            frame[top[3]] = value
                            pc = top[4]
                            break
                        if k == K_DONE:
                            return value
                        raise AssertionError("corrupt control stack")
                    # action == 2: a changeable chain finished (write /
                    # copy-read); close the enclosing read and mod
                    # intervals exactly as the recursive returns would.
                    if k == K_READ:
                        read_end(top[1])
                        continue
                    if k == K_MOD:
                        dmod = top[1]
                        mod_end(dmod, top[2])
                        dest = top[3]
                        slot = top[6]
                        if slot is None:
                            # Tail-position mod: its destination is the
                            # value being returned.
                            value = dmod
                            action = 1
                            continue
                        instrs = top[4]
                        frame = top[5]
                        frame[slot] = dmod
                        pc = top[7]
                        break
                    if k == K_DONEC:
                        return None
                    raise AssertionError("corrupt control stack")
        except BaseException:
            # Mirror the interpreter's try/finally nesting: release
            # open intervals innermost-first, truncating at the outermost
            # transactional mod, then re-raise unmangled so the engine's
            # failure handling (transactional abort, rollback/rebuild,
            # lazy-demand hazards, fault injection) sees exactly what it
            # would from the interpreter.
            read_abort = engine.read_abort
            mod_abort = engine.mod_abort
            while ctrl:
                top = ctrl.pop()
                k = top[0]
                if k == K_READ:
                    read_abort(top[1])
                elif k == K_MOD:
                    mod_abort(top[1], top[2])
            raise
