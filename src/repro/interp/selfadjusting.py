"""The self-adjusting interpreter: runs translated SXML against an Engine.

Stable expressions evaluate to values; changeable expressions execute with
a destination modifiable, ending in a ``write`` (possibly under nested
reads).  Read continuations capture their environment frame and destination
so the engine can re-execute them during change propagation.

Memoized applications (``BMemoApp``) key on the function closure's identity
plus the structural/identity memo key of the argument -- the same strategy
as the AFL library benchmarks (paper Section 4.1).

Dispatch is by exact type (``type(x) is BApp``): the SXML node classes are
leaves of a closed IR, so ``isinstance`` ladders -- the single hottest cost
in profiles of this backend -- reduce to identity checks against
module-level aliases, ordered by measured execution frequency under change
propagation.  Atom resolution (variable lookup) is additionally inlined at
the hottest sites.  Constructor values are plain
:class:`~repro.interp.values.ConValue` objects: equal cells built twice are
two objects, compared structurally by the write cutoff and keyed
structurally by the memo tables.

Exception transparency: this backend deliberately contains no exception
handlers.  Anything raised while evaluating user code -- a failing
builtin, a ``MatchFailure``, a ``RecursionError``, a planted fault from
:mod:`repro.obs.faults` -- propagates unmangled to the engine, whose
transactional re-execution wrapper (DESIGN.md Section 7) owns failure
handling.  Catching here would corrupt that contract.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.core import sxml as S
from repro.interp.builtins import BUILTIN_IMPLS, PRIM2, BuiltinFn, eval_prim
from repro.interp.values import (
    _MISSING,
    Closure,
    ConValue,
    Env,
    LmlRuntimeError,
    MatchFailure,
)
from repro.sac.api import memo_key
from repro.sac.engine import Engine
from repro.sac.modifiable import Modifiable

# Exact-type dispatch targets, hoisted out of the module-attribute namespace
# so each test is one load plus an identity compare.
_AVar = S.AVar
_ELet = S.ELet
_ELetRec = S.ELetRec
_ERet = S.ERet
_BAtom = S.BAtom
_BPrim = S.BPrim
_BApp = S.BApp
_BMemoApp = S.BMemoApp
_BTuple = S.BTuple
_BProj = S.BProj
_BCon = S.BCon
_BLam = S.BLam
_BIf = S.BIf
_BCase = S.BCase
_BCaseConst = S.BCaseConst
_BMod = S.BMod
_BAssign = S.BAssign
_BAscribe = S.BAscribe
_BMatchFail = S.BMatchFail
_CWrite = S.CWrite
_CRead = S.CRead
_CLet = S.CLet
_CLetRec = S.CLetRec
_CIf = S.CIf
_CCase = S.CCase
_CCaseConst = S.CCaseConst
_CImpWrite = S.CImpWrite


class SelfAdjustingInterpreter:
    """Evaluates translated SXML with self-adjusting primitives."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    def run(self, expr: S.Expr) -> Any:
        return self.eval(expr, Env())

    # ------------------------------------------------------------------

    def apply(self, fn: Any, arg: Any) -> Any:
        if type(fn) is Closure:
            env = Env(fn.env)
            env.vars[fn.param] = arg
            return self.eval(fn.body, env)
        if type(fn) is BuiltinFn:
            return fn.fn(self, arg)
        raise LmlRuntimeError(f"application of non-function {fn!r}")

    def atom(self, a: S.Atom, env: Env) -> Any:
        if type(a) is _AVar:
            if a.is_builtin:
                return BUILTIN_IMPLS[a.name]
            # Inlined Env.lookup: one method call per variable reference is
            # the single largest interpreter cost under propagation.
            name = a.name
            scope = env
            while scope is not None:
                found = scope.vars.get(name, _MISSING)
                if found is not _MISSING:
                    return found
                scope = scope.parent
            raise LmlRuntimeError(f"unbound variable at runtime: {name}")
        return a.value

    # ------------------------------------------------------------------
    # Stable mode

    def eval(self, e: S.Expr, env: Env) -> Any:
        while True:
            t = type(e)
            if t is _ELet:
                env.vars[e.name] = self.eval_bind(e.bind, env)
                e = e.body
            elif t is _ERet:
                return self.atom(e.atom, env)
            elif t is _ELetRec:
                for name, lam in e.bindings:
                    env.vars[name] = Closure(lam.param, lam.body, env, name=name)
                e = e.body
            else:
                raise AssertionError(f"unknown expr {e!r}")

    def eval_bind(self, b: S.Bind, env: Env) -> Any:
        # Branches ordered by measured dispatch frequency during change
        # propagation of the list benchmarks (msort/filter): projections
        # and tuple building dominate, then mod/prim/memoized application.
        t = type(b)
        if t is _BProj:
            a = b.arg
            index = b.index - 1
            if type(a) is _AVar and not a.is_builtin:
                name = a.name
                scope = env
                while scope is not None:
                    found = scope.vars.get(name, _MISSING)
                    if found is not _MISSING:
                        return found[index]
                    scope = scope.parent
                raise LmlRuntimeError(f"unbound variable at runtime: {name}")
            return self.atom(a, env)[index]
        if t is _BTuple:
            items = b.items
            atom = self.atom
            n = len(items)
            if n == 2:
                # Pairs dominate (every split/merge builds them); resolve
                # both operands with the inlined variable lookup.
                a = items[0]
                if type(a) is _AVar and not a.is_builtin:
                    name = a.name
                    scope = env
                    while scope is not None:
                        x = scope.vars.get(name, _MISSING)
                        if x is not _MISSING:
                            break
                        scope = scope.parent
                    else:
                        raise LmlRuntimeError(
                            f"unbound variable at runtime: {name}"
                        )
                else:
                    x = atom(a, env)
                a = items[1]
                if type(a) is _AVar and not a.is_builtin:
                    name = a.name
                    scope = env
                    while scope is not None:
                        y = scope.vars.get(name, _MISSING)
                        if y is not _MISSING:
                            break
                        scope = scope.parent
                    else:
                        raise LmlRuntimeError(
                            f"unbound variable at runtime: {name}"
                        )
                else:
                    y = atom(a, env)
                return (x, y)
            if n == 3:
                return (atom(items[0], env), atom(items[1], env), atom(items[2], env))
            return tuple(atom(a, env) for a in items)
        if t is _BMod:
            return self.engine.mod(
                lambda dest, body=b.body, env=Env(env): self.ceval(body, env, dest)
            )
        if t is _BPrim:
            args = b.args
            if len(args) == 2:
                fn2 = PRIM2.get(b.op)
                if fn2 is not None:
                    # Two-argument primitive with no error path of its own
                    # (comparisons and arithmetic in recursive traversals):
                    # dispatch through the operator table with both
                    # operands resolved inline.
                    a = args[0]
                    if type(a) is _AVar and not a.is_builtin:
                        name = a.name
                        scope = env
                        while scope is not None:
                            x = scope.vars.get(name, _MISSING)
                            if x is not _MISSING:
                                break
                            scope = scope.parent
                        else:
                            raise LmlRuntimeError(
                                f"unbound variable at runtime: {name}"
                            )
                    else:
                        x = self.atom(a, env)
                    a = args[1]
                    if type(a) is _AVar and not a.is_builtin:
                        name = a.name
                        scope = env
                        while scope is not None:
                            y = scope.vars.get(name, _MISSING)
                            if y is not _MISSING:
                                break
                            scope = scope.parent
                        else:
                            raise LmlRuntimeError(
                                f"unbound variable at runtime: {name}"
                            )
                    else:
                        y = self.atom(a, env)
                    return fn2(x, y)
            return eval_prim(b.op, [self.atom(a, env) for a in args])
        if t is _BMemoApp:
            fn = self.atom(b.fn, env)
            arg = self.atom(b.arg, env)
            # Inline the dominant memo-key shapes (closure identity,
            # modifiable identity, scalar value, constructor value); the
            # generic memo_key() produces identical keys, just slower.
            tf = type(fn)
            fk = fn if (tf is Closure or tf is Modifiable) else memo_key(fn)
            ta = type(arg)
            if ta is Modifiable or ta is int or ta is str or ta is bool:
                ak = arg
            elif ta is ConValue:
                ak = arg.memo_key()
            else:
                ak = memo_key(arg)
            return self.engine.memo((fk, ak), lambda: self.apply(fn, arg))
        if t is _BCon:
            if b.args:
                # One cons cell per list element re-created under
                # propagation: inline the operand lookup here too.
                a = b.args[0]
                if type(a) is _AVar and not a.is_builtin:
                    name = a.name
                    scope = env
                    while scope is not None:
                        x = scope.vars.get(name, _MISSING)
                        if x is not _MISSING:
                            return ConValue(b.tag, x)
                        scope = scope.parent
                    raise LmlRuntimeError(
                        f"unbound variable at runtime: {name}"
                    )
                return ConValue(b.tag, self.atom(a, env))
            return ConValue(b.tag)
        if t is _BIf:
            cond = self.atom(b.cond, env)
            return self.eval(b.then if cond else b.els, Env(env))
        if t is _BApp:
            fn = self.atom(b.fn, env)
            # Inlined atom() for the argument plus the Closure entry of
            # apply(): one application is otherwise three method calls.
            a = b.arg
            if type(a) is _AVar and not a.is_builtin:
                name = a.name
                scope = env
                arg = None
                while scope is not None:
                    arg = scope.vars.get(name, _MISSING)
                    if arg is not _MISSING:
                        break
                    scope = scope.parent
                else:
                    raise LmlRuntimeError(f"unbound variable at runtime: {name}")
            else:
                arg = self.atom(a, env)
            if type(fn) is Closure:
                env = Env(fn.env)
                env.vars[fn.param] = arg
                return self.eval(fn.body, env)
            return self.apply(fn, arg)
        if t is _BCase:
            scrut = self.atom(b.scrut, env)
            tag_map = b.tag_map
            if tag_map is not None:
                clause = tag_map.get(scrut.tag)
            else:  # un-indexed (hand-built) AST: linear clause scan
                clause = None
                for candidate in b.clauses:
                    if candidate.tag == scrut.tag:
                        clause = candidate
                        break
            if clause is not None:
                inner = Env(env)
                if clause.binder is not None:
                    inner.vars[clause.binder] = scrut.arg
                return self.eval(clause.body, inner)
            if b.default is not None:
                return self.eval(b.default, Env(env))
            raise MatchFailure(f"no clause for {scrut.tag}")
        if t is _BAtom:
            a = b.atom
            if type(a) is _AVar:
                if a.is_builtin:
                    return BUILTIN_IMPLS[a.name]
                name = a.name
                scope = env
                while scope is not None:
                    found = scope.vars.get(name, _MISSING)
                    if found is not _MISSING:
                        return found
                    scope = scope.parent
                raise LmlRuntimeError(f"unbound variable at runtime: {name}")
            return a.value
        if t is _BLam:
            return Closure(b.param, b.body, env, name=b.name_hint)
        if t is _BAssign:
            cell = self.atom(b.ref, env)
            if not isinstance(cell, Modifiable):
                raise LmlRuntimeError("assignment to a non-modifiable")
            self.engine.impwrite(cell, self.atom(b.value, env))
            return ()
        if t is _BAscribe:
            return self.atom(b.atom, env)
        if t is _BMatchFail:
            raise MatchFailure("inexhaustive match")
        # BRef / BDeref never survive translation (they become mod/aliases).
        raise AssertionError(f"unexpected bind in translated code: {b!r}")

    # ------------------------------------------------------------------
    # Changeable mode

    def ceval(self, e: S.CExpr, env: Env, dest: Modifiable) -> None:
        engine = self.engine
        while True:
            t = type(e)
            if t is _CLet:
                env.vars[e.name] = self.eval_bind(e.bind, env)
                e = e.body
            elif t is _CCase:
                a = e.scrut
                if type(a) is _AVar and not a.is_builtin:
                    name = a.name
                    scope = env
                    scrut = None
                    while scope is not None:
                        scrut = scope.vars.get(name, _MISSING)
                        if scrut is not _MISSING:
                            break
                        scope = scope.parent
                    else:
                        raise LmlRuntimeError(
                            f"unbound variable at runtime: {name}"
                        )
                else:
                    scrut = self.atom(a, env)
                tag_map = e.tag_map
                if tag_map is not None:
                    chosen = tag_map.get(scrut.tag)
                else:  # un-indexed (hand-built) AST: linear clause scan
                    chosen = None
                    for clause in e.clauses:
                        if clause.tag == scrut.tag:
                            chosen = clause
                            break
                if chosen is not None:
                    env = Env(env)
                    if chosen.binder is not None:
                        env.vars[chosen.binder] = scrut.arg
                    e = chosen.body
                elif e.default is not None:
                    env = Env(env)
                    e = e.default
                else:
                    raise MatchFailure(f"no clause for {scrut.tag}")
            elif t is _CWrite:
                # Inlined atom(): CWrite/CRead atoms are the hottest
                # resolutions under change propagation.
                a = e.atom
                if type(a) is _AVar:
                    if a.is_builtin:
                        value = BUILTIN_IMPLS[a.name]
                    else:
                        name = a.name
                        scope = env
                        while scope is not None:
                            value = scope.vars.get(name, _MISSING)
                            if value is not _MISSING:
                                break
                            scope = scope.parent
                        else:
                            raise LmlRuntimeError(
                                f"unbound variable at runtime: {name}"
                            )
                else:
                    value = a.value
                engine.write(dest, value)
                return
            elif t is _CRead:
                a = e.src
                if type(a) is _AVar and not a.is_builtin:
                    name = a.name
                    scope = env
                    src = None
                    while scope is not None:
                        src = scope.vars.get(name, _MISSING)
                        if src is not _MISSING:
                            break
                        scope = scope.parent
                    else:
                        raise LmlRuntimeError(
                            f"unbound variable at runtime: {name}"
                        )
                else:
                    src = self.atom(a, env)
                if not isinstance(src, Modifiable):
                    raise LmlRuntimeError(
                        f"read of a non-modifiable value: {src!r}"
                    )
                body_e = e.body
                binder = e.binder
                tb = type(body_e)
                if (
                    tb is _CWrite
                    and type(body_e.atom) is _AVar
                    and not body_e.atom.is_builtin
                    and body_e.atom.name == binder
                ):
                    # Copy read (``read x as v in write v``, the coercion
                    # shape of Section 3.3): the reader is just
                    # ``write(dest, value)`` -- no frame, no dispatch.
                    engine.read(src, partial(engine.write, dest))
                    return
                if (
                    tb is _CCase
                    and type(body_e.scrut) is _AVar
                    and body_e.scrut.name == binder
                ):
                    # Fused read-then-match (``read l as v in case v of
                    # ...``, the translation of every recursive list
                    # traversal): the reader dispatches on the fresh value
                    # directly.  Binder names are globally unique, so the
                    # read binder and the clause binder share one frame.
                    def reader_case(value, e=body_e, env=env, binder=binder, dest=dest):
                        inner = Env(env)
                        inner.vars[binder] = value
                        tag_map = e.tag_map
                        if tag_map is not None:
                            chosen = tag_map.get(value.tag)
                        else:
                            chosen = None
                            for clause in e.clauses:
                                if clause.tag == value.tag:
                                    chosen = clause
                                    break
                        if chosen is not None:
                            if chosen.binder is not None:
                                inner.vars[chosen.binder] = value.arg
                            self.ceval(chosen.body, inner, dest)
                        elif e.default is not None:
                            self.ceval(e.default, inner, dest)
                        else:
                            raise MatchFailure(f"no clause for {value.tag}")

                    engine.read(src, reader_case)
                    return

                def reader(value, body=body_e, env=env, binder=binder, dest=dest):
                    inner = Env(env)
                    inner.vars[binder] = value
                    self.ceval(body, inner, dest)

                engine.read(src, reader)
                return
            elif t is _CIf:
                cond = self.atom(e.cond, env)
                env = Env(env)
                e = e.then if cond else e.els
            elif t is _CLetRec:
                for name, lam in e.bindings:
                    env.vars[name] = Closure(lam.param, lam.body, env, name=name)
                e = e.body
            elif t is _CCaseConst:
                scrut = self.atom(e.scrut, env)
                arm_map = e.arm_map
                if arm_map is not None:
                    target = arm_map.get((type(scrut), scrut))
                else:  # un-indexed (hand-built) AST: linear arm scan
                    target = None
                    for value, body in e.arms:
                        if value == scrut and type(value) is type(scrut):
                            target = body
                            break
                if target is None:
                    if e.default is None:
                        raise MatchFailure(f"no arm for {scrut!r}")
                    target = e.default
                env = Env(env)
                e = target
            elif t is _CImpWrite:
                cell = self.atom(e.ref, env)
                engine.impwrite(cell, self.atom(e.value, env))
                e = e.body
            else:
                raise AssertionError(f"unknown cexpr {e!r}")
