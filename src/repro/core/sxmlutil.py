"""Utilities over the SXML IR: substitution, free variables, copy
propagation.  Shared by A-normalization, the optimizer, and dead-code
elimination.

All passes assume globally unique binder names (guaranteed by uniquify /
monomorphization), so substitution never needs capture avoidance.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core import sxml as S


def _resolve(atom: S.Atom, env: Dict[str, S.Atom]) -> S.Atom:
    while isinstance(atom, S.AVar) and atom.name in env:
        atom = env[atom.name]
    return atom


def subst_expr(e, env: Dict[str, S.Atom]):
    """Substitute atoms for variables throughout an Expr or CExpr."""
    if not env:
        return e
    return _sub(e, env)


def copy_propagate(e):
    """Remove ``let x = y`` / ``let x = c`` bindings, substituting through."""
    return _cp(e, {})


# ----------------------------------------------------------------------


def _cp(e, env: Dict[str, S.Atom]):
    if isinstance(e, S.ELet) and isinstance(e.bind, S.BAtom):
        env = dict(env)
        env[e.name] = _resolve(e.bind.atom, env)
        return _cp(e.body, env)
    if isinstance(e, S.CLet) and isinstance(e.bind, S.BAtom):
        env = dict(env)
        env[e.name] = _resolve(e.bind.atom, env)
        return _cp(e.body, env)
    return _sub(e, env, again=_cp)


def _sub(e, env: Dict[str, S.Atom], again=None):
    """Structural map over Expr/CExpr applying the substitution ``env``.

    ``again`` lets :func:`_cp` re-dispatch on children (so nested trivial
    lets are removed too); plain substitution recurses into itself.
    """
    rec = again or (lambda x, v: _sub(x, v))
    at = lambda a: _resolve(a, env)  # noqa: E731

    # -- stable expressions
    if isinstance(e, S.ELet):
        return S.ELet(ty=e.ty, name=e.name, bind=_sub_bind(e.bind, env, rec), body=rec(e.body, env))
    if isinstance(e, S.ELetRec):
        bindings = [(n, _sub_bind(b, env, rec)) for n, b in e.bindings]
        return S.ELetRec(ty=e.ty, bindings=bindings, body=rec(e.body, env))
    if isinstance(e, S.ERet):
        return S.ERet(ty=e.ty, atom=at(e.atom))
    # -- changeable expressions
    if isinstance(e, S.CWrite):
        return S.CWrite(atom=at(e.atom))
    if isinstance(e, S.CRead):
        return S.CRead(src=at(e.src), binder=e.binder, binder_ty=e.binder_ty, body=rec(e.body, env))
    if isinstance(e, S.CLet):
        return S.CLet(name=e.name, bind=_sub_bind(e.bind, env, rec), body=rec(e.body, env))
    if isinstance(e, S.CLetRec):
        bindings = [(n, _sub_bind(b, env, rec)) for n, b in e.bindings]
        return S.CLetRec(bindings=bindings, body=rec(e.body, env))
    if isinstance(e, S.CIf):
        return S.CIf(cond=at(e.cond), then=rec(e.then, env), els=rec(e.els, env))
    if isinstance(e, S.CCase):
        clauses = [
            S.CaseClause(tag=c.tag, binder=c.binder, binder_ty=c.binder_ty, body=rec(c.body, env))
            for c in e.clauses
        ]
        default = rec(e.default, env) if e.default is not None else None
        return S.CCase(dt=e.dt, scrut=at(e.scrut), clauses=clauses, default=default)
    if isinstance(e, S.CCaseConst):
        arms = [(v, rec(b, env)) for v, b in e.arms]
        default = rec(e.default, env) if e.default is not None else None
        return S.CCaseConst(scrut=at(e.scrut), arms=arms, default=default)
    if isinstance(e, S.CImpWrite):
        return S.CImpWrite(ref=at(e.ref), value=at(e.value), body=rec(e.body, env))
    raise AssertionError(f"unknown SXML node {e!r}")


def _sub_bind(b: S.Bind, env: Dict[str, S.Atom], rec) -> S.Bind:
    at = lambda a: _resolve(a, env)  # noqa: E731
    if isinstance(b, S.BAtom):
        return S.BAtom(ty=b.ty, atom=at(b.atom))
    if isinstance(b, S.BPrim):
        return S.BPrim(ty=b.ty, op=b.op, args=[at(a) for a in b.args])
    if isinstance(b, S.BApp):
        return S.BApp(ty=b.ty, fn=at(b.fn), arg=at(b.arg))
    if isinstance(b, S.BMemoApp):
        return S.BMemoApp(
            ty=b.ty, fn=at(b.fn), arg=at(b.arg), site=b.site,
            keys=[at(a) for a in b.keys],
        )
    if isinstance(b, S.BTuple):
        return S.BTuple(ty=b.ty, items=[at(a) for a in b.items])
    if isinstance(b, S.BProj):
        return S.BProj(ty=b.ty, index=b.index, arg=at(b.arg))
    if isinstance(b, S.BCon):
        return S.BCon(ty=b.ty, dt=b.dt, tag=b.tag, args=[at(a) for a in b.args])
    if isinstance(b, S.BLam):
        return S.BLam(
            ty=b.ty, param=b.param, param_ty=b.param_ty, body=rec(b.body, env),
            param_spec=b.param_spec, name_hint=b.name_hint,
        )
    if isinstance(b, S.BIf):
        return S.BIf(ty=b.ty, cond=at(b.cond), then=rec(b.then, env), els=rec(b.els, env))
    if isinstance(b, S.BCase):
        clauses = [
            S.CaseClause(tag=c.tag, binder=c.binder, binder_ty=c.binder_ty, body=rec(c.body, env))
            for c in b.clauses
        ]
        default = rec(b.default, env) if b.default is not None else None
        return S.BCase(ty=b.ty, dt=b.dt, scrut=at(b.scrut), clauses=clauses, default=default)
    if isinstance(b, S.BCaseConst):
        arms = [(v, rec(body, env)) for v, body in b.arms]
        default = rec(b.default, env) if b.default is not None else None
        return S.BCaseConst(ty=b.ty, scrut=at(b.scrut), arms=arms, default=default)
    if isinstance(b, S.BRef):
        return S.BRef(ty=b.ty, arg=at(b.arg))
    if isinstance(b, S.BDeref):
        return S.BDeref(ty=b.ty, arg=at(b.arg))
    if isinstance(b, S.BAssign):
        return S.BAssign(ty=b.ty, ref=at(b.ref), value=at(b.value))
    if isinstance(b, S.BAscribe):
        return S.BAscribe(ty=b.ty, atom=at(b.atom), spec=b.spec)
    if isinstance(b, S.BMatchFail):
        return b
    if isinstance(b, S.BMod):
        return S.BMod(ty=b.ty, body=rec(b.body, env))
    raise AssertionError(f"unknown bind {b!r}")


# ----------------------------------------------------------------------
# Free variables


def free_vars(e, acc: Optional[Set[str]] = None, bound: Optional[Set[str]] = None) -> Set[str]:
    """Free variable names of an Expr, CExpr, or Bind."""
    if acc is None:
        acc = set()
    if bound is None:
        bound = set()
    _fv(e, acc, bound)
    return acc


def _fv_atom(a: S.Atom, acc: Set[str], bound: Set[str]) -> None:
    if isinstance(a, S.AVar) and a.name not in bound and not a.is_builtin:
        acc.add(a.name)


def _fv(e, acc: Set[str], bound: Set[str]) -> None:
    if isinstance(e, S.ELet):
        _fv_bind(e.bind, acc, bound)
        _fv(e.body, acc, bound | {e.name})
    elif isinstance(e, S.ELetRec):
        names = {n for n, _ in e.bindings}
        for _n, lam in e.bindings:
            _fv_bind(lam, acc, bound | names)
        _fv(e.body, acc, bound | names)
    elif isinstance(e, S.ERet):
        _fv_atom(e.atom, acc, bound)
    elif isinstance(e, S.CWrite):
        _fv_atom(e.atom, acc, bound)
    elif isinstance(e, S.CRead):
        _fv_atom(e.src, acc, bound)
        _fv(e.body, acc, bound | {e.binder})
    elif isinstance(e, S.CLet):
        _fv_bind(e.bind, acc, bound)
        _fv(e.body, acc, bound | {e.name})
    elif isinstance(e, S.CLetRec):
        names = {n for n, _ in e.bindings}
        for _n, lam in e.bindings:
            _fv_bind(lam, acc, bound | names)
        _fv(e.body, acc, bound | names)
    elif isinstance(e, S.CIf):
        _fv_atom(e.cond, acc, bound)
        _fv(e.then, acc, bound)
        _fv(e.els, acc, bound)
    elif isinstance(e, (S.CCase, S.CCaseConst)):
        _fv_atom(e.scrut, acc, bound)
        if isinstance(e, S.CCase):
            for c in e.clauses:
                extra = {c.binder} if c.binder else set()
                _fv(c.body, acc, bound | extra)
        else:
            for _v, body in e.arms:
                _fv(body, acc, bound)
        if e.default is not None:
            _fv(e.default, acc, bound)
    elif isinstance(e, S.CImpWrite):
        _fv_atom(e.ref, acc, bound)
        _fv_atom(e.value, acc, bound)
        _fv(e.body, acc, bound)
    elif isinstance(e, S.Bind):
        _fv_bind(e, acc, bound)
    else:
        raise AssertionError(f"unknown SXML node {e!r}")


def _fv_bind(b: S.Bind, acc: Set[str], bound: Set[str]) -> None:
    if isinstance(b, S.BAtom):
        _fv_atom(b.atom, acc, bound)
    elif isinstance(b, S.BPrim):
        for a in b.args:
            _fv_atom(a, acc, bound)
    elif isinstance(b, S.BApp):
        _fv_atom(b.fn, acc, bound)
        _fv_atom(b.arg, acc, bound)
    elif isinstance(b, S.BMemoApp):
        _fv_atom(b.fn, acc, bound)
        _fv_atom(b.arg, acc, bound)
        for a in b.keys:
            _fv_atom(a, acc, bound)
    elif isinstance(b, S.BTuple):
        for a in b.items:
            _fv_atom(a, acc, bound)
    elif isinstance(b, S.BProj):
        _fv_atom(b.arg, acc, bound)
    elif isinstance(b, S.BCon):
        for a in b.args:
            _fv_atom(a, acc, bound)
    elif isinstance(b, S.BLam):
        _fv(b.body, acc, bound | {b.param})
    elif isinstance(b, S.BIf):
        _fv_atom(b.cond, acc, bound)
        _fv(b.then, acc, bound)
        _fv(b.els, acc, bound)
    elif isinstance(b, S.BCase):
        _fv_atom(b.scrut, acc, bound)
        for c in b.clauses:
            extra = {c.binder} if c.binder else set()
            _fv(c.body, acc, bound | extra)
        if b.default is not None:
            _fv(b.default, acc, bound)
    elif isinstance(b, S.BCaseConst):
        _fv_atom(b.scrut, acc, bound)
        for _v, body in b.arms:
            _fv(body, acc, bound)
        if b.default is not None:
            _fv(b.default, acc, bound)
    elif isinstance(b, S.BRef):
        _fv_atom(b.arg, acc, bound)
    elif isinstance(b, S.BDeref):
        _fv_atom(b.arg, acc, bound)
    elif isinstance(b, S.BAssign):
        _fv_atom(b.ref, acc, bound)
        _fv_atom(b.value, acc, bound)
    elif isinstance(b, S.BAscribe):
        _fv_atom(b.atom, acc, bound)
    elif isinstance(b, S.BMatchFail):
        pass
    elif isinstance(b, S.BMod):
        _fv(b.body, acc, bound)
    else:
        raise AssertionError(f"unknown bind {b!r}")


# ----------------------------------------------------------------------
# Alpha equivalence (used to state the optimizer's confluence, Thm 3.1)


def alpha_equal(a, b, env: Optional[Dict[str, str]] = None) -> bool:
    """Alpha-equivalence of two Expr/CExpr/Bind terms.

    ``env`` maps binder names of ``a`` to the corresponding names of ``b``.
    """
    if env is None:
        env = {}
    if type(a) is not type(b):
        return False
    if isinstance(a, S.AVar):
        return env.get(a.name, a.name) == b.name and a.is_builtin == b.is_builtin
    if isinstance(a, S.AConst):
        return a.value == b.value and a.kind == b.kind
    if isinstance(a, S.ELet):
        return alpha_equal(a.bind, b.bind, env) and alpha_equal(
            a.body, b.body, {**env, a.name: b.name}
        )
    if isinstance(a, (S.ELetRec, S.CLetRec)):
        if len(a.bindings) != len(b.bindings):
            return False
        inner = dict(env)
        for (na, _), (nb, _) in zip(a.bindings, b.bindings):
            inner[na] = nb
        return all(
            alpha_equal(la, lb, inner)
            for (_, la), (_, lb) in zip(a.bindings, b.bindings)
        ) and alpha_equal(a.body, b.body, inner)
    if isinstance(a, S.ERet):
        return alpha_equal(a.atom, b.atom, env)
    if isinstance(a, S.CWrite):
        return alpha_equal(a.atom, b.atom, env)
    if isinstance(a, S.CRead):
        return alpha_equal(a.src, b.src, env) and alpha_equal(
            a.body, b.body, {**env, a.binder: b.binder}
        )
    if isinstance(a, S.CLet):
        return alpha_equal(a.bind, b.bind, env) and alpha_equal(
            a.body, b.body, {**env, a.name: b.name}
        )
    if isinstance(a, S.CIf):
        return (
            alpha_equal(a.cond, b.cond, env)
            and alpha_equal(a.then, b.then, env)
            and alpha_equal(a.els, b.els, env)
        )
    if isinstance(a, (S.CCase, S.BCase)):
        if a.dt != b.dt or len(a.clauses) != len(b.clauses):
            return False
        if not alpha_equal(a.scrut, b.scrut, env):
            return False
        for ca, cb in zip(a.clauses, b.clauses):
            if ca.tag != cb.tag or (ca.binder is None) != (cb.binder is None):
                return False
            inner = env if ca.binder is None else {**env, ca.binder: cb.binder}
            if not alpha_equal(ca.body, cb.body, inner):
                return False
        if (a.default is None) != (b.default is None):
            return False
        return a.default is None or alpha_equal(a.default, b.default, env)
    if isinstance(a, (S.CCaseConst, S.BCaseConst)):
        if len(a.arms) != len(b.arms):
            return False
        if not alpha_equal(a.scrut, b.scrut, env):
            return False
        for (va, ba), (vb, bb) in zip(a.arms, b.arms):
            if va != vb or not alpha_equal(ba, bb, env):
                return False
        if (a.default is None) != (b.default is None):
            return False
        return a.default is None or alpha_equal(a.default, b.default, env)
    if isinstance(a, S.CImpWrite):
        return (
            alpha_equal(a.ref, b.ref, env)
            and alpha_equal(a.value, b.value, env)
            and alpha_equal(a.body, b.body, env)
        )
    if isinstance(a, S.BAtom):
        return alpha_equal(a.atom, b.atom, env)
    if isinstance(a, S.BPrim):
        return a.op == b.op and len(a.args) == len(b.args) and all(
            alpha_equal(x, y, env) for x, y in zip(a.args, b.args)
        )
    if isinstance(a, S.BApp):
        return alpha_equal(a.fn, b.fn, env) and alpha_equal(a.arg, b.arg, env)
    if isinstance(a, S.BMemoApp):
        return (
            alpha_equal(a.fn, b.fn, env)
            and alpha_equal(a.arg, b.arg, env)
            and len(a.keys) == len(b.keys)
            and all(alpha_equal(x, y, env) for x, y in zip(a.keys, b.keys))
        )
    if isinstance(a, S.BTuple):
        return len(a.items) == len(b.items) and all(
            alpha_equal(x, y, env) for x, y in zip(a.items, b.items)
        )
    if isinstance(a, S.BProj):
        return a.index == b.index and alpha_equal(a.arg, b.arg, env)
    if isinstance(a, S.BCon):
        return (
            a.tag == b.tag
            and len(a.args) == len(b.args)
            and all(alpha_equal(x, y, env) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, S.BLam):
        return alpha_equal(a.body, b.body, {**env, a.param: b.param})
    if isinstance(a, S.BIf):
        return (
            alpha_equal(a.cond, b.cond, env)
            and alpha_equal(a.then, b.then, env)
            and alpha_equal(a.els, b.els, env)
        )
    if isinstance(a, S.BRef):
        return alpha_equal(a.arg, b.arg, env)
    if isinstance(a, S.BDeref):
        return alpha_equal(a.arg, b.arg, env)
    if isinstance(a, S.BAssign):
        return alpha_equal(a.ref, b.ref, env) and alpha_equal(a.value, b.value, env)
    if isinstance(a, S.BAscribe):
        return alpha_equal(a.atom, b.atom, env)
    if isinstance(a, S.BMatchFail):
        return True
    if isinstance(a, S.BMod):
        return alpha_equal(a.body, b.body, env)
    raise AssertionError(f"unknown SXML node {a!r}")


# ----------------------------------------------------------------------
# Callee shape for keyed allocation

#: binds that run no engine primitive other than ``impwrite`` and no
#: control flow: the stack backend fuses exactly these into one
#: ``STEPS`` instruction.
_STEP_BINDS = (
    S.BAtom, S.BAscribe, S.BPrim, S.BTuple, S.BProj, S.BCon, S.BLam,
    S.BAssign, S.BMatchFail,
)


def opening_mod(body: S.Expr) -> Optional[S.ELet]:
    """The ``let x = mod ce in ret x`` that ``body`` opens with, or None.

    A function body *opens with its result mod* when only straight-line
    binds (:data:`_STEP_BINDS`, letrec lambdas) precede a ``mod`` whose
    destination the body returns.  The first modifiable such a call
    allocates is then its result, which is what lets a memoized call
    allocate it under a key (:class:`repro.core.sxml.BMemoApp`).  Both
    backends decide keyed allocation with this one test.
    """
    e = body
    while True:
        t = type(e)
        if t is S.ELetRec:
            e = e.body
        elif t is not S.ELet:
            return None
        elif type(e.bind) is S.BMod:
            r = e.body
            if (
                type(r) is S.ERet
                and type(r.atom) is S.AVar
                and not r.atom.is_builtin
                and r.atom.name == e.name
            ):
                return e
            return None
        elif type(e.bind) in _STEP_BINDS:
            e = e.body
        else:
            return None
