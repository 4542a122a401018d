"""The type-directed self-adjusting translation (paper Section 3.3).

Translates level-annotated SXML into SXML with self-adjusting primitives
(``mod``, ``read``, ``write``, memoized application), by purely local,
type-(level-)directed rewrites, extending Chen et al. (ICFP 2011) to the
full language (datatypes, references, vectors).

Representation invariant: a source value whose type has a changeable top
level is represented by a *modifiable* holding the representation of the
underlying value.  The two translation modes of the paper map onto the two
SXML expression sorts:

* stable mode produces :class:`~repro.core.sxml.Expr` (value code);
* changeable mode produces :class:`~repro.core.sxml.CExpr` (code that
  writes its result to the ambient destination).

Highlights (matching the paper's Figures 2 and 4):

* a primop over changeable operands becomes nested ``read``s around the
  primop and a ``write`` -- inside a fresh ``mod`` when in stable position
  (``Mod (Read a (fn a' => Read b (fn b' => Write (a'*b'))))``);
* a function with changeable result returns the modifiable its body's
  stable-mode translation produces (``fn (a,b) => Mod (Read a ...)`` as in
  Figure 2 -- the ``mod`` comes from the body's own rules, so functions
  whose bodies merely *select* changeable data, like ``transpose``, stay
  free of reads);
* ``ref x``  becomes ``mod (write x)``; ``!x`` becomes an alias (reading is
  deferred to uses, sound under the initialize-then-read discipline);
  ``x := v`` becomes an imperative write;
* changeable-mode recursive calls are memoized (``BMemoApp``) when
  ``memoize`` is on -- the compiler's counterpart of the AFL benchmarks'
  memoization strategy (Section 4.1).  Each memoized call also carries
  its allocation key: the call site plus the stable scalar variables in
  scope there (the level information says which ones are stable).  A
  miss allocates the callee's result modifiable under that key, which
  is the destination-passing keyed allocation of AFL's unsafe interface
  and CEAL (paper Section 4.9), supplied by the types instead of by hand.

The local rules deliberately generate redundant ``mod``/``read``/``write``
triples in composite positions; the Section 3.4 optimizer removes them.

``coarse`` mode emulates the CPS baseline's coarse dependency tracking by
adding one extra modifiable indirection per changeable result (and is
meant to be combined with the optimizer disabled); see DESIGN.md.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.core import sxml as S
from repro.core.freshen import fresh
from repro.core.levels import LevelInfo, LTy
from repro.lang.errors import LmlCompileError
from repro.lang.types import TCon, Type, force


def translate(
    expr: S.Expr,
    levels: LevelInfo,
    *,
    memoize: bool = True,
    coarse: bool = False,
) -> S.Expr:
    """Translate a conventional SXML program into a self-adjusting one."""
    expr = lift_changeable_consts(expr, levels)
    tr = _Translator(levels, memoize=memoize, coarse=coarse)
    tr.collect_rec_names(expr)
    return tr.expr(expr)


def lift_changeable_consts(expr: S.Expr, levels: LevelInfo) -> S.Expr:
    """Name constants that occur in changeable positions.

    A constant whose level resolved to changeable (e.g. the ``0.0`` identity
    passed to ``vreduce`` over changeable reals) must be boxed in a
    modifiable.  Binding it with a ``let`` lets the ordinary translation
    rule for changeable constants (``Mod (Write c)``, visible in the
    paper's Figure 2) take over.
    """
    lifter = _ConstLifter(levels)
    return lifter.expr(expr)


class _ConstLifter:
    def __init__(self, levels: LevelInfo) -> None:
        self.levels = levels

    def _needs_lift(self, a: S.Atom) -> bool:
        if not isinstance(a, S.AConst):
            return False
        lty = self.levels._inf._atom_cache.get(id(a))
        return lty is not None and lty.level == "C"

    def _lift_atoms(self, atoms, pending):
        out = []
        for a in atoms:
            if self._needs_lift(a):
                name = fresh("k")
                self.levels._inf.var_lty[name] = self.levels._inf._atom_cache[id(a)]
                pending.append((name, S.BAtom(ty=a.ty, atom=a)))
                out.append(S.AVar(ty=a.ty, name=name))
            else:
                out.append(a)
        return out

    def bind(self, b: S.Bind, pending) -> S.Bind:
        if isinstance(b, S.BTuple):
            return S.BTuple(ty=b.ty, items=self._lift_atoms(b.items, pending))
        if isinstance(b, S.BCon):
            return S.BCon(
                ty=b.ty, dt=b.dt, tag=b.tag, args=self._lift_atoms(b.args, pending)
            )
        if isinstance(b, S.BApp):
            (arg,) = self._lift_atoms([b.arg], pending)
            return S.BApp(ty=b.ty, fn=b.fn, arg=arg)
        if isinstance(b, S.BAssign):
            (value,) = self._lift_atoms([b.value], pending)
            return S.BAssign(ty=b.ty, ref=b.ref, value=value)
        if isinstance(b, S.BPrim):
            return S.BPrim(ty=b.ty, op=b.op, args=self._lift_atoms(b.args, pending))
        if isinstance(b, S.BLam):
            return S.BLam(
                ty=b.ty, param=b.param, param_ty=b.param_ty, body=self.expr(b.body),
                param_spec=b.param_spec, name_hint=b.name_hint,
            )
        if isinstance(b, S.BIf):
            return S.BIf(
                ty=b.ty, cond=b.cond, then=self.expr(b.then), els=self.expr(b.els)
            )
        if isinstance(b, S.BCase):
            clauses = [
                S.CaseClause(
                    tag=c.tag, binder=c.binder, binder_ty=c.binder_ty,
                    body=self.expr(c.body),
                )
                for c in b.clauses
            ]
            default = self.expr(b.default) if b.default is not None else None
            return S.BCase(
                ty=b.ty, dt=b.dt, scrut=b.scrut, clauses=clauses, default=default
            )
        return b

    def expr(self, e: S.Expr) -> S.Expr:
        if isinstance(e, S.ELet):
            pending: list = []
            new_bind = self.bind(e.bind, pending)
            result = S.ELet(ty=e.ty, name=e.name, bind=new_bind, body=self.expr(e.body))
            for name, bind in reversed(pending):
                result = S.ELet(ty=e.ty, name=name, bind=bind, body=result)
            return result
        if isinstance(e, S.ELetRec):
            pending = []
            bindings = [(n, self.bind(lam, pending)) for n, lam in e.bindings]
            assert not pending  # lambdas have no atom operands
            return S.ELetRec(ty=e.ty, bindings=bindings, body=self.expr(e.body))
        if isinstance(e, S.ERet):
            return e
        raise AssertionError(f"unknown expr {e!r}")


class _Translator:
    def __init__(self, levels: LevelInfo, memoize: bool, coarse: bool) -> None:
        self.levels = levels
        self.memoize = memoize
        self.coarse = coarse
        self.rec_names: Set[str] = set()
        #: the stable scalar variables in scope, innermost last: a memoized
        #: call's allocation key.  None outside every lambda, where
        #: top-level values are constant per program and key nothing.
        self.scope: Optional[List[S.AVar]] = None
        #: key variables plus the primitives computed from them alone
        #: (names are globally unique, so one set serves every scope)
        self.determined: Set[str] = set()

    # ------------------------------------------------------------------

    def collect_rec_names(self, e) -> None:
        """Record letrec-bound names: candidates for memoized application."""
        if isinstance(e, S.ELetRec):
            for name, lam in e.bindings:
                self.rec_names.add(name)
                self.collect_rec_names(lam.body)
            self.collect_rec_names(e.body)
        elif isinstance(e, S.ELet):
            self.collect_rec_names(e.bind)
            self.collect_rec_names(e.body)
        elif isinstance(e, S.BLam):
            self.collect_rec_names(e.body)
        elif isinstance(e, (S.BIf,)):
            self.collect_rec_names(e.then)
            self.collect_rec_names(e.els)
        elif isinstance(e, S.BCase):
            for c in e.clauses:
                self.collect_rec_names(c.body)
            if e.default is not None:
                self.collect_rec_names(e.default)
        elif isinstance(e, S.Bind) or isinstance(e, S.ERet):
            pass

    # ------------------------------------------------------------------
    # Level helpers

    def atom_lty(self, a: S.Atom) -> Optional[LTy]:
        if isinstance(a, S.AVar):
            if a.is_builtin:
                return self.levels._inf._atom_cache.get(id(a))
            return self.levels.lty(a.name)
        return self.levels._inf._atom_cache.get(id(a))

    def atom_level(self, a: S.Atom) -> str:
        """Runtime representation level of an atom: is it a modifiable?

        Constants are never modifiables, even when their *position* joined
        to changeable (subsumption boxes them at their binding instead).
        """
        if not isinstance(a, S.AVar):
            return "S"
        lty = self.atom_lty(a)
        return lty.level if lty is not None else "S"

    # ------------------------------------------------------------------
    # Allocation-key scope

    def scoped(self, name: Optional[str], ty: Type, translate, e, bind=None):
        """``translate(e)`` with ``name`` in scope as a key variable when
        it is a stable scalar (a stable ``int``, ``bool``, ``real``, ...,
        but not ``unit``).  A primitive over constants and key variables
        (``bind``) adds nothing to the key and stays out."""
        scope = self.scope
        if scope is None or name is None or not self.levels.has(name):
            return translate(e)
        if type(bind) is S.BPrim and all(
            type(a) is S.AConst or a.name in self.determined for a in bind.args
        ):
            self.determined.add(name)
            return translate(e)
        lty = self.levels.lty(name)
        fty = force(ty)
        if (
            lty.kind != "base"
            or lty.level != "S"
            or not isinstance(fty, TCon)
            or fty.name == "unit"
        ):
            return translate(e)
        scope.append(S.AVar(ty=ty, name=name))
        self.determined.add(name)
        out = translate(e)
        scope.pop()
        return out

    # ------------------------------------------------------------------
    # Stable mode

    def expr(self, e: S.Expr) -> S.Expr:
        if isinstance(e, S.ELet):
            return S.ELet(
                ty=e.ty,
                name=e.name,
                bind=self.bind(e.bind, self.levels.lty(e.name)),
                body=self.scoped(e.name, e.bind.ty, self.expr, e.body, e.bind),
            )
        if isinstance(e, S.ELetRec):
            bindings = []
            for name, lam in e.bindings:
                new_lam = self.bind(lam, self.levels.lty(name))
                if not isinstance(new_lam, S.BLam):
                    raise LmlCompileError(
                        f"letrec binding {name} translated to a non-lambda "
                        "(changeable recursive function values are not supported)"
                    )
                bindings.append((name, new_lam))
            return S.ELetRec(ty=e.ty, bindings=bindings, body=self.expr(e.body))
        if isinstance(e, S.ERet):
            # A constant returned at a changeable position must be boxed:
            # consumers of this value expect a modifiable.
            atom = e.atom
            if isinstance(atom, S.AConst):
                lty = self.atom_lty(atom)
                if lty is not None and lty.level == "C":
                    k = fresh("k")
                    return S.ELet(
                        ty=e.ty,
                        name=k,
                        bind=S.BMod(ty=atom.ty, body=S.CWrite(atom=atom)),
                        body=S.ERet(ty=e.ty, atom=S.AVar(ty=atom.ty, name=k)),
                    )
            return e
        raise AssertionError(f"unknown expr {e!r}")

    # ------------------------------------------------------------------
    # Changeable mode

    def cexpr(self, e: S.Expr) -> S.CExpr:
        if isinstance(e, S.ELet):
            return S.CLet(
                name=e.name,
                bind=self.bind(e.bind, self.levels.lty(e.name)),
                body=self.scoped(e.name, e.bind.ty, self.cexpr, e.body, e.bind),
            )
        if isinstance(e, S.ELetRec):
            bindings = []
            for name, lam in e.bindings:
                new_lam = self.bind(lam, self.levels.lty(name))
                if not isinstance(new_lam, S.BLam):
                    raise LmlCompileError("changeable letrec lambda unsupported")
                bindings.append((name, new_lam))
            return S.CLetRec(bindings=bindings, body=self.cexpr(e.body))
        if isinstance(e, S.ERet):
            return self.ret(e.atom)
        raise AssertionError(f"unknown expr {e!r}")

    def ret(self, atom: S.Atom) -> S.CExpr:
        """Write the representation of ``atom`` to the ambient destination.

        A changeable variable holds a modifiable: read it and write its
        value.  A constant is written directly even when its *position*
        joined to changeable (stable-to-changeable subsumption).
        """
        if isinstance(atom, S.AVar) and self.atom_level(atom) == "C":
            v = fresh("v")
            inner_ty = atom.ty
            body: S.CExpr = self.final_write(S.AVar(ty=inner_ty, name=v))
            return S.CRead(src=atom, binder=v, binder_ty=inner_ty, body=body)
        return self.final_write(atom)

    def final_write(self, atom: S.Atom) -> S.CExpr:
        """A ``write``, with an extra indirection in coarse mode."""
        if not self.coarse:
            return S.CWrite(atom=atom)
        m = fresh("cps")
        v = fresh("v")
        return S.CLet(
            name=m,
            bind=S.BMod(ty=atom.ty, body=S.CWrite(atom=atom)),
            body=S.CRead(
                src=S.AVar(ty=atom.ty, name=m),
                binder=v,
                binder_ty=atom.ty,
                body=S.CWrite(atom=S.AVar(ty=atom.ty, name=v)),
            ),
        )

    # ------------------------------------------------------------------
    # Binds

    def bind(self, b: S.Bind, lty: LTy) -> S.Bind:
        top_c = lty.level == "C"

        if isinstance(b, S.BAtom):
            if top_c and isinstance(b.atom, S.AConst):
                # A constant in a changeable position: Mod (Write c).
                return S.BMod(ty=b.ty, body=S.CWrite(atom=b.atom))
            return b

        if isinstance(b, S.BPrim):
            changeable_args = [self.atom_level(a) == "C" for a in b.args]
            if any(changeable_args):
                return S.BMod(ty=b.ty, body=self._prim_reads(b, changeable_args))
            if top_c:
                t = fresh("t")
                return S.BMod(
                    ty=b.ty,
                    body=S.CLet(
                        name=t, bind=b,
                        body=S.CWrite(atom=S.AVar(ty=b.ty, name=t)),
                    ),
                )
            return b

        if isinstance(b, S.BApp):
            return self._app(b, lty)

        if isinstance(b, S.BTuple):
            return self._wrap_value(S.BTuple(ty=b.ty, items=b.items), top_c)

        if isinstance(b, S.BCon):
            return self._wrap_value(
                S.BCon(ty=b.ty, dt=b.dt, tag=b.tag, args=b.args), top_c
            )

        if isinstance(b, S.BLam):
            # The body translates in stable mode: a changeable result is
            # already represented by a modifiable (every stable-mode bind
            # rule yields the mod representation), so the function simply
            # returns it -- this is what makes e.g. transpose free of reads.
            outer = self.scope
            self.scope = [] if outer is None else list(outer)
            body = self.scoped(b.param, b.param_ty, self.expr, b.body)
            self.scope = outer
            new_lam = S.BLam(
                ty=b.ty, param=b.param, param_ty=b.param_ty,
                body=body, param_spec=None, name_hint=b.name_hint,
            )
            return self._wrap_value(new_lam, top_c)

        if isinstance(b, S.BProj):
            if self.atom_level(b.arg) == "C":
                a2 = fresh("t")
                r = fresh("r")
                if top_c:
                    # The component is itself changeable (a modifiable):
                    # read through it so the new modifiable holds the value,
                    # keeping the one-level representation invariant.
                    v = fresh("v")
                    after: S.CExpr = S.CRead(
                        src=S.AVar(ty=b.ty, name=r),
                        binder=v,
                        binder_ty=b.ty,
                        body=S.CWrite(atom=S.AVar(ty=b.ty, name=v)),
                    )
                else:
                    after = S.CWrite(atom=S.AVar(ty=b.ty, name=r))
                inner = S.CLet(
                    name=r,
                    bind=S.BProj(
                        ty=b.ty, index=b.index, arg=S.AVar(ty=b.arg.ty, name=a2)
                    ),
                    body=after,
                )
                return S.BMod(
                    ty=b.ty,
                    body=S.CRead(src=b.arg, binder=a2, binder_ty=b.arg.ty, body=inner),
                )
            return b

        if isinstance(b, S.BIf):
            if self.atom_level(b.cond) == "C":
                c2 = fresh("c")
                return S.BMod(
                    ty=b.ty,
                    body=S.CRead(
                        src=b.cond,
                        binder=c2,
                        binder_ty=b.cond.ty,
                        body=S.CIf(
                            cond=S.AVar(ty=b.cond.ty, name=c2),
                            then=self.cexpr(b.then),
                            els=self.cexpr(b.els),
                        ),
                    ),
                )
            return S.BIf(
                ty=b.ty, cond=b.cond, then=self.expr(b.then), els=self.expr(b.els)
            )

        if isinstance(b, S.BCase):
            if self.atom_level(b.scrut) == "C":
                s2 = fresh("s")
                clauses = [
                    S.CaseClause(
                        tag=c.tag, binder=c.binder, binder_ty=c.binder_ty,
                        body=self.scoped(c.binder, c.binder_ty, self.cexpr, c.body),
                    )
                    for c in b.clauses
                ]
                default = self.cexpr(b.default) if b.default is not None else None
                return S.BMod(
                    ty=b.ty,
                    body=S.CRead(
                        src=b.scrut,
                        binder=s2,
                        binder_ty=b.scrut.ty,
                        body=S.CCase(
                            dt=b.dt,
                            scrut=S.AVar(ty=b.scrut.ty, name=s2),
                            clauses=clauses,
                            default=default,
                        ),
                    ),
                )
            clauses = [
                S.CaseClause(
                    tag=c.tag, binder=c.binder, binder_ty=c.binder_ty,
                    body=self.scoped(c.binder, c.binder_ty, self.expr, c.body),
                )
                for c in b.clauses
            ]
            default = self.expr(b.default) if b.default is not None else None
            return S.BCase(
                ty=b.ty, dt=b.dt, scrut=b.scrut, clauses=clauses, default=default
            )

        if isinstance(b, S.BRef):
            # ref x  ~~>  mod (write x)   (paper Figure 4)
            return S.BMod(ty=b.ty, body=S.CWrite(atom=b.arg))

        if isinstance(b, S.BDeref):
            # !x aliases the modifiable; uses insert their own reads.
            return S.BAtom(ty=b.ty, atom=b.arg)

        if isinstance(b, S.BAssign):
            # x := v  ~~>  impwrite x := v   (paper Figure 4).  A changeable
            # right-hand side is read first so the cell stores the value.
            if self.atom_level(b.value) == "C":
                v2 = fresh("v")
                unit_atom = S.AConst(ty=b.ty, value=(), kind="unit")
                return S.BMod(
                    ty=b.ty,
                    body=S.CRead(
                        src=b.value,
                        binder=v2,
                        binder_ty=b.value.ty,
                        body=S.CImpWrite(
                            ref=b.ref,
                            value=S.AVar(ty=b.value.ty, name=v2),
                            body=S.CWrite(atom=unit_atom),
                        ),
                    ),
                )
            return b

        if isinstance(b, S.BAscribe):
            return S.BAtom(ty=b.ty, atom=b.atom)

        if isinstance(b, S.BMatchFail):
            return b

        raise AssertionError(f"unexpected bind in source program: {b!r}")

    # ------------------------------------------------------------------

    def _prim_reads(self, b: S.BPrim, changeable_args: List[bool]) -> S.CExpr:
        """Nested reads around a primop: Read a (Read b (Write (a' op b')))."""
        new_args: List[S.Atom] = []
        reads: List[S.Atom] = []  # (src atom, binder) pairs via parallel lists
        binders: List[str] = []
        for a, is_c in zip(b.args, changeable_args):
            if is_c:
                binder = fresh("x")
                reads.append(a)
                binders.append(binder)
                new_args.append(S.AVar(ty=a.ty, name=binder))
            else:
                new_args.append(a)
        t = fresh("t")
        body: S.CExpr = S.CLet(
            name=t,
            bind=S.BPrim(ty=b.ty, op=b.op, args=new_args),
            body=S.CWrite(atom=S.AVar(ty=b.ty, name=t)),
        )
        for src, binder in reversed(list(zip(reads, binders))):
            body = S.CRead(src=src, binder=binder, binder_ty=src.ty, body=body)
        return body

    def _app(self, b: S.BApp, lty: LTy) -> S.Bind:
        f_lty = self.atom_lty(b.fn)
        assert f_lty is not None and f_lty.kind == "arrow"
        cod_c = f_lty.children[1].level == "C"
        memoizable = (
            self.memoize
            and isinstance(b.fn, S.AVar)
            and b.fn.name in self.rec_names
        )

        def make(fn: S.Atom) -> S.Bind:
            if not memoizable:
                return S.BApp(ty=b.ty, fn=fn, arg=b.arg)
            keys = [S.AVar(ty=v.ty, name=v.name) for v in self.scope or ()]
            return S.BMemoApp(
                ty=b.ty, fn=fn, arg=b.arg, site=fresh("site"), keys=keys
            )

        if f_lty.level == "C":
            # The function itself is changeable: read it, apply, write.
            f2 = fresh("f")
            r = fresh("r")
            app_bind = make(S.AVar(ty=b.fn.ty, name=f2))
            if cod_c:
                v = fresh("v")
                after: S.CExpr = S.CRead(
                    src=S.AVar(ty=b.ty, name=r),
                    binder=v,
                    binder_ty=b.ty,
                    body=S.CWrite(atom=S.AVar(ty=b.ty, name=v)),
                )
            else:
                after = S.CWrite(atom=S.AVar(ty=b.ty, name=r))
            return S.BMod(
                ty=b.ty,
                body=S.CRead(
                    src=b.fn,
                    binder=f2,
                    binder_ty=b.fn.ty,
                    body=S.CLet(name=r, bind=app_bind, body=after),
                ),
            )
        return make(b.fn)

    def _wrap_value(self, bind: S.Bind, top_c: bool) -> S.Bind:
        """Wrap an introduction form in ``mod (write .)`` when changeable."""
        if not top_c:
            return bind
        t = fresh("t")
        return S.BMod(
            ty=bind.ty,
            body=S.CLet(
                name=t, bind=bind, body=S.CWrite(atom=S.AVar(ty=bind.ty, name=t))
            ),
        )
