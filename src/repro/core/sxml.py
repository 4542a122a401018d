"""SXML: the A-normal-form intermediate language.

This mirrors the role of MLton's SXML in the paper (Section 3.3): a
monomorphic, A-normal-form IR.  The self-adjusting translation consumes and
produces SXML; the *target-only* forms (``BMod``, ``BMemoApp``,
``BImpWrite`` and the changeable expressions ``CExpr``) only appear after
translation.

Grammar::

    atom  ::= x | c
    bind  ::= atom | prim(op, atoms) | app(f, a) | (atoms) | #i atom
            | Con atoms | fn x => e | if a then e else e | case a of ...
            | ref a | !a | a := a | ascribe a | matchfail
            | mod ce | memoapp(f, a)                -- target only
    e     ::= let x = bind in e | letrec fs in e | ret atom
    ce    ::= write a | read a as x in ce | let x = bind in ce
            | letrec fs in ce | if a then ce else ce | case a of ... ce
            | impwrite a := a in ce                 -- target only

Stable expressions (``Expr``) produce a value; changeable expressions
(``CExpr``) write their result to the ambient destination, exactly the
paper's two modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.lang.levelspec import LSpec
from repro.lang.types import Type


# ----------------------------------------------------------------------
# Atoms


@dataclass
class Atom:
    ty: Type = None  # type: ignore[assignment]


@dataclass
class AVar(Atom):
    name: str = ""
    is_builtin: bool = False


@dataclass
class AConst(Atom):
    value: object = None
    kind: str = "int"


# ----------------------------------------------------------------------
# Bindable computations


@dataclass
class Bind:
    ty: Type = None  # type: ignore[assignment]


@dataclass
class BAtom(Bind):
    atom: Atom = None  # type: ignore[assignment]


@dataclass
class BPrim(Bind):
    op: str = ""
    args: List[Atom] = field(default_factory=list)


@dataclass
class BApp(Bind):
    fn: Atom = None  # type: ignore[assignment]
    arg: Atom = None  # type: ignore[assignment]


@dataclass
class BTuple(Bind):
    items: List[Atom] = field(default_factory=list)


@dataclass
class BProj(Bind):
    index: int = 1  # 1-based
    arg: Atom = None  # type: ignore[assignment]


@dataclass
class BCon(Bind):
    dt: str = ""
    tag: str = ""
    args: List[Atom] = field(default_factory=list)  # zero or one


@dataclass
class BLam(Bind):
    param: str = ""
    param_ty: Type = None  # type: ignore[assignment]
    body: "Expr" = None  # type: ignore[assignment]
    param_spec: Optional[LSpec] = None
    name_hint: str = ""


@dataclass
class BIf(Bind):
    cond: Atom = None  # type: ignore[assignment]
    then: "Expr" = None  # type: ignore[assignment]
    els: "Expr" = None  # type: ignore[assignment]


@dataclass
class CaseClause:
    tag: str = ""
    binder: Optional[str] = None  # binds the constructor argument
    binder_ty: Optional[Type] = None
    body: object = None  # Expr or CExpr


@dataclass
class BCase(Bind):
    dt: str = ""
    scrut: Atom = None  # type: ignore[assignment]
    clauses: List[CaseClause] = field(default_factory=list)
    default: Optional[object] = None  # Expr (no binder: wildcard only)
    #: ``tag -> CaseClause``, filled by :func:`repro.core.caseindex.index_cases`
    #: at the end of the pipeline; ``None`` on freshly built/rewritten nodes.
    tag_map: Optional[dict] = field(default=None, compare=False, repr=False)


@dataclass
class BCaseConst(Bind):
    scrut: Atom = None  # type: ignore[assignment]
    arms: List[Tuple[object, object]] = field(default_factory=list)  # (const, Expr)
    default: Optional[object] = None
    #: ``(type, const) -> Expr`` (type-sensitive, matching the arm scan).
    arm_map: Optional[dict] = field(default=None, compare=False, repr=False)


@dataclass
class BRef(Bind):
    arg: Atom = None  # type: ignore[assignment]


@dataclass
class BDeref(Bind):
    arg: Atom = None  # type: ignore[assignment]


@dataclass
class BAssign(Bind):
    ref: Atom = None  # type: ignore[assignment]
    value: Atom = None  # type: ignore[assignment]


@dataclass
class BAscribe(Bind):
    atom: Atom = None  # type: ignore[assignment]
    spec: Optional[LSpec] = None


@dataclass
class BMatchFail(Bind):
    pass


# Target-only binds


@dataclass
class BMod(Bind):
    """``mod ce``: run changeable code into a fresh modifiable."""

    body: "CExpr" = None  # type: ignore[assignment]


@dataclass
class BMemoApp(Bind):
    """Memoized application (the compiler's memoization strategy).

    ``site`` names the call site and ``keys`` are the stable scalar
    variables in scope at it.  When the callee opens with its result
    ``mod`` (:func:`repro.core.sxmlutil.opening_mod`), a memo miss
    allocates that modifiable under ``(site, *values of keys)``, so a
    re-executed call recycles the cell it allocated before.
    """

    fn: Atom = None  # type: ignore[assignment]
    arg: Atom = None  # type: ignore[assignment]
    site: str = ""
    keys: List[Atom] = field(default_factory=list)


# ----------------------------------------------------------------------
# Stable expressions


@dataclass
class Expr:
    ty: Type = None  # type: ignore[assignment]


@dataclass
class ELet(Expr):
    name: str = ""
    bind: Bind = None  # type: ignore[assignment]
    body: Expr = None  # type: ignore[assignment]


@dataclass
class ELetRec(Expr):
    bindings: List[Tuple[str, BLam]] = field(default_factory=list)
    body: Expr = None  # type: ignore[assignment]


@dataclass
class ERet(Expr):
    atom: Atom = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Changeable expressions (target only)


@dataclass
class CExpr:
    pass


@dataclass
class CWrite(CExpr):
    atom: Atom = None  # type: ignore[assignment]


@dataclass
class CRead(CExpr):
    src: Atom = None  # type: ignore[assignment]
    binder: str = ""
    binder_ty: Optional[Type] = None
    body: CExpr = None  # type: ignore[assignment]


@dataclass
class CLet(CExpr):
    name: str = ""
    bind: Bind = None  # type: ignore[assignment]
    body: CExpr = None  # type: ignore[assignment]


@dataclass
class CLetRec(CExpr):
    bindings: List[Tuple[str, BLam]] = field(default_factory=list)
    body: CExpr = None  # type: ignore[assignment]


@dataclass
class CIf(CExpr):
    cond: Atom = None  # type: ignore[assignment]
    then: CExpr = None  # type: ignore[assignment]
    els: CExpr = None  # type: ignore[assignment]


@dataclass
class CCase(CExpr):
    dt: str = ""
    scrut: Atom = None  # type: ignore[assignment]
    clauses: List[CaseClause] = field(default_factory=list)
    default: Optional[CExpr] = None
    #: ``tag -> CaseClause``; see :func:`repro.core.caseindex.index_cases`.
    tag_map: Optional[dict] = field(default=None, compare=False, repr=False)


@dataclass
class CCaseConst(CExpr):
    scrut: Atom = None  # type: ignore[assignment]
    arms: List[Tuple[object, CExpr]] = field(default_factory=list)
    default: Optional[CExpr] = None
    #: ``(type, const) -> CExpr`` (type-sensitive, matching the arm scan).
    arm_map: Optional[dict] = field(default=None, compare=False, repr=False)


@dataclass
class CImpWrite(CExpr):
    ref: Atom = None  # type: ignore[assignment]
    value: Atom = None  # type: ignore[assignment]
    body: CExpr = None  # type: ignore[assignment]
