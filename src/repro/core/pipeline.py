"""The compiler driver (paper Figure 3).

``compile_program`` runs the full pipeline::

    parse -> elaborate (HM + $C collection) -> uniquify -> monomorphize
          -> match-compile -> A-normalize (SXML) -> level inference
          -> [self-adjusting translation -> optimize -> DCE]

and returns a :class:`CompiledProgram` holding both executables:

* the conventional one (pre-translation SXML + conventional interpreter);
* the self-adjusting one (translated SXML + engine-backed interpreter).

Compiler options mirror the paper's evaluation axes:

* ``optimize=False`` -- the "Unopt." configuration of Figure 9 (skip the
  Section 3.4 rewrite rules);
* ``memoize=False`` -- disable compiler-inserted memoized applications;
* ``coarse=True`` -- emulate the CPS baseline's coarse dependency tracking
  (extra modifiable indirection per changeable result; combine with
  ``optimize=False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.backends import BACKENDS, resolve_backend
from repro.core import ir as C
from repro.core import sxml as S
from repro.core.anf import normalize
from repro.core.caseindex import index_cases
from repro.core.deadcode import eliminate_dead_code
from repro.core.freshen import uniquify
from repro.core.levels import LevelInfo, LTy, infer_levels
from repro.core.matchcomp import compile_matches
from repro.core.monomorphize import monomorphize
from repro.core.optimize import count_primitives, optimize
from repro.core.pretty import pretty_expr
from repro.core.translate import translate
from repro.interp import ensure_recursion_headroom
from repro.interp.conventional import ConventionalInterpreter
from repro.interp.selfadjusting import SelfAdjustingInterpreter
from repro.lang.elaborate import elaborate
from repro.lang.parser import parse_program
from repro.sac.engine import Engine


@dataclass
class CompilerOptions:
    memoize: bool = True
    optimize: bool = True
    coarse: bool = False
    main: str = "main"


class ConventionalInstance:
    """A runnable conventional executable: the value of ``main``."""

    def __init__(self, program: "CompiledProgram") -> None:
        ensure_recursion_headroom()
        self.interp = ConventionalInterpreter()
        self.main = self.interp.run(program.sxml_conventional)

    def apply(self, input_value: Any) -> Any:
        return self.interp.apply(self.main, input_value)


class SelfAdjustingInstance:
    """A runnable self-adjusting executable bound to an engine.

    ``apply(input)`` performs the initial (complete) run, building the
    trace; afterwards, change the input through its handles and call
    :meth:`propagate`.

    ``backend`` selects how the translated SXML executes: ``"interp"``
    (the tree-walking interpreter) or ``"stack"`` (the flat stack-machine
    backend, flattened once at instance creation: recursion-free
    execution for deep inputs).  Both produce identical outputs, traces,
    and meter counts; ``None`` defers to
    :func:`repro.backends.resolve_backend`.
    """

    def __init__(
        self,
        program: "CompiledProgram",
        engine: Optional[Engine] = None,
        backend: Optional[str] = None,
    ) -> None:
        ensure_recursion_headroom()
        self.engine = engine or Engine()
        self.backend = resolve_backend(backend)
        if self.backend == "interp":
            self.interp = SelfAdjustingInterpreter(self.engine)
        elif self.backend == "stack":
            from repro.compile.stackmachine import StackSelfAdjusting

            self.interp = StackSelfAdjusting(self.engine)
        else:
            raise ValueError(
                f"unknown backend {self.backend!r} (expected one of {BACKENDS})"
            )
        self.main = self.interp.run(program.sxml_translated)

    def apply(self, input_value: Any) -> Any:
        return self.interp.apply(self.main, input_value)

    def propagate(self, **kwargs: Any) -> int:
        return self.engine.propagate(**kwargs)


@dataclass
class CompiledProgram:
    """All artifacts of one compilation."""

    source: str
    options: CompilerOptions
    core: C.CoreProgram = field(repr=False)
    sxml_conventional: S.Expr = field(repr=False)
    sxml_translated: S.Expr = field(repr=False)
    levels: LevelInfo = field(repr=False)

    @property
    def main_lty(self) -> LTy:
        return self.levels.main_lty

    # -- executables ----------------------------------------------------

    def conventional_instance(self) -> ConventionalInstance:
        return ConventionalInstance(self)

    def _self_adjusting_instance(
        self, engine: Optional[Engine] = None, backend: Optional[str] = None
    ) -> SelfAdjustingInstance:
        """Internal instance factory; the public surface is
        :class:`repro.api.Session`."""
        return SelfAdjustingInstance(self, engine, backend=backend)

    # -- inspection --------------------------------------------------------

    def dump_conventional(self) -> str:
        return pretty_expr(self.sxml_conventional)

    def dump_translated(self) -> str:
        return pretty_expr(self.sxml_translated)

    def primitive_counts(self) -> dict:
        """Static mod/read/write/memo counts of the translated code."""
        return count_primitives(self.sxml_translated)


def compile_program(
    source: str,
    *,
    memoize: bool = True,
    optimize_flag: bool = True,
    coarse: bool = False,
    main: str = "main",
) -> CompiledProgram:
    """Compile LML source through the full pipeline."""
    options = CompilerOptions(
        memoize=memoize, optimize=optimize_flag, coarse=coarse, main=main
    )
    ast = parse_program(source)
    core = elaborate(ast, main=main)
    core = C.CoreProgram(
        body=uniquify(core.body),
        datatypes=core.datatypes,
        main_type=core.main_type,
    )
    core = monomorphize(core)
    core = compile_matches(core)
    conventional = normalize(core)
    conventional = eliminate_dead_code(conventional)
    levels = infer_levels(conventional, core.datatypes)
    translated = translate(
        conventional, levels, memoize=memoize, coarse=coarse
    )
    if options.optimize:
        translated = optimize(translated)
    translated = eliminate_dead_code(translated)
    # Index case dispatch (tag -> clause, const -> arm) on the final ASTs
    # so both interpreters dispatch through dicts instead of clause scans.
    index_cases(conventional)
    index_cases(translated)
    return CompiledProgram(
        source=source,
        options=options,
        core=core,
        sxml_conventional=conventional,
        sxml_translated=translated,
        levels=levels,
    )
