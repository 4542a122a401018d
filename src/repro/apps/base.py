"""Common benchmark-application machinery."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

from repro.core.pipeline import CompiledProgram, compile_program
from repro.sac.engine import Engine


@dataclass
class App:
    """One benchmark application.

    The callables operate on *data* (plain Python input), *handles*
    (change handles for self-adjusting inputs), and runtime *values*.
    """

    name: str
    source: str
    #: data = make_data(n, rng)
    make_data: Callable[[int, random.Random], Any]
    #: (input_value, handle) for a self-adjusting run
    make_sa_input: Callable[[Engine, Any], Tuple[Any, Any]]
    #: input_value for a conventional run
    make_conv_input: Callable[[Any], Any]
    #: perform one incremental change (caller propagates)
    apply_change: Callable[[Any, random.Random, int], None]
    #: pure-Python reference implementation over data
    reference: Callable[[Any], Any]
    #: runtime output value -> plain Python (for verification)
    readback: Callable[[Any], Any]
    #: current data of a handle (after changes), for re-verification
    handle_data: Callable[[Any], Any]

    _cache: dict = field(default_factory=dict, repr=False)

    def compiled(
        self,
        *,
        memoize: bool = True,
        optimize_flag: bool = True,
        coarse: bool = False,
    ) -> CompiledProgram:
        """Compile (with caching per option set)."""
        key = (memoize, optimize_flag, coarse)
        if key not in self._cache:
            self._cache[key] = compile_program(
                self.source,
                memoize=memoize,
                optimize_flag=optimize_flag,
                coarse=coarse,
            )
        return self._cache[key]

    def instance(
        self,
        engine: Engine,
        *,
        backend: Optional[str] = None,
        memoize: bool = True,
        optimize_flag: bool = True,
        coarse: bool = False,
    ):
        """Compile (cached) and create a runnable self-adjusting instance.

        ``backend`` selects the execution backend (one of
        :data:`repro.backends.BACKENDS`; ``None`` defers to
        ``$REPRO_BACKEND``, else the default ``"stack"``).
        """
        program = self.compiled(
            memoize=memoize, optimize_flag=optimize_flag, coarse=coarse
        )
        return program._self_adjusting_instance(engine, backend=backend)


def random_permutation(n: int, rng: random.Random) -> list:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return values


def random_reals(n: int, rng: random.Random) -> list:
    """Random reals in [0.5, 1.5): positive, so the paper's normalized
    multiplication (x*y)/(x+y) is safe from division by zero."""
    return [0.5 + rng.random() for _ in range(n)]


def random_real_matrix(n: int, rng: random.Random) -> list:
    return [random_reals(n, rng) for _ in range(n)]


def nmul(x: float, y: float) -> float:
    """The paper's overflow-normalized multiplication (Section 4.1)."""
    return (x * y) / (x + y)
