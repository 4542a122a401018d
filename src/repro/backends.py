"""Backend registry and the single backend-resolution path.

The repository grew three ways to pick the self-adjusting execution
backend -- a ``backend=`` keyword, the CLI's ``--backend`` flag, and the
``REPRO_BACKEND`` environment variable -- each resolved in a different
place.  This module is now the only resolver; everything (``Session``,
the CLI, the test suite, the benchmark harness) funnels through
:func:`resolve_backend`.

Precedence, highest first:

1. an explicit request (``backend=`` keyword / ``--backend`` flag);
2. the ``REPRO_BACKEND`` environment variable (CI runs the whole suite
   again under ``REPRO_BACKEND=interp``; an empty value counts as unset);
3. the default, ``"stack"``.

The default is the flat stack machine: it does the same engine work as
the interpreter (``tests/test_backends_differential.py`` holds the two
meter-exact) with less dispatch per re-execution, and it survives deep
inputs.  ``"interp"`` stays as the readable, paper-shaped reference the
stack machine is checked against.
"""

from __future__ import annotations

import os
from typing import Optional

#: The self-adjusting execution backends (README "Backends"): ``interp``
#: walks the translated SXML; ``stack`` (the default) flattens it into
#: instruction sequences driven by an explicit control stack
#: (:mod:`repro.compile.stackmachine`) for low-dispatch, zero-recursion
#: execution of deep workloads.
BACKENDS = ("interp", "stack")

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "REPRO_BACKEND"

DEFAULT_BACKEND = "stack"


def resolve_backend(explicit: Optional[str] = None) -> str:
    """Resolve the backend name: explicit flag > ``$REPRO_BACKEND`` > default.

    Raises ``ValueError`` for a name outside :data:`BACKENDS`, naming the
    source (argument or environment) that supplied it.
    """
    if explicit is not None:
        if explicit not in BACKENDS:
            raise ValueError(
                f"backend={explicit!r} is not a backend (expected one of {BACKENDS})"
            )
        return explicit
    from_env = os.environ.get(BACKEND_ENV_VAR)
    if from_env:
        if from_env not in BACKENDS:
            raise ValueError(
                f"{BACKEND_ENV_VAR}={from_env!r} is not a backend "
                f"(expected one of {BACKENDS})"
            )
        return from_env
    return DEFAULT_BACKEND
