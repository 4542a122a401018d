"""Deep-workload stress tests: the stack backend at CPython's default limit.

The interp backend nests one Python frame per traced cell, so a cons
chain of depth ``d`` needs a recursion limit comfortably above
``d`` -- for both the initial run and any deep re-execution during
propagation.  The stack backend (:mod:`repro.compile.stackmachine`) runs
the same programs with an explicit control stack and bounded Python
recursion, so the *same* workloads complete at CPython's default limit
of 1000.

These tests pin both sides of that contract:

* the stack backend runs and propagates a 10^5-element cons chain and a
  deep mergesort with ``sys.setrecursionlimit(1000)`` in effect;
* at that limit the interp backend overflows -- ``RecursionError`` during
  the initial run, and the engine's typed
  :class:`RecursionReexecutionError` (whose message recommends
  ``backend="stack"``) when the overflow happens *during propagation*;
* a :class:`RecursionReexecutionError` abort is transactional: raising
  the limit and re-propagating completes the update.

The engine constructor raises the process recursion limit (see
``Engine.RECURSION_LIMIT``), so each test builds its instance first and
only then clamps the limit down.

Environment knobs:

* ``REPRO_DEEP_N`` -- cons-chain length for the in-suite stress tests
  (default 100000);
* ``REPRO_DEEP_STRESS=1`` -- also run the full mergesort-at-depth-10^5
  test (several minutes; sized by ``REPRO_DEEP_STRESS_N``).
"""

import os
import random
import sys

import pytest

from repro.apps import REGISTRY
from repro.interp.values import list_value_to_python
from repro.sac.engine import Engine
from repro.sac.exceptions import RecursionReexecutionError

#: CPython's default recursion limit -- the bar the stack backend must
#: clear without help.
DEFAULT_LIMIT = 1000

DEEP_N = int(os.environ.get("REPRO_DEEP_N", "100000"))

RECURSIVE_BACKENDS = ["interp"]


@pytest.fixture
def recursion_limit():
    """Restore the process recursion limit after the test (both the
    explicit clamps below and the one ``Engine.__init__`` applies)."""
    saved = sys.getrecursionlimit()
    yield
    sys.setrecursionlimit(saved)


def _build(name, n, backend, **options):
    app = REGISTRY[name]
    rng = random.Random(7)
    data = app.make_data(n, rng)
    engine = Engine()
    instance = app.instance(engine, backend=backend, **options)
    input_value, handle = app.make_sa_input(engine, data)
    return app, engine, instance, input_value, handle, rng


# ----------------------------------------------------------------------
# Stack backend: deep workloads complete at the default limit


def test_stack_deep_cons_chain_at_default_limit(recursion_limit):
    """Run and edit/propagate a ``DEEP_N``-element cons chain under the
    stack backend with the recursion limit clamped to CPython's default."""
    app, engine, instance, input_value, handle, _ = _build(
        "map", DEEP_N, "stack"
    )
    sys.setrecursionlimit(DEFAULT_LIMIT)
    output = instance.apply(input_value)
    assert list_value_to_python(output) == app.reference(handle.to_python())
    # Edits at the head, middle, and tail of the chain: the head edit is
    # the deep-re-execution worst case for the interp backend.
    for index in (0, DEEP_N // 2, DEEP_N - 1):
        handle.set(index, 1_000_000_000 + index)
        engine.propagate()
        assert list_value_to_python(output) == app.reference(
            handle.to_python()
        )


def test_stack_deep_msort_at_default_limit(recursion_limit):
    """msort recursion depth scales with list length; n=1024 already
    overflows the interp backend at the default limit (pinned below) while
    the stack backend runs and propagates it."""
    app, engine, instance, input_value, handle, rng = _build(
        "msort", 1024, "stack"
    )
    sys.setrecursionlimit(DEFAULT_LIMIT)
    output = instance.apply(input_value)
    assert list_value_to_python(output) == sorted(handle.to_python())
    for step in range(2):
        app.apply_change(handle, rng, step)
        engine.propagate()
        assert list_value_to_python(output) == sorted(handle.to_python())


# ----------------------------------------------------------------------
# Recursive backends: the same workloads overflow at the default limit


@pytest.mark.parametrize("backend", RECURSIVE_BACKENDS)
def test_recursive_backend_deep_chain_overflows(recursion_limit, backend):
    _, _, instance, input_value, _, _ = _build("map", DEEP_N, backend)
    sys.setrecursionlimit(DEFAULT_LIMIT)
    with pytest.raises(RecursionError):
        instance.apply(input_value)


@pytest.mark.parametrize("backend", RECURSIVE_BACKENDS)
def test_recursive_backend_deep_msort_overflows(recursion_limit, backend):
    _, _, instance, input_value, _, _ = _build("msort", 1024, backend)
    sys.setrecursionlimit(DEFAULT_LIMIT)
    with pytest.raises(RecursionError):
        instance.apply(input_value)


def test_interp_propagate_overflow_recommends_stack(recursion_limit):
    """Overflow *during propagation* raises the engine's typed
    :class:`RecursionReexecutionError`, its message recommends the stack
    backend, and the abort is transactional: raising the limit back up
    and re-propagating completes the update."""
    app, engine, instance, input_value, handle, _ = _build(
        "map", 5000, "interp", memoize=False
    )
    high_limit = sys.getrecursionlimit()
    output = instance.apply(input_value)  # at the engine's raised limit
    handle.set(0, 777_000_001)  # head edit: re-executes the whole chain
    sys.setrecursionlimit(DEFAULT_LIMIT)
    with pytest.raises(RecursionReexecutionError) as excinfo:
        engine.propagate()
    err = excinfo.value
    assert 'backend="stack"' in str(err)
    assert "REPRO_RECURSION_LIMIT" in str(err)
    assert err.consistent, "abort must leave the trace consistent"
    # Recovery: with headroom restored, propagation finishes the edit.
    sys.setrecursionlimit(high_limit)
    engine.propagate()
    assert list_value_to_python(output) == app.reference(handle.to_python())


# ----------------------------------------------------------------------
# Full-depth mergesort (minutes of runtime): opt-in via environment


@pytest.mark.skipif(
    not os.environ.get("REPRO_DEEP_STRESS"),
    reason="several-minute stress test; set REPRO_DEEP_STRESS=1 to run",
)
def test_stack_msort_full_depth_env_gated(recursion_limit):
    n = int(os.environ.get("REPRO_DEEP_STRESS_N", "100000"))
    app, engine, instance, input_value, handle, rng = _build(
        "msort", n, "stack"
    )
    sys.setrecursionlimit(DEFAULT_LIMIT)
    output = instance.apply(input_value)
    assert list_value_to_python(output) == sorted(handle.to_python())
    app.apply_change(handle, rng, 0)
    engine.propagate()
    assert list_value_to_python(output) == sorted(handle.to_python())
