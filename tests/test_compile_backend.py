"""The stack-machine backend's staged execution, unit-tested.

``tests/test_backends_differential.py`` asserts meter-exact equivalence
with the interpreter across the whole application registry; this file
covers the pieces individually: frame/slot variable resolution (including
deep static-link chains), stack closures' memo identity, the pipeline's
case-dispatch index, the structural ``ConValue`` hash, and the performance
pin that justifies the backend's existence.
"""

import random
import time

import pytest

from repro.api import Session
from repro.apps import REGISTRY
from repro.backends import BACKENDS, resolve_backend
from repro.compile import StackClosure, StackSelfAdjusting
from repro.compile.stackmachine import Code
from repro.core.pipeline import compile_program
from repro.interp.marshal import ModListInput
from repro.interp.values import ConValue, LmlRuntimeError
from repro.sac.api import memo_key
from repro.sac.engine import Engine


# ----------------------------------------------------------------------
# ConValue hashing (regression: __hash__ used id(self.arg) while __eq__
# compared structurally, so equal values landed in different hash buckets)


def test_convalue_hash_is_structural():
    a = ConValue("Cons", (1, 2))
    b = ConValue("Cons", (1, 2))
    assert a == b
    assert hash(a) == hash(b)


def test_convalue_hash_respects_set_semantics():
    values = {ConValue("Leaf", 3), ConValue("Leaf", 3), ConValue("Leaf", 4)}
    assert len(values) == 2
    table = {ConValue("Nil"): "empty"}
    assert table[ConValue("Nil")] == "empty"


def test_convalue_nested_hash():
    inner = ConValue("Some", 1)
    assert hash(ConValue("Box", inner)) == hash(ConValue("Box", ConValue("Some", 1)))


# ----------------------------------------------------------------------
# Backend selection


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend() == "stack"
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    assert resolve_backend() == "interp"
    # An explicit request beats the environment ...
    assert resolve_backend("stack") == "stack"
    # ... and an empty variable counts as unset.
    monkeypatch.setenv("REPRO_BACKEND", "")
    assert resolve_backend() == "stack"
    assert BACKENDS == ("interp", "stack")


def test_unknown_backend_rejected(monkeypatch):
    program = compile_program("val main : int $C -> int $C = fn x => x + 1")
    # "compiled" (the removed closure backend) is just another unknown name.
    for name in ("jit", "compiled"):
        monkeypatch.setenv("REPRO_BACKEND", name)
        with pytest.raises(ValueError):
            resolve_backend()
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with pytest.raises(ValueError):
            Session(program, backend=name)


# ----------------------------------------------------------------------
# Staged execution


def run_staged(src, **kwargs):
    return Session(src, backend="stack", **kwargs)


def test_scalar_program_compiles_and_propagates():
    sa = run_staged("val main : int $C -> int $C = fn x => (x + 1) * (x + 2)")
    x = sa.make_input(3)
    out = sa.run(x)
    assert out.peek() == 20
    sa.edit(x, 10)
    sa.propagate()
    assert out.peek() == 132


def test_deep_static_link_chain():
    # Four nested lambdas: the innermost body reads variables at static
    # depths 0..3, exercising the slot accessors beyond the unrolled
    # depth-2 fast paths.
    sa = run_staged(
        """
        val add4 : int -> int -> int -> int -> int =
          fn a => fn b => fn c => fn d => ((a * 1000 + b * 100) + c * 10) + d
        val main : int $C -> int $C = fn x => add4 1 2 3 x
        """
    )
    x = sa.make_input(4)
    out = sa.run(x)
    assert out.peek() == 1234
    sa.edit(x, 9)
    sa.propagate()
    assert out.peek() == 1239


def test_case_dispatch_and_recursion():
    sa = run_staged(
        """
        datatype cell = Nil | Cons of int * cell $C
        fun sumlist l = case l of Nil => 0 | Cons (h, t) => h + sumlist t
        val main : cell $C -> int $C = sumlist
        """
    )
    xs = ModListInput(sa.engine, [1, 2, 3, 4])
    out = sa.run(xs.head)
    assert out.peek() == 10
    xs.insert(2, 100)
    sa.propagate()
    assert out.peek() == 110
    xs.remove(0)
    sa.propagate()
    assert out.peek() == 109


def test_stack_closure_memo_identity():
    code = Code("f")
    clo = StackClosure(code, [None])
    other = StackClosure(code, [None])
    assert clo.memo_key() is clo is memo_key(clo)
    assert clo.memo_key() != other.memo_key()


def test_stack_backend_rejects_non_function():
    rt = StackSelfAdjusting(Engine())
    with pytest.raises(LmlRuntimeError, match="non-function"):
        rt.apply(42, 1)


# ----------------------------------------------------------------------
# The pipeline's case-dispatch index


def test_pipeline_indexes_case_dispatch():
    from repro.core import sxml as S

    program = compile_program(
        """
        datatype cell = Nil | Cons of int * cell $C
        fun sumlist l = case l of Nil => 0 | Cons (h, t) => h + sumlist t
        val main : cell $C -> int $C = sumlist
        """
    )

    found = []

    def walk(node):
        if isinstance(node, (S.BCase, S.CCase)):
            found.append(node)
        if hasattr(node, "__dataclass_fields__"):
            for name in node.__dataclass_fields__:
                child = getattr(node, name)
                for item in child if isinstance(child, (list, tuple)) else [child]:
                    if hasattr(item, "__dataclass_fields__"):
                        walk(item)
                    elif isinstance(item, tuple):
                        for sub in item:
                            if hasattr(sub, "__dataclass_fields__"):
                                walk(sub)

    walk(program.sxml_translated)
    walk(program.sxml_conventional)
    assert found, "expected at least one case node"
    for node in found:
        assert node.tag_map is not None
        assert set(node.tag_map) == {c.tag for c in node.clauses}


# ----------------------------------------------------------------------
# The performance pin: the stack machine must beat tree-walking


def _best_initial_run(backend, n=64, repeats=3):
    app = REGISTRY["msort"]
    best = float("inf")
    for attempt in range(repeats):
        rng = random.Random(0)
        data = app.make_data(n, rng)
        engine = Engine()
        instance = app.instance(engine, backend=backend)
        input_value, _ = app.make_sa_input(engine, data)
        start = time.perf_counter()
        instance.apply(input_value)
        best = min(best, time.perf_counter() - start)
    return best


def test_stack_initial_run_is_faster_than_interp():
    """The backend's raison d'etre (and the figure-6 overhead pin):
    identical engine work, so any difference is pure dispatch cost --
    the flat machine must win.  The full >=1.4x claim is measured by
    ``benchmarks/bench_backend_speedup.py``; here we pin the direction
    with headroom so the suite stays robust on loaded CI machines."""
    interp = _best_initial_run("interp")
    stack = _best_initial_run("stack")
    assert stack < interp, (
        f"stack initial run ({stack:.4f}s) not faster than "
        f"interp ({interp:.4f}s)"
    )
