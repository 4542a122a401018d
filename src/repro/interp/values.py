"""Runtime value representations shared by both interpreters.

* base values: Python ``int``/``float``/``bool``/``str``/``()``;
* tuples: Python tuples;
* vectors: Python tuples (immutable, as SML vectors);
* datatype values: :class:`ConValue`;
* functions: :class:`Closure` (interpreted) or :class:`BuiltinFn`;
* references: :class:`RefCell` conventionally; a
  :class:`repro.sac.Modifiable` in self-adjusting runs;
* changeable data in self-adjusting runs: :class:`repro.sac.Modifiable`.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.sac.api import memo_key


class LmlRuntimeError(Exception):
    """Runtime failure in interpreted LML code."""


class MatchFailure(LmlRuntimeError):
    """A case expression matched none of its clauses."""


class ConValue:
    """A datatype constructor value: tag plus optional argument.

    Equality and hashing are structural (matching SML value equality over
    the constructed data; pieces without structural equality -- modifiables,
    closures -- fall back to identity).  Both are implemented iteratively
    with explicit stacks: constructor spines built without intervening
    modifiables (``marshal.plain_list``) can be deeper than the Python
    recursion limit.  The structural hash is computed once and cached.

    Values are not hash-consed: equal cells built twice are two objects,
    and the engine's write cutoff compares them structurally
    (:func:`repro.sac.engine._values_equal`).
    """

    __slots__ = ("tag", "arg", "_hash")

    def __init__(self, tag: str, arg: Any = None) -> None:
        self.tag = tag
        self.arg = arg
        self._hash: Optional[int] = None

    def __eq__(self, other: Any) -> bool:
        if self is other:
            return True
        if not isinstance(other, ConValue):
            return False
        stack = [(self.arg, other.arg)]
        if self.tag != other.tag:
            return False
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            a_con = type(a) is ConValue
            if a_con and type(b) is ConValue:
                if a.tag != b.tag:
                    return False
                stack.append((a.arg, b.arg))
                continue
            if type(a) is tuple and type(b) is tuple:
                if len(a) != len(b):
                    return False
                stack.extend(zip(a, b))
                continue
            # Mixed or leaf pair: plain equality.  A ConValue here pairs
            # with a non-ConValue, so this bottoms out immediately.
            if a_con or type(b) is ConValue:
                return False
            if not a == b:
                return False
        return True

    def __hash__(self) -> int:
        # Structural, matching __eq__: equal values must hash equally or
        # dict/set membership (and any hash-keyed memo path) breaks.
        h = self._hash
        if h is not None:
            return h
        # Discover uncached constructor nodes (parents before children),
        # then fill hashes bottom-up so each hash() call below finds its
        # constructor children already cached and stays O(1)-deep.
        order = []
        stack: list = [self]
        while stack:
            v = stack.pop()
            tv = type(v)
            if tv is ConValue:
                if v._hash is None:
                    order.append(v)
                    stack.append(v.arg)
            elif tv is tuple:
                stack.extend(v)
        for v in reversed(order):
            if v._hash is None:
                v._hash = hash((v.tag, v.arg))
        return self._hash

    def memo_key(self) -> Any:
        return ("con", self.tag, memo_key(self.arg))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.arg is None:
            return self.tag
        return f"{self.tag}({self.arg!r})"


class Closure:
    """An interpreted function value."""

    __slots__ = ("param", "body", "env", "name")

    def __init__(self, param: str, body: Any, env: "Env", name: str = "") -> None:
        self.param = param
        self.body = body
        self.env = env
        self.name = name

    def memo_key(self) -> Any:
        # Closures key by identity; the closure is its own key (default
        # object hash/eq), saving a wrapper allocation per memo lookup.
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<closure {self.name or self.param}>"


class RefCell:
    """A mutable reference for conventional execution."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ref({self.value!r})"


class Env:
    """A chained environment frame.

    Binder names are globally unique after compilation, so adding bindings
    by mutating the innermost frame is safe; function application and
    re-executed readers always start a fresh frame.
    """

    __slots__ = ("parent", "vars")

    def __init__(self, parent: Optional["Env"] = None, vars: Optional[dict] = None) -> None:
        self.parent = parent
        self.vars = vars if vars is not None else {}

    def lookup(self, name: str) -> Any:
        env: Optional[Env] = self
        while env is not None:
            found = env.vars.get(name, _MISSING)
            if found is not _MISSING:
                return found
            env = env.parent
        raise LmlRuntimeError(f"unbound variable at runtime: {name}")

    def bind(self, name: str, value: Any) -> None:
        self.vars[name] = value

    def child(self) -> "Env":
        return Env(self)


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def deep_read(value: Any) -> Any:
    """Convert a runtime value to plain Python data, reading through
    modifiables (untracked).  Used for verification and output readback."""
    from repro.sac.modifiable import Modifiable

    if isinstance(value, Modifiable):
        return deep_read(value.peek())
    if isinstance(value, ConValue):
        if value.arg is None:
            return (value.tag,)
        return (value.tag, deep_read(value.arg))
    if isinstance(value, tuple):
        return tuple(deep_read(v) for v in value)
    if isinstance(value, RefCell):
        return ("ref", deep_read(value.value))
    return value


def list_value_to_python(value: Any) -> list:
    """Read a cons-list value (``Nil``/``Cons(h, t)``, possibly through
    modifiables) back into a Python list, iteratively."""
    from repro.sac.modifiable import Modifiable

    out = []
    node = value
    while True:
        while isinstance(node, Modifiable):
            node = node.peek()
        if not isinstance(node, ConValue):
            raise LmlRuntimeError(f"not a list value: {node!r}")
        if node.arg is None:
            return out
        head, tail = node.arg
        while isinstance(head, Modifiable):
            head = head.peek()
        out.append(head)
        node = tail
