"""Dynamic-dependence-graph snapshots of the live trace.

The DDG of a self-adjusting run (paper Section 3.5; miniAdapton makes the
same structure inspectable) has three kinds of nodes:

* **modifiables** -- the data vertices;
* **read edges** -- one per traced ``read``, spanning a timestamp interval
  ``[start, end]`` and depending on the modifiable it observed;
* **memo entries** -- reusable sub-trace intervals.

Because every record is anchored at its start stamp, one walk of the
order-maintenance list recovers the whole graph *and* the containment
forest (which read runs inside which) via simple stack discipline.  The
exporters here produce a JSON document (machine-diffable snapshots, e.g.
before/after a propagation that went wrong) and a Graphviz DOT drawing
(solid arrows: read *observes* modifiable; dashed arrows: containment).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional


def _short(value: Any, limit: int = 40) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def ddg_snapshot(engine: Any, values: bool = True) -> Dict[str, Any]:
    """Capture the live trace of ``engine`` as a plain JSON-safe dict.

    The snapshot lists modifiables (``m#``), read edges (``r#``), and memo
    entries (``e#``); each read/memo carries its stamp interval and its
    ``parent`` in the containment forest (``None`` for top-level records).
    Only records reachable from live stamps appear -- exactly the current
    trace, not history.
    """
    mods: Dict[int, Dict[str, Any]] = {}
    mod_order: List[Any] = []

    def mod_id(mod: Any) -> str:
        entry = mods.get(id(mod))
        if entry is None:
            entry = {"id": f"m{len(mods)}", "n_readers": 0}
            if values:
                entry["value"] = _short(mod.value)
            mods[id(mod)] = entry
            mod_order.append(mod)
        return entry["id"]

    reads: List[Dict[str, Any]] = []
    memos: List[Dict[str, Any]] = []
    stack: List[Dict[str, Any]] = []  # open interval records
    end_map: Dict[int, Dict[str, Any]] = {}  # id(end stamp) -> record

    node = engine.order.base.next
    while node is not None:
        record = end_map.pop(id(node), None)
        if record is not None and stack and stack[-1] is record:
            stack.pop()
        owner = node.owner
        if owner is not None and not owner.dead:
            parent = stack[-1]["id"] if stack else None
            if type(owner).__name__ == "ReadEdge":
                rec = {
                    "id": f"r{len(reads)}",
                    "mod": mod_id(owner.mod),
                    "start": owner.start.label,
                    "end": owner.end.label if owner.end is not None else None,
                    "dirty": owner.dirty,
                    "parent": parent,
                }
                mods[id(owner.mod)]["n_readers"] += 1
                reads.append(rec)
            else:
                rec = {
                    "id": f"e{len(memos)}",
                    "key": _short(owner.key),
                    "start": owner.start.label,
                    "end": owner.end.label if owner.end is not None else None,
                    "parent": parent,
                }
                memos.append(rec)
            if owner.end is not None and owner.end is not node:
                end_map[id(owner.end)] = rec
                stack.append(rec)
        node = node.next

    return {
        "live_stamps": engine.order.n_live,
        "trace_size": engine.trace_size(),
        "meter": engine.meter.snapshot(),
        "mods": [mods[id(m)] for m in mod_order],
        "reads": reads,
        "memos": memos,
    }


def ddg_json(engine: Any, values: bool = True, indent: int = 2) -> str:
    """The :func:`ddg_snapshot` serialized as a JSON document."""
    return json.dumps(ddg_snapshot(engine, values=values), indent=indent)


def ddg_dot(engine: Any, values: bool = True, title: str = "ddg") -> str:
    """Render the live trace as a Graphviz DOT digraph.

    Modifiables are ellipses, read edges boxes (dirty ones red), memo
    entries diamonds.  Solid arrows point from a read to the modifiable it
    observed; dashed arrows draw the containment forest in trace order.
    """
    snap = ddg_snapshot(engine, values=values)
    lines = [
        f'digraph "{title}" {{',
        "  rankdir=LR;",
        '  node [fontname="Helvetica", fontsize=10];',
    ]
    for mod in snap["mods"]:
        label = mod["id"]
        if "value" in mod:
            value = mod["value"].replace("\\", "\\\\").replace('"', '\\"')
            label += f"\\n{value}"
        lines.append(f'  {mod["id"]} [shape=ellipse, label="{label}"];')
    for read in snap["reads"]:
        color = ', color=red, fontcolor=red' if read["dirty"] else ""
        label = f'{read["id"]} [{read["start"]},{read["end"]}]'
        lines.append(f'  {read["id"]} [shape=box, label="{label}"{color}];')
        lines.append(f'  {read["id"]} -> {read["mod"]};')
        if read["parent"]:
            lines.append(f'  {read["parent"]} -> {read["id"]} [style=dashed];')
    for memo in snap["memos"]:
        key = memo["key"].replace("\\", "\\\\").replace('"', '\\"')
        label = f'{memo["id"]} {key}'
        lines.append(f'  {memo["id"]} [shape=diamond, label="{label}"];')
        if memo["parent"]:
            lines.append(f'  {memo["parent"]} -> {memo["id"]} [style=dashed];')
    lines.append("}")
    return "\n".join(lines)
