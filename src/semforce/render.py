"""Tree and trace rendering: indented text, Graphviz DOT, and step lists.

Marks render as [1]/[0], unmarked nodes as [?], and marks placed inside a
still-open supposition as [1?]/[0?].
"""

from __future__ import annotations

from typing import Optional

from .formulas import KIND_OF, OP_SYMBOL, format_formula
from .marking import MarkingState, TraceStep

_OP_LABEL = {"not": "~", **{KIND_OF[cls]: sym for cls, sym in OP_SYMBOL.items()}}


def _provisional_floor(s: MarkingState) -> Optional[int]:
    return min((f.opened_at for f in s.scopes), default=None)


def _mark_text(s: MarkingState, nid: int, floor: Optional[int]) -> str:
    v = s.marked(nid)
    if v is None:
        return "[?]"
    if floor is not None and s.step_of(nid) >= floor:
        return f"[{v}?]"
    return f"[{v}]"


def _node_label(s: MarkingState, nid: int) -> str:
    node = s.tree.nodes[nid]
    if node.kind == "atom":
        return format_formula(s.tree.node_formula(nid))
    if node.is_quantifier:
        return f"{node.kind} {node.var}"
    return _OP_LABEL[node.kind]


def _edge_note(s: MarkingState, nid: int) -> Optional[str]:
    node = s.tree.nodes[nid]
    if node.parent is None:
        return None
    parent = s.tree.nodes[node.parent]
    if not parent.is_quantifier:
        return None
    if node.fill_term is None:
        return "template"
    return f"{parent.var}:={node.fill_term}"


def render_ascii(s: MarkingState) -> str:
    floor = _provisional_floor(s)
    lines: list[str] = []
    stack = [(s.tree.root, 0)]
    while stack:
        nid, depth = stack.pop()
        note = _edge_note(s, nid)
        prefix = "  " * depth + (f"({note}) " if note else "")
        lines.append(f"{prefix}{_node_label(s, nid)} {_mark_text(s, nid, floor)}")
        stack.extend((c, depth + 1) for c in reversed(s.tree.nodes[nid].children))
    return "\n".join(lines)


def render_dot(s: MarkingState) -> str:
    floor = _provisional_floor(s)
    out = ["digraph forcing_tree {", '  node [shape=box, fontname="monospace"];']

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    for nid in s.tree.preorder():
        v = s.marked(nid)
        if v == 1:
            fill = "palegreen"
        elif v == 0:
            fill = "lightcoral"
        else:
            fill = "white"
        style = "filled"
        if v is not None and floor is not None and s.step_of(nid) >= floor:
            style = "filled,dashed"
        label = _node_label(s, nid)
        if v is not None:
            label = f"{label}  {v}"
        out.append(f'  n{nid} [label="{esc(label)}", style="{style}", fillcolor="{fill}"];')
    for nid in s.tree.preorder():
        for c in s.tree.nodes[nid].children:
            note = _edge_note(s, c)
            attr = f' [label="{esc(note)}"]' if note else ""
            out.append(f"  n{nid} -> n{c}{attr};")
    out.append("}")
    return "\n".join(out)


def render_trace(trace: list[TraceStep]) -> str:
    lines = []
    for st in trace:
        line = f"{st.step}. {st.rule}"
        if st.premises:
            line += " en " + ", ".join(str(p) for p in st.premises)
        lines.append(line)
    return "\n".join(lines)
