"""Forcing trees: one node per connective, quantifier, and atom occurrence.

A quantifier node's first child is its template (the body with an unfilled
placeholder for the bound position). Instantiating the quantifier with a term
clones the template subtree with that placeholder filled; the clone becomes a
new instance child. Clones share the template's placeholder ids, so a nested
quantifier inside an instance can itself be instantiated independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import FreeVariableError, StateError
from .formulas import (
    BINARY,
    CLASS_OF,
    KIND_OF,
    QUANTIFIERS,
    Atom,
    Formula,
    Not,
    Slot,
    Term,
    Var,
    free_variables,
    is_ground,
)

_BINARY_KINDS = frozenset(KIND_OF[c] for c in BINARY)
_QUANT_KINDS = frozenset(KIND_OF[c] for c in QUANTIFIERS)


@dataclass
class TreeNode:
    nid: int
    parent: Optional[int]
    kind: str
    children: list[int] = field(default_factory=list)
    # atom nodes: the argument pattern, with Slot placeholders for bound positions
    atom_shape: Optional[Atom] = None
    # quantifier nodes: bound-variable name and the placeholder id it fills
    var: Optional[str] = None
    qid: Optional[int] = None
    # placeholder fills inherited from instantiations on the path above
    slot_fill: dict[int, Term] = field(default_factory=dict)
    # True for the first child of a quantifier node
    is_template: bool = False
    # instance children: the term the parent quantifier was instantiated with
    fill_term: Optional[Term] = None

    @property
    def is_quantifier(self) -> bool:
        return self.kind in _QUANT_KINDS

    @property
    def is_binary(self) -> bool:
        return self.kind in _BINARY_KINDS


def _subst_slot(f: Formula, qid: int, term: Term) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(term if isinstance(t, Slot) and t.qid == qid else t for t in f.args))
    if isinstance(f, Not):
        return Not(_subst_slot(f.sub, qid, term))
    if isinstance(f, BINARY):
        return type(f)(_subst_slot(f.left, qid, term), _subst_slot(f.right, qid, term))
    return type(f)(f.var, _subst_slot(f.body, qid, term))


class ForcingTree:
    """Mutable node store; grows monotonically under instantiation."""

    def __init__(self, formula: Formula):
        self.nodes: dict[int, TreeNode] = {}
        self._next_nid = 1
        self._next_qid = 1
        self._formula_cache: dict[int, Formula] = {}
        # bumped whenever nodes are added or removed after construction; it
        # only increases, so a (version, value) pair never goes stale
        self.version = 0
        self.source = formula
        self.root = self._build(formula, parent=None, env={}, slot_fill={}, is_template=False, fill_term=None)

    # ------------------------------------------------------------ construction

    def _new_node(self, **kw) -> TreeNode:
        node = TreeNode(nid=self._next_nid, **kw)
        self._next_nid += 1
        self.nodes[node.nid] = node
        if node.parent is not None:
            self.nodes[node.parent].children.append(node.nid)
        return node

    def _build(
        self,
        f: Formula,
        parent: Optional[int],
        env: dict[str, int],
        slot_fill: dict[int, Term],
        is_template: bool,
        fill_term: Optional[Term],
    ) -> int:
        kind = KIND_OF[type(f)]
        if kind == "atom":
            args = tuple(Slot(env[t.name]) if isinstance(t, Var) and t.name in env else t for t in f.args)
            node = self._new_node(
                parent=parent, kind=kind, atom_shape=Atom(f.pred, args),
                slot_fill=dict(slot_fill), is_template=is_template, fill_term=fill_term,
            )
            return node.nid
        if kind in _QUANT_KINDS:
            qid = self._next_qid
            self._next_qid += 1
            node = self._new_node(
                parent=parent, kind=kind, var=f.var, qid=qid,
                slot_fill=dict(slot_fill), is_template=is_template, fill_term=fill_term,
            )
            self._build(f.body, node.nid, {**env, f.var: qid}, slot_fill, is_template=True, fill_term=None)
            return node.nid
        node = self._new_node(
            parent=parent, kind=kind, slot_fill=dict(slot_fill), is_template=is_template, fill_term=fill_term,
        )
        if kind == "not":
            self._build(f.sub, node.nid, env, slot_fill, is_template=False, fill_term=None)
        else:
            self._build(f.left, node.nid, env, slot_fill, is_template=False, fill_term=None)
            self._build(f.right, node.nid, env, slot_fill, is_template=False, fill_term=None)
        return node.nid

    def instantiate(self, qnid: int, term: Term) -> int:
        """Clone the template subtree of quantifier node qnid with its bound
        position filled by term; returns the new instance child's id."""
        q = self.nodes[qnid]
        if not q.is_quantifier:
            raise StateError(f"node {qnid} is not a quantifier node")
        if not q.children:
            raise StateError(f"quantifier node {qnid} has no template child")
        self.version += 1
        return self._clone(q.children[0], q.nid, {q.qid: term}, fill_term=term, as_template=False)

    def truncate(self, next_nid: int) -> list[int]:
        """Remove every node numbered next_nid or above, so that the next node
        created is numbered next_nid again; returns the removed ids."""
        removed = []
        for nid in range(next_nid, self._next_nid):
            node = self.nodes.pop(nid, None)
            if node is None:
                continue
            removed.append(nid)
            self._formula_cache.pop(nid, None)
            if node.parent is not None and node.parent in self.nodes:
                siblings = self.nodes[node.parent].children
                if nid in siblings:
                    siblings.remove(nid)
        if removed:
            self.version += 1
        self._next_nid = next_nid
        return removed

    def _clone(self, src_nid: int, parent: int, extra_fill: dict[int, Term], fill_term: Optional[Term], as_template: bool) -> int:
        src = self.nodes[src_nid]
        node = self._new_node(
            parent=parent, kind=src.kind, atom_shape=src.atom_shape, var=src.var, qid=src.qid,
            slot_fill={**src.slot_fill, **extra_fill}, is_template=as_template, fill_term=fill_term,
        )
        for i, c in enumerate(src.children):
            child_is_template = src.is_quantifier and i == 0
            # instance branches inside the copied subtree stay instance
            # branches of the copied quantifier, so their fill survives
            self._clone(c, node.nid, extra_fill, fill_term=self.nodes[c].fill_term, as_template=child_is_template)
        return node.nid

    # --------------------------------------------------------------- formulas

    def node_formula(self, nid: int) -> Formula:
        """The formula this node stands for; unfilled placeholders print as `_`
        and make the node non-ground. Stable over the node's lifetime."""
        cached = self._formula_cache.get(nid)
        if cached is not None:
            return cached
        node = self.nodes[nid]
        if node.kind == "atom":
            f: Formula = Atom(
                node.atom_shape.pred,
                tuple(node.slot_fill.get(t.qid, t) if isinstance(t, Slot) else t for t in node.atom_shape.args),
            )
        elif node.kind == "not":
            f = Not(self.node_formula(node.children[0]))
        elif node.is_binary:
            f = CLASS_OF[node.kind](self.node_formula(node.children[0]), self.node_formula(node.children[1]))
        else:
            body = _subst_slot(self.node_formula(node.children[0]), node.qid, Var(node.var))
            f = CLASS_OF[node.kind](node.var, body)
        self._formula_cache[nid] = f
        return f

    def is_ground_node(self, nid: int) -> bool:
        return is_ground(self.node_formula(nid))

    def instance_children(self, qnid: int) -> list[int]:
        return self.nodes[qnid].children[1:]

    def instance_terms(self, qnid: int) -> list[Term]:
        return [self.nodes[c].fill_term for c in self.instance_children(qnid)]

    # ------------------------------------------------------------- traversal

    def preorder(self, start: Optional[int] = None) -> Iterator[int]:
        stack = [self.root if start is None else start]
        while stack:
            nid = stack.pop()
            yield nid
            stack.extend(reversed(self.nodes[nid].children))

    def profundity(self, nid: Optional[int] = None) -> int:
        """Height of the subtree: 0 at atom nodes, else 1 + max over children."""
        node = self.nodes[self.root if nid is None else nid]
        if not node.children:
            return 0
        return 1 + max(self.profundity(c) for c in node.children)

    def __len__(self) -> int:
        return len(self.nodes)


def build_initial_tree(f: Formula) -> ForcingTree:
    """Initial tree of a closed formula: quantifier bodies carry placeholders
    where the bound variable occurred."""
    fv = free_variables(f)
    if fv:
        raise FreeVariableError(f"tree construction needs a closed formula; free: {sorted(fv)}")
    return ForcingTree(f)


def node_formula(t: ForcingTree, n: int) -> Formula:
    return t.node_formula(n)


def profundity(t: ForcingTree, n: int) -> int:
    return t.profundity(n)


def instantiate_branch(t: ForcingTree, q: int, term: Term) -> int:
    return t.instantiate(q, term)
