"""Forcing trees: one node per connective, quantifier, and atom occurrence.

Every node carries the formula it stands for, set once when the node is
created. A bound position that no instantiation has filled yet is a `Slot`
placeholder naming its quantifier, so a node is ground exactly when its
formula holds no `Slot`. A quantifier node's first child is its template
(the body with the quantifier's own placeholder). Instantiating the quantifier
with a term clones the template subtree with that placeholder filled; the
clone becomes a new instance child. Clones share the template's placeholder
ids, so a nested quantifier inside an instance can itself be instantiated
independently.
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
    # the formula this node stands for, with a Slot at every bound position no
    # instantiation on the path above has filled; set once the children exist
    formula: Optional[Formula] = None
    # quantifier nodes: bound-variable name and the placeholder id it fills
    var: Optional[str] = None
    qid: Optional[int] = None
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
        # bumped whenever nodes are added or removed after construction; it
        # only increases, so a (version, value) pair never goes stale
        self.version = 0
        self.source = formula
        self.root = self._build(formula, parent=None, env={})

    # ------------------------------------------------------------ construction

    def _new_node(self, **kw) -> TreeNode:
        node = TreeNode(nid=self._next_nid, **kw)
        self._next_nid += 1
        self.nodes[node.nid] = node
        if node.parent is not None:
            self.nodes[node.parent].children.append(node.nid)
        return node

    def _build(self, f: Formula, parent: Optional[int], env: dict[str, int], is_template: bool = False) -> int:
        kind = KIND_OF[type(f)]
        if kind == "atom":
            args = tuple(Slot(env[t.name]) if isinstance(t, Var) and t.name in env else t for t in f.args)
            return self._new_node(parent=parent, kind=kind, formula=Atom(f.pred, args), is_template=is_template).nid
        node = self._new_node(parent=parent, kind=kind, is_template=is_template)
        if kind in _QUANT_KINDS:
            node.var, node.qid = f.var, self._next_qid
            self._next_qid += 1
            self._build(f.body, node.nid, {**env, f.var: node.qid}, is_template=True)
        elif kind == "not":
            self._build(f.sub, node.nid, env)
        else:
            self._build(f.left, node.nid, env)
            self._build(f.right, node.nid, env)
        node.formula = self._compose(node)
        return node.nid

    def _compose(self, node: TreeNode) -> Formula:
        """A connective's or quantifier's formula from its children's; a
        quantifier binds its own placeholder back to its variable."""
        if node.is_quantifier:
            body = _subst_slot(self.nodes[node.children[0]].formula, node.qid, Var(node.var))
            return CLASS_OF[node.kind](node.var, body)
        return CLASS_OF[node.kind](*(self.nodes[c].formula for c in node.children))

    def instantiate(self, qnid: int, term: Term) -> int:
        """Clone the template subtree of quantifier node qnid with its bound
        position filled by term; returns the new instance child's id."""
        q = self.nodes[qnid]
        if not q.is_quantifier:
            raise StateError(f"node {qnid} is not a quantifier node")
        if not q.children:
            raise StateError(f"quantifier node {qnid} has no template child")
        self.version += 1
        return self._clone(q.children[0], q.nid, q.qid, term, fill_term=term, as_template=False)

    def truncate(self, next_nid: int) -> list[int]:
        """Remove every node numbered next_nid or above, so that the next node
        created is numbered next_nid again; returns the removed ids."""
        removed = []
        for nid in range(next_nid, self._next_nid):
            node = self.nodes.pop(nid)
            removed.append(nid)
            if node.parent is not None and node.parent in self.nodes:
                siblings = self.nodes[node.parent].children
                if nid in siblings:
                    siblings.remove(nid)
        if removed:
            self.version += 1
        self._next_nid = next_nid
        return removed

    def _clone(self, src_nid: int, parent: int, qid: int, term: Term, fill_term: Optional[Term], as_template: bool) -> int:
        """Copy src_nid's subtree under parent with placeholder qid filled by term."""
        src = self.nodes[src_nid]
        node = self._new_node(
            parent=parent, kind=src.kind, var=src.var, qid=src.qid, is_template=as_template, fill_term=fill_term,
        )
        if src.kind == "atom":
            node.formula = _subst_slot(src.formula, qid, term)
            return node.nid
        for i, c in enumerate(src.children):
            # instance branches inside the copied subtree stay instance
            # branches of the copied quantifier, so their fill survives
            self._clone(c, node.nid, qid, term, fill_term=self.nodes[c].fill_term, as_template=src.is_quantifier and i == 0)
        node.formula = self._compose(node)
        return node.nid

    # --------------------------------------------------------------- formulas

    def node_formula(self, nid: int) -> Formula:
        """The formula this node stands for; unfilled placeholders print as `_`
        and make the node non-ground. Stable over the node's lifetime."""
        return self.nodes[nid].formula

    def instance_formula(self, qnid: int, term: Term) -> Formula:
        """The formula an instance branch of quantifier qnid filled with term
        carries, whether or not that branch exists."""
        q = self.nodes[qnid]
        return _subst_slot(self.nodes[q.children[0]].formula, q.qid, term)

    def is_ground_node(self, nid: int) -> bool:
        return is_ground(self.nodes[nid].formula)

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
