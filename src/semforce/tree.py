"""Forcing trees: one node per connective, quantifier, and atom occurrence.

Every node carries the formula it stands for, set once when the node is
created. A bound position that no instantiation has filled yet is a `Slot`
placeholder naming its quantifier. A quantifier node's first child is its
template (the body with the quantifier's own placeholder). Instantiating the
quantifier with a term clones the template subtree with that placeholder
filled; the clone becomes a new instance child. Clones share the template's
placeholder ids, so a nested quantifier inside an instance can itself be
instantiated independently.

Every node also carries a shape id, composed when the node is created from
its children's ids and interned per tree (hash-consing). In an atom's shape a
bound position is a de Bruijn index: the number of binders between the atom
and the quantifier that binds it, counting template edges only, since an
instance child lies outside its quantifier's binder. A connective's shape is
its kind and its children's ids, a quantifier's is its kind and its template's
id. So two nodes share a shape id exactly when their formulas are equal up to
renaming of bound variables. A node is ground, its formula free of `Slot`s,
when no index in its shape points past the node. Formula classes for
iteration and double marks are the ids of ground shapes.
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
    # the interned id of the formula's shape and whether the formula is ground
    # (module docstring); set with the formula
    shape: int = -1
    ground: bool = False
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


def _atom_key(pred: str, args: tuple, levels: dict[str, int], depth: int) -> tuple:
    """The shape key of an atom `depth` binders deep: a variable whose
    quantifier has levels[name] binders above it becomes its de Bruijn index."""
    return ("atom", pred, tuple(
        depth - 1 - levels[t.name] if isinstance(t, Var) and t.name in levels else t for t in args
    ))


def _compound_key(kind: str, ids) -> tuple:
    """The shape key of a connective (its children's ids) or of a quantifier
    (its template's id)."""
    return (kind, *ids)


def _fill(args: tuple, index: int, term: Term) -> tuple:
    """An atom shape's arguments with de Bruijn index `index` filled by term;
    the indices pointing above it lose the binder that was filled."""
    return tuple(a if type(a) is not int or a < index else term if a == index else a - 1 for a in args)


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
        # interned shapes: key -> id, and per id its key and its reach, one
        # more than the largest index pointing above the shape (0 when ground)
        self._shape_ids: dict[tuple, int] = {}
        self._shape_keys: list[tuple] = []
        self._reach: list[int] = []
        # (template shape, term) -> (instance shape or None, shapes interned then)
        self._instance_memo: dict[tuple[int, Term], tuple[Optional[int], int]] = {}
        self.root = self._build(formula, parent=None, slots={}, levels={}, depth=0)

    # ------------------------------------------------------------ construction

    def _new_node(self, **kw) -> TreeNode:
        node = TreeNode(nid=self._next_nid, **kw)
        self._next_nid += 1
        self.nodes[node.nid] = node
        if node.parent is not None:
            self.nodes[node.parent].children.append(node.nid)
        return node

    def _build(self, f: Formula, parent: Optional[int], slots: dict[str, int], levels: dict[str, int], depth: int,
               is_template: bool = False) -> int:
        """Build f's subtree under parent. slots maps each bound variable to
        its quantifier's placeholder id, levels to the number of binders above
        that quantifier; depth is the number of binders above f."""
        kind = KIND_OF[type(f)]
        if kind == "atom":
            args = tuple(Slot(slots[t.name]) if isinstance(t, Var) and t.name in slots else t for t in f.args)
            node = self._new_node(parent=parent, kind=kind, formula=Atom(f.pred, args), is_template=is_template)
            self._set_shape(node, _atom_key(f.pred, f.args, levels, depth))
            return node.nid
        node = self._new_node(parent=parent, kind=kind, is_template=is_template)
        if kind in _QUANT_KINDS:
            node.var, node.qid = f.var, self._next_qid
            self._next_qid += 1
            self._build(f.body, node.nid, {**slots, f.var: node.qid}, {**levels, f.var: depth}, depth + 1,
                        is_template=True)
        elif kind == "not":
            self._build(f.sub, node.nid, slots, levels, depth)
        else:
            self._build(f.left, node.nid, slots, levels, depth)
            self._build(f.right, node.nid, slots, levels, depth)
        self._compose(node)
        return node.nid

    def _compose(self, node: TreeNode) -> None:
        """A connective's or quantifier's formula and shape from its
        children's; a quantifier binds its own placeholder back to its
        variable, and its shape reads its template only."""
        nodes = self.nodes
        if node.is_quantifier:
            template = nodes[node.children[0]]
            node.formula = CLASS_OF[node.kind](node.var, _subst_slot(template.formula, node.qid, Var(node.var)))
            self._set_shape(node, _compound_key(node.kind, (template.shape,)))
        else:
            kids = [nodes[c] for c in node.children]
            node.formula = CLASS_OF[node.kind](*(k.formula for k in kids))
            self._set_shape(node, _compound_key(node.kind, [k.shape for k in kids]))

    def _set_shape(self, node: TreeNode, key: tuple) -> None:
        sid = self._shape_ids.get(key)
        if sid is None:
            sid = self._shape_ids[key] = len(self._shape_keys)
            self._shape_keys.append(key)
            self._reach.append(self._reach_of(key))
        node.shape = sid
        node.ground = self._reach[sid] == 0

    def _reach_of(self, key: tuple) -> int:
        kind = key[0]
        if kind == "atom":
            return 1 + max((a for a in key[2] if type(a) is int), default=-1)
        if kind in _QUANT_KINDS:
            # the quantifier binds index 0 of its template
            return max(self._reach[key[1]] - 1, 0)
        return max(self._reach[c] for c in key[1:])

    def instantiate(self, qnid: int, term: Term) -> int:
        """Clone the template subtree of quantifier node qnid with its bound
        position filled by term; returns the new instance child's id."""
        q = self.nodes[qnid]
        if not q.is_quantifier:
            raise StateError(f"node {qnid} is not a quantifier node")
        if not q.children:
            raise StateError(f"quantifier node {qnid} has no template child")
        self.version += 1
        return self._clone(q.children[0], q.nid, q.qid, term, fill_term=term, as_template=False, depth=0)

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

    def _clone(self, src_nid: int, parent: int, qid: int, term: Term, fill_term: Optional[Term], as_template: bool,
               depth: int) -> int:
        """Copy src_nid's subtree under parent with placeholder qid filled by
        term; depth is the number of binders between src_nid and qid's
        quantifier, so qid's positions are de Bruijn index depth there."""
        src = self.nodes[src_nid]
        node = self._new_node(
            parent=parent, kind=src.kind, var=src.var, qid=src.qid, is_template=as_template, fill_term=fill_term,
        )
        if src.kind == "atom":
            node.formula = _subst_slot(src.formula, qid, term)
            kind, pred, args = self._shape_keys[src.shape]
            self._set_shape(node, (kind, pred, _fill(args, depth, term)))
            return node.nid
        for i, c in enumerate(src.children):
            # instance branches inside the copied subtree stay instance
            # branches of the copied quantifier, so their fill survives; only
            # a template edge crosses a binder
            template = src.is_quantifier and i == 0
            self._clone(c, node.nid, qid, term, fill_term=self.nodes[c].fill_term, as_template=template,
                        depth=depth + 1 if template else depth)
        self._compose(node)
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
        return self.nodes[nid].ground

    # ------------------------------------------------------------------ shapes

    def class_of(self, f: Formula) -> Optional[int]:
        """The shape id of ground formula f, the id a node carrying f (up to
        renaming of bound variables) has; None when f holds a placeholder or
        no node of this tree has carried it. Looks up, never interns, and
        walks f without recursion."""
        ids = self._shape_ids
        done: list[int] = []
        stack: list[tuple[Formula, dict[str, int], int, bool]] = [(f, {}, 0, False)]
        while stack:
            g, env, depth, expanded = stack.pop()
            kind = KIND_OF[type(g)]
            if kind == "atom":
                if any(isinstance(t, Slot) for t in g.args):
                    return None
                key = _atom_key(g.pred, g.args, env, depth)
            elif not expanded:
                stack.append((g, env, depth, True))
                if kind in _QUANT_KINDS:
                    stack.append((g.body, {**env, g.var: depth}, depth + 1, False))
                elif kind == "not":
                    stack.append((g.sub, env, depth, False))
                else:
                    stack.append((g.right, env, depth, False))
                    stack.append((g.left, env, depth, False))
                continue
            else:
                n = 2 if kind in _BINARY_KINDS else 1
                key = _compound_key(kind, done[-n:])
                del done[-n:]
            sid = ids.get(key)
            if sid is None:
                return None
            done.append(sid)
        # every index points at a binder inside f, so the shape is ground
        return done[0]

    def instance_class(self, qnid: int, term: Term) -> Optional[int]:
        """class_of(instance_formula(qnid, term)), memoized on the template's
        shape and the term. A miss is recomputed once new shapes exist."""
        template = self.nodes[self.nodes[qnid].children[0]].shape
        interned = len(self._shape_keys)
        got = self._instance_memo.get((template, term))
        if got is None or (got[0] is None and got[1] != interned):
            got = self._instance_memo[template, term] = (self.class_of(self.instance_formula(qnid, term)), interned)
        return got[0]

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
