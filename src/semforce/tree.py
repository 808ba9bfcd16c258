"""Forcing trees: one node per connective, quantifier, and atom occurrence.

A quantifier node's first child is its template (the body, with the
quantifier's own bound position left open), the one child whose `fill_term`
is None. Instantiating the quantifier with a term clones the template subtree
with that position filled; the clone becomes a new instance child, and a
quantifier copied into it keeps its template, so it can be instantiated too.

Node ids are 1..len(nodes): each new node takes the next one, and `truncate`
removes only the newest, so the next id is always `len(nodes) + 1`.

Facts about a node that no mark affects live on the tree, so that `truncate`
undoes them with the nodes. `classes` maps each formula class (below) to the
ids of the nodes carrying it. Every child list and class list is in id order,
so `truncate`, walking the removed ids newest first, always removes the tail
of each, and it deletes a class whose last member goes. After `truncate(n)`,
`classes` is again what it was, key order included, when the next id was n.

A node stores its formula only as a shape id, set once when the node is
created and interned per tree (hash-consing). In an atom's shape a bound
position is a de Bruijn index: the number of binders between the atom and the
quantifier that binds it, counting template edges only, since an instance
child lies outside its quantifier's binder. A connective's shape is its kind
and its children's ids, a quantifier's is its kind and its template's id. So
two nodes share a shape id exactly when their formulas are equal up to
renaming of bound variables. A clone's shapes are its source's with one index
filled (`_filled`). A node is ground when no index in its shape points past
the node. Formula classes for iteration and double marks are the ids of
ground shapes.

`node_formula` reads a node's formula back from the shapes below it and the
variables of the quantifiers on the way. An index that points past the node
becomes the anonymous placeholder `Slot()`; `instance_formula` reads the one
pointing a single binder past a template as the instance's term instead.

Each shape also keeps the names of the `Var` terms its atoms carry: these
are the free variables of the node's formula (`node_free_variables`). The
source is closed, so in a tree from `build_initial_tree` they come only from
fill terms such as the generic variable. Every shape, from `_build` or from
`_filled`, is interned by one `_intern` call, which composes a new shape's
reach and names from its key and its children's.

`_build` makes the nodes in one preorder pass over the source, then interns
their shapes from the newest node back, and neither recurses. The pass also
gathers the source's constants in first-occurrence order, its predicate
arities and every identifier it uses, so the marking state, the fragment
test and model extraction read these facts from the tree instead of walking
the source again. With drop_vacuous it leaves out each vacuous binder, its
body in its place, and so builds the tree of `drop_vacuous(f)`; at the first
binder it meets, one more loop over the source finds them all.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import FreeVariableError, StateError
from .formulas import (
    CLASS_OF,
    KIND_OF,
    QUANTIFIERS,
    Atom,
    Const,
    Formula,
    Not,
    Record,
    Slot,
    Term,
    Var,
)

_QUANT_KINDS = frozenset(KIND_OF[c] for c in QUANTIFIERS)
_SLOT = Slot()


class TreeNode(Record):
    __match_args__ = __slots__ = (
        "nid", "parent", "kind", "children", "shape", "ground", "is_quantifier", "var", "fill_term",
    )

    def __init__(
        self, nid: int, parent: Optional[int], kind: str, children: list[int], shape: int = -1,
        ground: bool = False, is_quantifier: bool = False, var: Optional[str] = None, fill_term: Optional[Term] = None,
    ) -> None:
        self.nid = nid
        self.parent = parent
        self.kind = kind
        self.children = children
        # the interned id of the node's shape, from which its formula is read, and
        # whether that formula is ground (module docstring); set once, when the
        # node is created or, in the initial tree, once the build is done
        self.shape = shape
        self.ground = ground
        # whether kind is a quantifier kind; set when the node is created
        self.is_quantifier = is_quantifier
        # quantifier nodes: the bound variable's name
        self.var = var
        # instance children: the term the parent quantifier was instantiated with
        self.fill_term = fill_term


class ForcingTree:
    """Mutable node store; grows monotonically under instantiation."""

    def __init__(self, formula: Formula, drop_vacuous: bool = False):
        self.nodes: dict[int, TreeNode] = {}
        # bumped whenever nodes are removed, or added after construction; it
        # only increases, so a (version, value) pair never goes stale
        self.version = 0
        # facts about the source, gathered by _build: constant names in
        # first-occurrence order (a dict used as an ordered set), predicate
        # arities, and every predicate, constant and variable name
        self.constants: dict[str, None] = {}
        self.arities: dict[str, int] = {}
        self.identifiers: set[str] = set()
        # interned shapes: key -> id, and per id its key, its reach, one more
        # than the largest index pointing above the shape (0 when ground), and
        # the names of the variables its atoms carry
        self._shape_ids: dict[tuple, int] = {}
        self._shape_keys: list[tuple] = []
        self._reach: list[int] = []
        self._free: list[frozenset[str]] = []
        # (shape, index, term) -> _filled's answer, for the shapes index reaches
        self._fills: dict[tuple[int, int, Term], int] = {}
        # formula class -> ids of the ground nodes carrying it, in id order;
        # filled, and ground set, once _build has interned every shape
        self.classes: dict[int, list[int]] = {}
        self._build(formula, drop_vacuous)
        self.root = 1
        for nid, node in self.nodes.items():
            node.ground = self._reach[node.shape] == 0
            if node.ground:
                self.classes.setdefault(node.shape, []).append(nid)
        # _build named the binders; a bound variable's name is its binder's
        self.identifiers.update(self.arities, self.constants, self.node_free_variables(self.root))

    # ------------------------------------------------------------ construction

    def _build(self, f: Formula, drop_vacuous: bool) -> None:
        """Make f's nodes in preorder, with drop_vacuous each vacuous binder
        left out and its body in its place, then intern their shapes from the
        newest node back. Also records f's constants, its predicate arities
        (raising on a predicate used with two) and the binders' names."""
        nodes, intern, shape_ids = self.nodes, self._intern, self._shape_ids
        constants, arities = self.constants, self.arities
        # (subformula, parent id, parent's children, levels, depth): levels maps
        # a bound variable to the number of binders above its quantifier, depth
        # counts those above the subformula; a bound index is depth - 1 - level
        stack: list[tuple] = [(f, None, [], {}, 0)]
        vacuous: Optional[set[int]] = None
        while stack:
            g, parent, siblings, levels, depth = stack.pop()
            kind = KIND_OF[type(g)]
            quantifier = kind in _QUANT_KINDS
            if quantifier and drop_vacuous:
                # found at the first binder, so a formula without any is walked once
                if vacuous is None:
                    vacuous = _vacuous_binders(f)
                if id(g) in vacuous:
                    stack.append((g.body, parent, siblings, levels, depth))
                    continue
            nid = len(nodes) + 1
            nodes[nid] = node = TreeNode(nid, parent, kind, [], -1, False, quantifier)
            siblings.append(nid)
            if kind == "atom":
                pred, args = g.pred, g.args
                prev = arities.setdefault(pred, len(args))
                if prev != len(args):
                    raise FreeVariableError(f"predicate {pred!r} used with arities {prev} and {len(args)}")
                # one loop rather than two generator passes: this runs per atom
                shaped = []
                for t in args:
                    if type(t) is Var:
                        if t.name in levels:
                            t = depth - 1 - levels[t.name]
                    elif type(t) is Const:
                        constants[t.name] = None
                    shaped.append(t)
                node.shape = intern((kind, pred, tuple(shaped)))
            elif quantifier:
                node.var = g.var
                self.identifiers.add(g.var)
                stack.append((g.body, nid, node.children, {**levels, g.var: depth}, depth + 1))
            elif kind == "not":
                stack.append((g.sub, nid, node.children, levels, depth))
            else:
                stack += (g.right, nid, node.children, levels, depth), (g.left, nid, node.children, levels, depth)
        # a connective's shape is its kind and its children's shapes, a
        # quantifier's its kind and its template's, each interned before it
        for node in reversed(nodes.values()):
            kids = node.children
            if kids:
                if len(kids) == 1:
                    key = (node.kind, nodes[kids[0]].shape)
                else:
                    key = (node.kind, nodes[kids[0]].shape, nodes[kids[1]].shape)
                sid = shape_ids.get(key)
                node.shape = sid if sid is not None else intern(key)

    def _intern(self, key: tuple) -> int:
        """key's shape id; a new shape's reach and variable names are
        composed from its key and its children's."""
        sid = self._shape_ids.get(key)
        if sid is not None:
            return sid
        kind, reach, free = key[0], self._reach, self._free
        if kind == "atom":
            r, names = 0, []
            for a in key[2]:
                if type(a) is int:
                    r = max(r, a + 1)
                elif type(a) is Var:
                    names.append(a.name)
            reach.append(r)
            free.append(frozenset(names))
        elif kind in _QUANT_KINDS:
            # the quantifier binds index 0 of its template, which names no
            # variable of its own
            reach.append(max(reach[key[1]] - 1, 0))
            free.append(free[key[1]])
        else:
            # a connective's children; a negation's one child is both
            a, b = key[1], key[-1]
            reach.append(max(reach[a], reach[b]))
            free.append(free[a] | free[b] if free[b] else free[a])
        sid = self._shape_ids[key] = len(self._shape_keys)
        self._shape_keys.append(key)
        return sid

    def _filled(self, shape: int, index: int, term: Term) -> int:
        """The shape with de Bruijn index `index` filled by term and the
        indices above it lowered by one, as they lose the binder filled:
        interned, memoized, and the shape itself when its reach is at most
        index. Walks without recursion."""
        reach, fills, keys = self._reach, self._fills, self._shape_keys
        if reach[shape] <= index:
            return shape
        got = fills.get((shape, index, term))
        if got is not None:
            return got
        stack = [(shape, index, False)]
        while stack:
            sid, i, expanded = stack.pop()
            if reach[sid] <= i or (sid, i, term) in fills:
                continue
            kind, *rest = keys[sid]
            if kind == "atom":
                args = tuple(a if type(a) is not int or a < i else term if a == i else a - 1 for a in rest[1])
                fills[sid, i, term] = self._intern((kind, rest[0], args))
                continue
            # a quantifier's template lies one binder deeper
            j = i + 1 if kind in _QUANT_KINDS else i
            if expanded:
                fills[sid, i, term] = self._intern((kind, *(fills.get((c, j, term), c) for c in rest)))
            else:
                stack.append((sid, i, True))
                stack.extend((c, j, False) for c in reversed(rest))
        return fills[shape, index, term]

    def instantiate(self, qnid: int, term: Term) -> int:
        """Clone the template subtree of quantifier node qnid with its bound
        position filled by term; returns the new instance child's id."""
        q = self.nodes[qnid]
        if not q.is_quantifier:
            raise StateError(f"node {qnid} is not a quantifier node")
        if not q.children:
            raise StateError(f"quantifier node {qnid} has no template child")
        self.version += 1
        return self._clone(q.children[0], q.nid, term)

    def truncate(self, next_nid: int) -> None:
        """Remove every node numbered next_nid or above, newest first, so that
        the next node created is numbered next_nid again (module docstring);
        a rollback undoes instances so. Shapes stay interned."""
        nodes, classes = self.nodes, self.classes
        end = len(nodes) + 1
        if next_nid >= end:
            return
        for nid in range(end - 1, next_nid - 1, -1):
            node = nodes.pop(nid)
            if node.parent is not None and node.parent < next_nid:
                nodes[node.parent].children.pop()
            if node.ground:
                members = classes[node.shape]
                members.pop()
                if not members:
                    del classes[node.shape]
        self.version += 1

    def _clone(self, src_nid: int, parent: int, term: Term) -> int:
        """Copy src_nid's subtree under parent as an instance child whose
        shapes have the instantiated binder's index filled by term; the copy's
        ids are one contiguous range in preorder, and the first is returned."""
        nodes, classes, reach = self.nodes, self.classes, self._reach
        first = len(nodes) + 1
        # (source node, its copy's parent and fill term, the filled index there)
        stack: list[tuple] = [(src_nid, parent, term, 0)]
        while stack:
            n, p, fill, depth = stack.pop()
            src = nodes[n]
            sid = self._filled(src.shape, depth, term)
            nid = len(nodes) + 1
            ground = reach[sid] == 0
            nodes[nid] = TreeNode(nid, p, src.kind, [], sid, ground, src.is_quantifier, src.var, fill)
            nodes[p].children.append(nid)
            if ground:
                classes.setdefault(sid, []).append(nid)
            # instance branches inside the copied subtree stay instance branches
            # of the copied quantifier, so their fill survives; only a template
            # edge crosses a binder
            kids = src.children
            for i in range(len(kids) - 1, -1, -1):
                stack.append((kids[i], nid, nodes[kids[i]].fill_term, depth + (i == 0 and src.is_quantifier)))
        return first

    # --------------------------------------------------------------- formulas

    def node_formula(self, nid: int) -> Formula:
        """The formula this node stands for; unfilled placeholders print as `_`
        and make the node non-ground. Stable over the node's lifetime."""
        return self._decode(nid)

    def instance_formula(self, qnid: int, term: Term) -> Formula:
        """The formula an instance branch of quantifier qnid filled with term
        carries, whether or not that branch exists."""
        return self._decode(self.nodes[qnid].children[0], term)

    def _decode(self, nid: int, fill: Term = _SLOT) -> Formula:
        """nid's formula from the atom shapes below it and the variables of
        the quantifiers on the way; an index pointing one binder past nid
        reads fill, any further one the placeholder. Walks without
        recursion."""
        nodes, keys = self.nodes, self._shape_keys
        # variables of the binders above the node being visited, outermost
        # first; a preorder walk overwrites only the entries it has left
        names: list[str] = []
        done: list[Formula] = []
        stack = [(nid, 0, False)]
        while stack:
            n, depth, expanded = stack.pop()
            node = nodes[n]
            kind = node.kind
            if kind == "atom":
                _, pred, args = keys[node.shape]
                done.append(Atom(pred, tuple(
                    a if type(a) is not int else Var(names[depth - 1 - a]) if a < depth else fill if a == depth else _SLOT
                    for a in args
                )))
            elif expanded:
                if kind in _QUANT_KINDS:
                    done[-1] = CLASS_OF[kind](node.var, done[-1])
                else:
                    k = len(node.children)
                    done[-k:] = [CLASS_OF[kind](*done[-k:])]
            else:
                stack.append((n, depth, True))
                if kind in _QUANT_KINDS:
                    del names[depth:]
                    names.append(node.var)
                    stack.append((node.children[0], depth + 1, False))
                else:
                    stack.extend((c, depth, False) for c in reversed(node.children))
        return done[0]

    def node_free_variables(self, nid: int) -> frozenset[str]:
        """Names of the free variables of the node's formula, read from its
        shape: `free_variables(node_formula(nid))`, without the decode."""
        return self._free[self.nodes[nid].shape]

    # ------------------------------------------------------------------ shapes

    def instance_class(self, qnid: int, term: Term) -> Optional[int]:
        """The formula class an instance branch of quantifier qnid filled with
        term carries, whether or not that branch exists; None when that
        formula is not ground."""
        sid = self._filled(self.nodes[self.nodes[qnid].children[0]].shape, 0, term)
        return sid if self._reach[sid] == 0 else None

    def atom_class(self, pred: str, args: tuple[Term, ...]) -> Optional[int]:
        """The formula class of the ground atom pred(args); None when no shape
        of this tree is that atom."""
        return self._shape_ids.get(("atom", pred, args))

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

    def __len__(self) -> int:
        return len(self.nodes)


def _vacuous_binders(f: Formula) -> set[int]:
    """ids of f's quantifier subformulas whose variable is free in no atom
    below them, the binders `drop_vacuous` drops. Vacuity depends on the
    subformula alone, so one id stands for every occurrence of a shared one."""
    binders: list[Formula] = []
    named: set[int] = set()
    # (subformula, bound variable -> its binder's index in binders)
    stack: list[tuple[Formula, dict[str, int]]] = [(f, {})]
    while stack:
        g, levels = stack.pop()
        t = type(g)
        if t is Atom:
            for a in g.args:
                if type(a) is Var and a.name in levels:
                    named.add(levels[a.name])
        elif t is Not:
            stack.append((g.sub, levels))
        elif t in QUANTIFIERS:
            stack.append((g.body, {**levels, g.var: len(binders)}))
            binders.append(g)
        else:
            stack += (g.right, levels), (g.left, levels)
    return {id(q) for k, q in enumerate(binders) if k not in named}


def build_initial_tree(f: Formula, *, drop_vacuous: bool = False) -> ForcingTree:
    """Initial tree of closed f, or of `drop_vacuous(f)` with drop_vacuous:
    quantifier bodies carry placeholders where the bound variable occurred.
    Raises FreeVariableError on an open f and on a predicate of two arities."""
    t = ForcingTree(f, drop_vacuous)
    fv = t.node_free_variables(t.root)
    if fv:
        raise FreeVariableError(f"tree construction needs a closed formula; free: {sorted(fv)}")
    return t
