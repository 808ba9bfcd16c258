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
renaming of bound variables. Each shape carries a mask of the indices that
point past it: an atom sets bit a for each index a it holds, a quantifier
takes its template's mask shifted down by one (index 0 is its own binder),
and a connective the union of its children's. A node is ground when its mask
is 0. Formula classes for iteration and double marks are the ids of ground
shapes.

`node_formula` reads a node's formula back from the shapes below it and the
variables of the quantifiers on the way. An index that points past the node
becomes the anonymous placeholder `Slot()`; `instance_formula` reads the one
pointing a single binder past a template as the instance's term instead.

Each shape also keeps the names of the `Var` terms its atoms carry: these
are the free variables of the node's formula (`node_free_variables`). The
source is closed, so in a tree from `build_initial_tree` they come only from
fill terms such as the generic variable. In the tree as built, a node's
formula has as many free variables as its mask has bits plus its shape has
names (an index and a name never stand for one variable), and the build
records the largest such count as the tree's `width`, which the fragment
test reads (`formulas.classify_arities`); it does so only when some
predicate is not monadic, and dropping a vacuous binder changes no count.
Every shape is interned by one `_intern` call, which composes a new shape's
mask and names from its key and its children's.

`_build` makes the nodes in one preorder pass over the source, then interns
their shapes from the newest node back, and neither recurses. The pass also
gathers the source's constants in first-occurrence order, its predicate
arities and every identifier it uses, so the marking state, the fragment
test, model extraction and the oracle's signature read these facts from the
tree instead of walking the source again; the oracle's closedness test reads
the root's free variables. With drop_vacuous it leaves out each vacuous
binder, a quantifier whose variable no atom below it uses, its body in its
place; at the first binder it meets, one more loop over the source finds
them all.

`_clone` copies a template subtree in one preorder walk, as `_build` makes
nodes: a copy whose source mask has no index at or above the filled one keeps
its source's shape, and a copied atom gets its filled shape at once. Then the
other copies' shapes are interned from the newest copy back, children before
parents (`_intern_up`, shared with `_build`), and ground and classes are set
last, in id order. `_filled` computes the same filled shape without a copy,
for `instance_class`.
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
        "nid", "parent", "kind", "children", "shape", "ground", "is_quantifier", "var", "fill_term", "binder",
    )

    def __init__(
        self, nid: int, parent: Optional[int], kind: str, children: list[int], shape: int = -1,
        ground: bool = False, is_quantifier: bool = False, var: Optional[str] = None, fill_term: Optional[Term] = None,
        binder: Optional[int] = None,
    ) -> None:
        self.nid = nid
        self.parent = parent
        self.kind = kind
        self.children = children
        # the interned id of the node's shape, from which its formula is read, and
        # whether that formula is ground (module docstring); set once, by the
        # build or the clone that makes the node
        self.shape = shape
        self.ground = ground
        # whether kind is a quantifier kind; set when the node is created
        self.is_quantifier = is_quantifier
        # quantifier nodes: the bound variable's name
        self.var = var
        # instance children: the term the parent quantifier was instantiated with
        self.fill_term = fill_term
        # the nearest quantifier whose template subtree holds the node, None
        # outside every template; set when the node is created
        self.binder = binder


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
        # interned shapes: key -> id, and per id its key, its mask, with bit a
        # set for each index a pointing above the shape (0 when ground), and
        # the names of the variables its atoms carry
        self._shape_ids: dict[tuple, int] = {}
        self._shape_keys: list[tuple] = []
        self._mask: list[int] = []
        self._free: list[frozenset[str]] = []
        # (shape, index, term) -> _filled's answer, for the shapes index reaches
        self._fills: dict[tuple[int, int, Term], int] = {}
        # formula class -> ids of the ground nodes carrying it, in id order;
        # filled, and ground set, once _build has interned every shape
        self.classes: dict[int, list[int]] = {}
        self._build(formula, drop_vacuous)
        self.root = 1
        self._file_ground(1)
        # the largest number of free variables of a node's formula, read over
        # the shapes, which are the nodes' shapes; the fragment test reads it
        # only when some predicate is not monadic, and it is None when none is
        self.width = max(m.bit_count() + len(n) for m, n in zip(self._mask, self._free)) \
            if any(a != 1 for a in self.arities.values()) else None
        # _build named the binders; a bound variable's name is its binder's
        self.identifiers.update(self.arities, self.constants, self.node_free_variables(self.root))

    # ------------------------------------------------------------ construction

    def _build(self, f: Formula, drop_vacuous: bool) -> None:
        """Make f's nodes in preorder, with drop_vacuous each vacuous binder
        left out and its body in its place, then intern their shapes from the
        newest node back. Also records f's constants, its predicate arities
        (raising on a predicate used with two) and the binders' names."""
        nodes, intern = self.nodes, self._intern
        constants, arities = self.constants, self.arities
        # (subformula, parent id, parent's children, levels, depth, binder):
        # levels maps a bound variable to the number of binders above its
        # quantifier, depth counts those above the subformula; a bound index
        # is depth - 1 - level
        stack: list[tuple] = [(f, None, [], {}, 0, None)]
        vacuous: Optional[set[int]] = None
        while stack:
            g, parent, siblings, levels, depth, binder = stack.pop()
            kind = KIND_OF[type(g)]
            quantifier = kind in _QUANT_KINDS
            if quantifier and drop_vacuous:
                # found at the first binder, so a formula without any is walked once
                if vacuous is None:
                    vacuous = _vacuous_binders(f)
                if id(g) in vacuous:
                    stack.append((g.body, parent, siblings, levels, depth, binder))
                    continue
            nid = len(nodes) + 1
            nodes[nid] = node = TreeNode(nid, parent, kind, [], -1, False, quantifier, None, None, binder)
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
                stack.append((g.body, nid, node.children, {**levels, g.var: depth}, depth + 1, nid))
            elif kind == "not":
                stack.append((g.sub, nid, node.children, levels, depth, binder))
            else:
                stack += (g.right, nid, node.children, levels, depth, binder), \
                    (g.left, nid, node.children, levels, depth, binder)
        self._intern_up(1)

    def _intern_up(self, first: int) -> None:
        """Intern the shape of each node numbered first or above that has
        none yet (-1), from the newest back, so each child's before its
        parent's: a connective's is its kind and its children's shapes, a
        quantifier's its kind and its template's, never its instances'."""
        nodes, shape_ids = self.nodes, self._shape_ids
        for nid in range(len(nodes), first - 1, -1):
            node = nodes[nid]
            if node.shape < 0:
                kids = node.children
                if len(kids) == 1 or node.is_quantifier:
                    key = (node.kind, nodes[kids[0]].shape)
                else:
                    key = (node.kind, nodes[kids[0]].shape, nodes[kids[1]].shape)
                sid = shape_ids.get(key)
                node.shape = sid if sid is not None else self._intern(key)

    def _intern(self, key: tuple) -> int:
        """key's shape id; a new shape's mask and variable names are composed
        from its key and its children's."""
        sid = self._shape_ids.get(key)
        if sid is not None:
            return sid
        kind, mask, free = key[0], self._mask, self._free
        if kind == "atom":
            mask.append(sum({1 << a for a in key[2] if type(a) is int}))
            free.append(frozenset([a.name for a in key[2] if type(a) is Var]))
        elif kind in _QUANT_KINDS:
            # the quantifier binds index 0 of its template, which names no
            # variable of its own
            mask.append(mask[key[1]] >> 1)
            free.append(free[key[1]])
        else:
            # a connective's children; a negation's one child is both
            a, b = key[1], key[-1]
            mask.append(mask[a] | mask[b])
            free.append(free[a] | free[b] if free[b] else free[a])
        sid = self._shape_ids[key] = len(self._shape_keys)
        self._shape_keys.append(key)
        return sid

    def _filled(self, shape: int, index: int, term: Term) -> int:
        """The shape with de Bruijn index `index` filled by term and the
        indices above it lowered by one, as they lose the binder filled:
        interned, memoized, and the shape itself when its mask has no index
        at or above index. Walks without recursion."""
        mask, fills, keys = self._mask, self._fills, self._shape_keys
        stack = [(shape, index, False)]
        while stack:
            sid, i, expanded = stack.pop()
            if not mask[sid] >> i or (sid, i, term) in fills:
                continue
            kind, *rest = keys[sid]
            # a quantifier's template lies one binder deeper
            j = i + 1 if kind in _QUANT_KINDS else i
            if kind == "atom":
                fills[sid, i, term] = self._filled_atom(sid, i, term)
            elif expanded:
                fills[sid, i, term] = self._intern((kind, *(fills.get((c, j, term), c) for c in rest)))
            else:
                stack.append((sid, i, True))
                stack.extend((c, j, False) for c in reversed(rest))
        return fills.get((shape, index, term), shape)

    def _filled_atom(self, sid: int, i: int, term: Term) -> int:
        """Atom shape sid with index i filled by term, those above lowered."""
        _, pred, args = self._shape_keys[sid]
        return self._intern(("atom", pred, tuple(a if type(a) is not int or a < i else term if a == i else a - 1
                                                 for a in args)))

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
        ids are one contiguous range in preorder, and the first is returned.
        One walk makes the copies, each atom with its filled shape and each
        other copy with its source's where that has no index at or above the
        filled one; `_intern_up` then interns the rest."""
        nodes, mask = self.nodes, self._mask
        first = len(nodes) + 1
        # (source node, its copy's parent, fill term and binder, the filled
        # index there); an instance child lies outside its quantifier's template
        stack: list[tuple] = [(src_nid, parent, term, nodes[parent].binder, 0)]
        while stack:
            n, p, fill, binder, depth = stack.pop()
            src = nodes[n]
            sid = src.shape
            if mask[sid] >> depth:
                sid = self._filled_atom(sid, depth, term) if src.kind == "atom" else -1
            nid = len(nodes) + 1
            nodes[nid] = TreeNode(nid, p, src.kind, [], sid, False, src.is_quantifier, src.var, fill, binder)
            nodes[p].children.append(nid)
            # instance branches inside the copied subtree stay instance branches
            # of the copied quantifier, so their fill survives; only a template
            # edge crosses a binder
            kids = src.children
            for i in range(len(kids) - 1, -1, -1):
                template = i == 0 and src.is_quantifier
                stack.append((kids[i], nid, nodes[kids[i]].fill_term, nid if template else binder, depth + template))
        self._intern_up(first)
        self._file_ground(first)
        return first

    def _file_ground(self, first: int) -> None:
        """Set ground, and file in classes, each node numbered first or above,
        in id order, once its shape is interned."""
        nodes, mask, classes = self.nodes, self._mask, self.classes
        for nid in range(first, len(nodes) + 1):
            node = nodes[nid]
            if not mask[node.shape]:
                node.ground = True
                classes.setdefault(node.shape, []).append(nid)

    # --------------------------------------------------------------- formulas

    def node_formula(self, nid: int, fill: Term = _SLOT) -> Formula:
        """The formula this node stands for, read from the atom shapes below
        it and the variables of the quantifiers on the way; an index pointing
        one binder past nid reads fill, any further one the placeholder, which
        prints as `_` and makes the node non-ground. Stable over the node's
        lifetime. Walks without recursion."""
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

    def instance_formula(self, qnid: int, term: Term) -> Formula:
        """The formula an instance branch of quantifier qnid filled with term
        carries, whether or not that branch exists."""
        return self.node_formula(self.nodes[qnid].children[0], term)

    def node_free_variables(self, nid: int) -> frozenset[str]:
        """Names of the free variables of the node's formula, read from its
        shape, without the decode."""
        return self._free[self.nodes[nid].shape]

    def node_constants(self, nid: int) -> set[str]:
        """Names of the constants the node's formula carries, read from the
        atom shapes below its shape, without the decode."""
        keys = self._shape_keys
        out: set[str] = set()
        stack = [self.nodes[nid].shape]
        while stack:
            key = keys[stack.pop()]
            if key[0] == "atom":
                out.update([a.name for a in key[2] if type(a) is Const])
            else:
                stack += key[1:]
        return out

    # ------------------------------------------------------------------ shapes

    def instance_class(self, qnid: int, term: Term) -> Optional[int]:
        """The formula class an instance branch of quantifier qnid filled with
        term carries, whether or not that branch exists; None when that
        formula is not ground."""
        sid = self._filled(self.nodes[self.nodes[qnid].children[0]].shape, 0, term)
        return sid if not self._mask[sid] else None

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
    below them, the binders the build with drop_vacuous leaves out. Vacuity
    depends on the subformula alone, so one id stands for every occurrence of
    a shared one."""
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
    """Initial tree of closed f, with drop_vacuous without its vacuous binders:
    quantifier bodies carry placeholders where the bound variable occurred.
    Raises FreeVariableError on an open f and on a predicate of two arities."""
    t = ForcingTree(f, drop_vacuous)
    fv = t.node_free_variables(t.root)
    if fv:
        raise FreeVariableError(f"tree construction needs a closed formula; free: {sorted(fv)}")
    return t
