"""Marking engine: partial 0/1 marks on forcing-tree nodes.

Marks spread by forced deduction: propositional table rules, quantifier
instantiation and generalization (with the independence side-condition),
iteration between nodes sharing one formula, and supposition scopes whose
absorbed marks are rolled back on discharge. A contradiction is a double mark:
two nodes associated with the same ground formula carrying opposite values.

A ground node's formula class is its tree's shape id (`tree.py`): formulas
equal up to renaming of bound variables share it, and it is composed when
the node is created. Iteration, consensus and the double-mark test key on
that int, and the members of a class are read from `tree.classes`. The names
of a node's free variables are read from its shape too, and the registry and
the reserved names from the facts the tree build gathered about the source.
The one formula a decision walks here is an instance branch's, which
`is_independent` decodes to list the constants it names.

State mutates in place, and every change after construction is undone by
popping a stack back to a length. The marked nodes are listed in marking
order, and the registry holds its individuals in order of entry, so a
checkpoint records the two lengths and copies only the agenda (below), and
`rollback` costs the changes made since: each node it pops takes its mark,
its step and the `consensus` entry it made with it, each individual its
witness registry entry. The formula classes of nodes live on the tree and go
with the nodes that `truncate` removes. Rolled-back trace steps are kept,
flagged absorbed, so step numbering stays dense and premise references stay
meaningful.

Saturation pops its anchors from an agenda, an ordered set (a dict) that it
pops newest first, so that the order is the language's and not a hash's. The
invariant, while no double mark stands: any anchor whose `forced_for_anchor`
output is non-empty is on the agenda or hidden, in a template subtree that
`relevant()` skips. A node's `binder` names the nearest quantifier whose
template holds it, so a popped anchor is found hidden by walking those
quantifiers, and is dropped, as a sweep over `relevant()` never reaches it; a
rollback past the instance that hid it restores an agenda copied while it
showed. A fresh state holds the invariant with an empty agenda. Nothing is
marked yet; the `FORCING` entry of every all-unmarked connective is empty; and
instantiation, generalization and iteration each read a mark on the
quantifier, an instance child or the node itself. So no node of a fresh tree
concludes anything, and the first saturation pops only what the RR mark
pushes. An anchor's output reads the marks of itself and its children, its
instance children, the members of its formula class and the open frames.
Four hooks keep the invariant from there, each pushing only the anchors that
can now conclude:

- `set_mark` on n pushes n when it is a quantifier, when its class has
  another member (IA/IR), or when its new mark pattern is live (`_LIVE`: its
  `FORCING` entry concludes a mark the pattern does not show); and n's
  parent when that is a quantifier or its new pattern is live. Class-mates
  only lose conclusions by a new mark.
- `instantiate` pushes the quantifier, and every member of each class a
  cloned ground node belongs to when that class has a `consensus` entry,
  since a marked member can now iterate into the clone. The clone itself is
  unmarked, so it concludes nothing, and neither does a parent inside it. A
  class has a `consensus` entry exactly while a member is marked: its first
  mark makes it, and `rollback`, popping marks newest first, removes it with
  that mark, after every later one.
- `rollback` restores the agenda its checkpoint copied. It leaves marks,
  nodes, registries, frames and the double mark as they were there, so that
  agenda covers the state again.
- `commit_frames` pushes every node when a closed frame named a free
  variable, since generalization over it may be licensed again at any
  quantifier.

The rules only add marks, so the marks a saturation reaches, or its reaching
a double mark, do not depend on the order the anchors are popped in; only
the order of the trace steps does, and which double mark is met first. One
rule reads more than the marks being present: generalization at an unmarked
quantifier takes the first instance child marked at its visit, so instances
marked both ways in one saturation could make the order matter. The tests
check the fixpoint against sweeps in preorder, in postorder and in a random
agenda order at every saturation of a few thousand decisions.

A marked quantifier's obligation is read from its kind and mark
(`INSTANTIATION`), and its witness from the witness registry, which names the
instance child each fresh witness constant was introduced for.
`classify_quantifiers` sorts the relevant quantifiers, which the preorder walk
of `relevant()` collects, in one pass: those obliged to a fresh witness, those
obliged to an instance per individual, and the unmarked ground ones. It keeps
the result until a mark, an instance or a rollback changes what it read, so
saturation's quantifier phase classifies once in a round that adds nothing,
and `capped_obligations`, called on the state saturation left, reads the
lists of its last round. `decide`'s permission pass reads them too.
"""

from __future__ import annotations

from typing import Optional

from .errors import PremiseError, StateError
from .formulas import (
    Const,
    FrozenRecord,
    Record,
    Term,
    Var,
    _set,
    # not called here: the name stays importable because perfbench/tracer.py
    # patches marking.alpha_normalize by attribute
    alpha_normalize,  # noqa: F401
    constants_of,
)
from .rules import (
    CATALOG,
    DISCHARGE,
    DISCHARGE_RULES,
    FORCING,
    GENERALIZATION,
    GENERALIZATION_RULES,
    INSTANTIATION,
    INSTANTIATION_RULES,
    MARKING_RULES,
    PERMISSION,
    POSITION,
    WITNESS_RULES,
)
from .tree import ForcingTree, TreeNode

Mark = int


class TraceStep(Record):
    __match_args__ = __slots__ = ("step", "node", "value", "rule", "premises", "absorbed")

    def __init__(
        self, step: int, node: Optional[int], value: Optional[Mark], rule: str, premises: tuple[int, ...],
        absorbed: bool = False,
    ) -> None:
        self.step = step
        self.node = node
        self.value = value
        self.rule = rule
        self.premises = premises
        self.absorbed = absorbed


class DoubleMark(FrozenRecord):
    __match_args__ = __slots__ = ("n1", "n2")

    def __init__(self, n1: int, n2: int) -> None:
        _set(self, "n1", n1)
        _set(self, "n2", n2)


class Frame(Record):
    """One open supposition: a provisional mark whose scope absorbs later
    steps. Its assumed value and opening step are its node's mark, which
    stands as long as the frame, and its free variables its node's shape's."""

    __match_args__ = __slots__ = ("node", "kind", "checkpoint")

    def __init__(self, node: int, kind: str, checkpoint: Checkpoint) -> None:
        self.node = node
        self.kind = kind
        self.checkpoint = checkpoint


class Checkpoint(Record):
    __match_args__ = __slots__ = ("marked_len", "registry_len", "scopes_len", "trace_len", "next_nid", "dm", "agenda")

    def __init__(
        self, marked_len: int, registry_len: int, scopes_len: int, trace_len: int, next_nid: int,
        dm: Optional[DoubleMark], agenda: dict[int, None],
    ) -> None:
        # the number of marked nodes and of registry individuals: rollback
        # pops both stacks back to these lengths
        self.marked_len = marked_len
        self.registry_len = registry_len
        self.scopes_len = scopes_len
        self.trace_len = trace_len
        self.next_nid = next_nid
        self.dm = dm
        # a copy of the agenda: rollback leaves every structure
        # forced_for_anchor reads as it was here, so it covers the state again
        self.agenda = agenda


# per connective, the mark patterns whose `FORCING` entry concludes a mark the
# pattern does not already show: the only patterns at which it concludes
_LIVE = {
    kind: frozenset(
        marks for marks, entries in table.items()
        if any(marks[i] != v for _, _, conclusions in entries for i, v in conclusions)
    )
    for kind, table in FORCING.items()
}


# per catalog rule, what `_validate` checks: its connective, whether it
# concludes its anchor's mark, its conclusions, and its premises as (child
# index, -1 for the anchor itself, mark, position)
_CHECKS = {
    r.name: (r.connective, any(pos == "k" for pos, _ in r.conclusions), frozenset(r.conclusions),
             tuple((POSITION[pos] - 1, val, pos) for pos, val in r.premises))
    for r in CATALOG.values()
}

# the value an option rule or its failure concludes, and the complaint otherwise
_OPTION_VALUE = {
    "OA": (1, "acceptance option assumes 1"),
    "OR": (0, "rejection option assumes 0"),
    "OA-DM": (0, "a failed acceptance option concludes 0"),
    "OR-DM": (1, "a failed rejection option concludes 1"),
}


def _rejected(rule: str, msg: str) -> PremiseError:
    return PremiseError(f"{rule}: {msg}")


class MarkingState:
    """A marking over tree: nothing is marked yet, and the registry starts
    with the source's constants."""

    def __init__(self, tree: ForcingTree):
        self.tree = tree
        # node -> its value, and node -> the trace step that marked it
        self.marks: dict[int, Mark] = {}
        self.steps: dict[int, int] = {}
        # formula class -> (value, first node marked with it); ground nodes only
        self.consensus: dict[int, tuple[Mark, int]] = {}
        self.domain_registry: list[Term] = [Const(c) for c in tree.constants]
        # witness name -> the instance child it was introduced for
        self.witness_registry: dict[str, int] = {}
        self.scopes: list[Frame] = []
        self.trace: list[TraceStep] = []
        self.dm: Optional[DoubleMark] = None
        self._witness_counter = 0
        # read only: the tree's own set of the source's identifiers
        self._reserved = tree.identifiers
        # (tree version, relevant(), its quantifiers)
        self._relevant_cache: Optional[tuple[int, list[int], list[int]]] = None
        # the last classify_quantifiers result, keyed by (tree version, trace
        # length): every mark and instance adds a trace step, and rollback,
        # which removes marks without one, drops it
        self._classified: Optional[tuple[tuple[int, int], tuple[list[int], list[int], list[int]]]] = None
        # anchors whose forced_for_anchor output may be non-empty, an ordered
        # set that saturate pops newest first (module docstring)
        self._agenda: dict[int, None] = {}
        # the marked nodes in marking order, popped by rollback (module docstring)
        self._marked: list[int] = []

    # ------------------------------------------------------------- inspection

    @property
    def generic(self) -> Optional[Var]:
        """The generic variable: the registry's one `Var`, None while it has none."""
        for t in self.domain_registry:
            if type(t) is Var:
                return t
        return None

    def marked(self, nid: int) -> Optional[Mark]:
        return self.marks.get(nid)

    def step_of(self, nid: int) -> Optional[int]:
        """The trace step that marked nid, None while it is unmarked."""
        return self.steps.get(nid)

    def key(self, nid: int) -> Optional[int]:
        """Formula class of the node; None while placeholders are unfilled."""
        node = self.tree.nodes[nid]
        return node.shape if node.ground else None

    def witness_child(self, qnid: int) -> Optional[int]:
        """The first fresh-witness instance child of qnid, None while it has
        none."""
        for c in self.tree.nodes[qnid].children[1:]:
            if self._is_witness(c):
                return c
        return None

    def _is_witness(self, c: int) -> bool:
        """Whether instance child c is the one the witness registry names for
        its constant. A branch `_clone` copied into a clone is not: its
        quantifier got the witness while inside a template."""
        term = self.tree.nodes[c].fill_term
        return isinstance(term, Const) and self.witness_registry.get(term.name) == c

    # ------------------------------------------------------- undo bookkeeping

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(
            len(self._marked), len(self.domain_registry), len(self.scopes), len(self.trace),
            len(self.tree.nodes) + 1, self.dm, self._agenda.copy(),
        )

    def rollback(self, cp: Checkpoint) -> None:
        """Undo everything since cp. Checkpoints are rolled back innermost
        first; popping newest first restores every dict's key order too."""
        marked, registry = self._marked, self.domain_registry
        if len(marked) < cp.marked_len or len(registry) < cp.registry_len:
            raise StateError("an enclosing checkpoint was already rolled back")
        marks, steps, consensus, nodes = self.marks, self.steps, self.consensus, self.tree.nodes
        for _ in range(len(marked) - cp.marked_len):
            n = marked.pop()
            del marks[n], steps[n]
            k = nodes[n].shape
            if consensus[k][1] == n:
                del consensus[k]
        for _ in range(len(registry) - cp.registry_len):
            term = registry.pop()
            # a witness; the one Var an individual can be is the generic
            if type(term) is Const:
                del self.witness_registry[term.name]
        del self.scopes[cp.scopes_len:]
        for rec in self.trace[cp.trace_len:]:
            rec.absorbed = True
        self.dm = cp.dm
        self.tree.truncate(cp.next_nid)
        self._agenda = cp.agenda.copy()
        self._classified = None

    # ----------------------------------------------------------- trace output

    def _record(self, node: Optional[int], value: Optional[Mark], rule: str, premise_nodes: tuple[int, ...],
                premise_steps: Optional[tuple[int, ...]] = None) -> int:
        step = len(self.trace) + 1
        if premise_steps is None:
            # steps are numbered from 1, so filter drops only the unmarked premises
            premise_steps = tuple(filter(None, map(self.steps.get, premise_nodes)))
        self.trace.append(TraceStep(step, node, value, rule, premise_steps))
        return step

    # -------------------------------------------------------------- new names

    def fresh_witness(self) -> str:
        while True:
            self._witness_counter += 1
            name = f"w{self._witness_counter}"
            if name not in self._reserved:
                return name

    def introduce_generic(self) -> Var:
        if self.generic is not None:
            raise StateError("a generic variable is already in the registry")
        n = 1
        while f"v{n}" in self._reserved:
            n += 1
        generic = Var(f"v{n}")
        self.domain_registry.append(generic)
        return generic

    # ------------------------------------------------------------ set_mark

    def set_mark(self, n: int, v: Mark, rule: str, premises: tuple[int, ...] = ()) -> None:
        """Mark node n with v, justified by rule over the cited premise nodes.

        Re-marking with the same value is a silent no-op. A conflicting value,
        on this node or on any node sharing its ground formula, records the
        step and transitions to double-mark-detected.
        """
        if self.dm is not None:
            raise StateError("state already holds a double mark")
        if v not in (0, 1):
            raise PremiseError(f"mark must be 0 or 1, got {v!r}")
        node = self._validate(n, v, rule, premises)
        marks = self.marks
        current = marks.get(n)
        if current is not None:
            if current == v:
                return
            step = self._record(n, v, rule, premises)
            self.dm = DoubleMark(n, n)
            self._record(n, None, "DM", (), (self.steps[n], step))
            return
        # _record, inline: this is the path every forced mark takes
        trace, steps = self.trace, self.steps
        step = len(trace) + 1
        trace.append(TraceStep(step, n, v, rule, tuple(filter(None, map(steps.get, premises)))))
        k = node.shape
        marks[n] = v
        steps[n] = step
        self._marked.append(n)
        # the anchors this mark can make conclude (module docstring); a mark
        # pattern, the key of a `FORCING` entry, is read in place
        agenda, get = self._agenda, marks.get
        kind, kids = node.kind, node.children
        if node.is_quantifier or len(self.tree.classes[k]) > 1 or kind in _LIVE and (
                (v, get(kids[0])) if len(kids) == 1 else (v, get(kids[0]), get(kids[1]))) in _LIVE[kind]:
            agenda[n] = None
        parent = node.parent
        if parent is not None:
            pnode = self.tree.nodes[parent]
            kids, pv = pnode.children, get(parent)
            if pnode.is_quantifier or (
                    (pv, v) if len(kids) == 1 else (pv, get(kids[0]), get(kids[1]))) in _LIVE[pnode.kind]:
                agenda[parent] = None
        hit = self.consensus.get(k)
        if hit is None:
            self.consensus[k] = (v, n)
        elif hit[0] != v:
            self.dm = DoubleMark(hit[1], n)
            self._record(n, None, "DM", (), (steps[hit[1]], step))

    def _validate(self, n: int, v: Mark, rule: str, premises: tuple[int, ...]) -> TreeNode:
        """Raise PremiseError unless rule licenses marking n with v over the
        cited premises; returns n's node. The checks raise inline, so that
        the path every accepted mark takes calls no helper."""
        tree = self.tree
        nodes, marks = tree.nodes, self.marks
        node = nodes.get(n)
        if node is None:
            raise PremiseError(f"unknown node {n}")
        if not node.ground:
            raise PremiseError(f"node {n} has unfilled placeholders and cannot be marked")
        check = _CHECKS.get(rule)
        if check is not None:
            connective, concludes_k, conclusions, premises = check
            # a catalog rule concludes either its anchor (k) or children of it
            if concludes_k and node.kind == connective:
                target_pos, anchor = "k", node
            else:
                parent = node.parent
                if parent is None or nodes[parent].kind != connective:
                    raise _rejected(rule, f"node is not positioned for a {connective} rule")
                anchor = nodes[parent]
                if connective == "not":
                    target_pos = "a"
                else:
                    target_pos = "i" if anchor.children[0] == n else "d"
            if (target_pos, v) not in conclusions:
                raise _rejected(rule, "rule does not conclude this mark at this position")
            kids = anchor.children
            for i, val, pos in premises:
                if marks.get(kids[i] if i >= 0 else anchor.nid) != val:
                    raise _rejected(rule, f"premise {pos}={val} does not hold")
        elif rule == "RR":
            if n != tree.root or v != 0:
                raise _rejected(rule, "only the root may be rejected by RR")
        elif rule == "m":
            if node.kind != "atom":
                raise _rejected(rule, "external leaf marks apply to atom nodes only")
        elif rule in _OPTION_VALUE:
            want_v, msg = _OPTION_VALUE[rule]
            if v != want_v:
                raise _rejected(rule, msg)
        elif rule in DISCHARGE_RULES:
            kind = DISCHARGE_RULES[rule]
            if node.kind != kind or v != 1:
                what = "conditional" if kind == "imp" else "disjunction"
                raise _rejected(rule, f"discharge concludes acceptance of the {what}")
        elif rule in ("IA", "IR"):
            if v != (1 if rule == "IA" else 0):
                raise _rejected(rule, "iteration keeps the source value")
            if len(premises) != 1:
                raise _rejected(rule, "iteration cites one source node")
            src = premises[0]
            if marks.get(src) != v:
                raise _rejected(rule, "source node does not carry the iterated value")
            if self.key(src) != node.shape:
                raise _rejected(rule, "iteration requires nodes associated with one formula")
        elif rule in MARKING_RULES:
            want_kind, want_v = MARKING_RULES[rule]
            parent = node.parent
            if parent is None:
                raise _rejected(rule, "no quantifier above this node")
            if nodes[parent].kind != want_kind:
                raise _rejected(rule, f"parent is not a {want_kind} node")
            if marks.get(parent) != want_v:
                raise _rejected(rule, "quantifier does not carry the required mark")
            if node.fill_term is None:
                raise _rejected(rule, "rule applies to instantiated branches only")
            if v != want_v:
                raise _rejected(rule, "wrong conclusion value")
            if INSTANTIATION[want_kind, want_v].witness and not self._is_witness(n):
                raise _rejected(rule, "rule applies to the fresh-witness branch only")
        elif rule in GENERALIZATION_RULES:
            want_kind, want_v = GENERALIZATION_RULES[rule]
            if node.kind != want_kind:
                raise _rejected(rule, f"rule applies to a {want_kind} node")
            if v != want_v:
                raise _rejected(rule, "wrong conclusion value")
            if len(premises) != 1:
                raise _rejected(rule, "rule cites one instance branch")
            c = premises[0]
            child = nodes.get(c)
            if child is None or child.parent != n or child.fill_term is None:
                raise _rejected(rule, "premise is not an instance branch of this quantifier")
            if marks.get(c) != want_v:
                raise _rejected(rule, "instance branch does not carry the required mark")
            if GENERALIZATION[want_kind, want_v][1]:
                term = child.fill_term
                if not isinstance(term, Var):
                    raise _rejected(rule, "generalization requires a variable instance")
                if not self.is_independent(term.name, c):
                    raise _rejected(rule, f"variable {term.name} is not independent in the instance branch")
        else:
            raise PremiseError(f"unknown rule identifier {rule!r}")
        return node

    # -------------------------------------------------------- instantiation

    def instantiate(self, qnid: int, term: Term, rule: str) -> int:
        """Create an instance branch of quantifier qnid filled with term, as one
        of the instantiation rules; witness rules also register the new constant."""
        if rule not in INSTANTIATION_RULES:
            raise PremiseError(f"unknown instantiation rule {rule!r}")
        q = self.tree.nodes.get(qnid)
        if q is None or not q.is_quantifier:
            raise PremiseError(f"node {qnid} is not a quantifier node")
        # I∀/I∃ are permissions: an instance branch may exist without asserting
        # anything, so they carry no mark precondition (want is None).
        kind, want = INSTANTIATION_RULES[rule]
        if q.kind != kind or want not in (None, self.marked(qnid)):
            what = {None: "", 1: "accepted ", 0: "rejected "}[want]
            what += "universal" if kind == "forall" else "existential"
            raise PremiseError(f"{rule} applies to {'an' if what[0] in 'ae' else 'a'} {what}")
        if rule in WITNESS_RULES:
            if not isinstance(term, Const):
                raise PremiseError("a witness must be a fresh constant")
            # by name: a constant is not fresh while a variable of its name is registered
            name = term.name
            if name in self._reserved or any(t.name == name for t in self.domain_registry):
                raise PremiseError(f"witness {term.name!r} is not fresh")
        tree = self.tree
        child = tree.instantiate(qnid, term)
        nodes, classes, consensus, agenda = tree.nodes, tree.classes, self.consensus, self._agenda
        # the clone, whose ids _clone numbered in one range, is unmarked and
        # concludes nothing; the anchors that read it are q and the marked
        # members of its classes, which can iterate into it (module docstring)
        agenda[qnid] = None
        for nid in range(child, len(nodes) + 1):
            node = nodes[nid]
            if node.ground and node.shape in consensus:
                agenda.update(dict.fromkeys(classes[node.shape]))
        self._record(child, None, rule, (qnid,))
        if rule in WITNESS_RULES:
            self.witness_registry[term.name] = child
            self.domain_registry.append(term)
        return child

    # ----------------------------------------------------------- independence

    def is_independent(self, var: str, n: int) -> bool:
        """The eigenvariable condition for generalizing instance branch n over
        var: var is free neither in the quantifier generalized (n's parent)
        nor in an open supposition, and n's formula names no witness
        introduced while var was free."""
        free = self.tree.node_free_variables
        if var in free(self.tree.nodes[n].parent):
            return False
        for frame in self.scopes:
            if var in free(frame.node):
                return False
        for c in constants_of(self.tree.node_formula(n)):
            child = self.witness_registry.get(c)
            if child is not None and var in free(child):
                return False
        return True

    # ----------------------------------------------------------- suppositions

    def open_supposition(self, n: int, v: Mark, kind: Optional[str] = None) -> Frame:
        if self.marked(n) is not None:
            raise StateError(f"node {n} is already marked")
        kind = kind or ("OA" if v == 1 else "OR")
        if kind not in ("OA", "OR", "RR"):
            raise PremiseError(f"unknown supposition kind {kind!r}")
        frame = Frame(n, kind, self.checkpoint())
        # the frame opens only once its mark stands
        self.set_mark(n, v, kind)
        self.scopes.append(frame)
        return frame

    def discharge(self, frame: Frame, outcome: str | tuple[int, Mark]) -> str:
        """Close the top frame: roll back its absorbed marks and assert the one
        conclusion the discharge rule licenses. Returns the rule applied.

        outcome is "contradiction" (a double mark arose in scope),
        "exhausted" (every budget-capped alternative inside the scope failed),
        or a pair (sibling node, mark) naming the conditional/disjunction goal
        reached.
        """
        if not self.scopes or self.scopes[-1] is not frame:
            raise StateError("only the innermost supposition can be discharged")
        assumed, sup_step = self.marks[frame.node], self.steps[frame.node]
        if outcome in ("contradiction", "exhausted"):
            if outcome == "contradiction":
                if self.dm is None:
                    raise StateError("no double mark was derived inside the scope")
                cite = (sup_step, self.trace[-1].step)
            else:
                cite = (sup_step,)
            self.rollback(frame.checkpoint)
            if frame.kind == "RR":
                self._record(frame.node, None, "RR-DM", (), cite)
                return "RR-DM"
            rule = "OA-DM" if frame.kind == "OA" else "OR-DM"
            self._conclude(frame.node, 1 - assumed, rule, cite)
            return rule
        target, want = outcome
        if self.marked(target) != want:
            raise StateError("the stated goal was not derived inside the scope")
        parent = self.tree.nodes[frame.node].parent
        tparent = self.tree.nodes[target].parent
        if parent is None or parent != tparent:
            raise StateError("supposition and goal are not children of one connective")
        pnode = self.tree.nodes[parent]
        side = pnode.children.index(frame.node)
        rule = DISCHARGE.get((pnode.kind, frame.kind, side, want))
        if rule is None or pnode.children[1 - side] != target:
            raise StateError("no discharge rule matches this supposition/goal configuration")
        goal_step = self.step_of(target)
        self.rollback(frame.checkpoint)
        self._conclude(parent, 1, rule, (sup_step, goal_step))
        return rule

    def _conclude(self, n: int, v: Mark, rule: str, cite: tuple[int, ...]) -> None:
        """Mark n by a discharge rule, citing the steps of the closed scope.
        Trace steps are dense and never truncated, so step k is trace[k - 1]."""
        self.set_mark(n, v, rule, ())
        self.trace[self.step_of(n) - 1].premises = cite

    def commit_frames(self) -> None:
        """Keep all provisional marks as final (a consistent completion
        stands). Once a frame naming a free variable is gone, generalization
        over that variable may be licensed again, at any quantifier, so every
        node goes on the agenda."""
        if any(self.tree.node_free_variables(frame.node) for frame in self.scopes):
            self._agenda.update(dict.fromkeys(self.tree.nodes))
        self.scopes.clear()

    # --------------------------------------------------- forced consequences

    def forced_for_anchor(self, n: int) -> list[tuple[int, Mark, str, tuple[int, ...]]]:
        """One-rule conclusions available from node n's current configuration,
        for currently existing, unmarked, ground nodes: the rules its
        `FORCING` entry lists (connectives), instantiation and generalization
        (quantifiers), then iteration into its formula class (marked nodes).
        A conclusion against an existing opposite mark must surface as a
        double mark, so only same-value repeats are dropped."""
        nodes, marks = self.tree.nodes, self.marks
        node, get = nodes[n], marks.get
        mark = get(n)
        out: list[tuple[int, Mark, str, tuple[int, ...]]] = []
        table = FORCING.get(node.kind)
        if table is not None:
            kids = node.children
            # the mark pattern, read in place
            vals = (mark, get(kids[0])) if len(kids) == 1 else (mark, get(kids[0]), get(kids[1]))
            at = (n, *kids)
            for rule, premises, conclusions in table[vals]:
                prem = tuple(map(at.__getitem__, premises))
                for index, v in conclusions:
                    t = at[index]
                    if vals[index] != v and nodes[t].ground:
                        out.append((t, v, rule, prem))
        elif node.is_quantifier:
            kids = node.children[1:]
            if mark is not None:
                inst = INSTANTIATION[node.kind, mark]
                if inst.witness:
                    w = self.witness_child(n)
                    kids = () if w is None else (w,)
                for c in kids:
                    if get(c) != mark and nodes[c].ground:
                        out.append((c, mark, inst.marking, (n,)))
            else:
                for c in kids:
                    cv = get(c)
                    if cv is None:
                        continue
                    up, independent = GENERALIZATION[node.kind, cv]
                    term = nodes[c].fill_term
                    if not independent or (isinstance(term, Var) and self.is_independent(term.name, c)):
                        if node.ground:
                            out.append((n, cv, up, (c,)))
                        break
        if mark is not None:
            # a marked node is ground, and so is every member of its class
            rule = "IA" if mark == 1 else "IR"
            for other in self.tree.classes.get(node.shape, ()):
                if other != n and get(other) != mark:
                        out.append((other, mark, rule, (n,)))
        return out

    # ------------------------------------------------------------ traversal

    def relevant(self) -> list[int]:
        """Nodes in preorder, skipping a quantifier's template subtree once
        the quantifier has instance children. The list is cached per tree
        version and shared: callers must not mutate it. The walk also
        collects `relevant_quantifiers`."""
        version = self.tree.version
        hit = self._relevant_cache
        if hit is not None and hit[0] == version:
            return hit[1]
        nodes = self.tree.nodes
        out: list[int] = []
        quantifiers: list[int] = []
        stack = [self.tree.root]
        while stack:
            nid = stack.pop()
            out.append(nid)
            node = nodes[nid]
            kids = node.children
            if kids:
                if node.is_quantifier:
                    quantifiers.append(nid)
                    if len(kids) > 1:
                        kids = kids[1:]
                stack += kids[::-1]
        self._relevant_cache = (version, out, quantifiers)
        return out

    def relevant_quantifiers(self) -> list[int]:
        """The quantifier nodes of relevant() in preorder, cached per tree
        version beside it; shared, so callers must not mutate it."""
        hit = self._relevant_cache
        if hit is None or hit[0] != self.tree.version:
            self.relevant()
            hit = self._relevant_cache
        return hit[2]

    def classify_quantifiers(self) -> tuple[list[int], list[int], list[int]]:
        """One pass over relevant_quantifiers(): the marked quantifiers obliged
        to a fresh witness, those obliged to an instance per individual
        (`INSTANTIATION`), and the unmarked ground ones, each in relevant
        order. Cached until the marks or the tree change, and shared: callers
        must not mutate the lists."""
        key = (self.tree.version, len(self.trace))
        hit = self._classified
        if hit is not None and hit[0] == key:
            return hit[1]
        nodes, get = self.tree.nodes, self.marks.get
        witness: list[int] = []
        instance: list[int] = []
        unmarked: list[int] = []
        for nid in self.relevant_quantifiers():
            mark = get(nid)
            node = nodes[nid]
            if mark is None:
                if node.ground:
                    unmarked.append(nid)
            elif INSTANTIATION[node.kind, mark].witness:
                witness.append(nid)
            else:
                instance.append(nid)
        out = witness, instance, unmarked
        self._classified = (key, out)
        return out

    def missing_terms(self, qnid: int) -> list[Term]:
        """The registry individuals quantifier qnid has no instance branch
        for, in registry order."""
        have = set(self.tree.instance_terms(qnid))
        return [t for t in self.domain_registry if t not in have]

    def unmarked_relevant_ground(self) -> list[int]:
        marks, nodes = self.marks, self.tree.nodes
        return [n for n in self.relevant() if n not in marks and nodes[n].ground]


# ------------------------------------------------------------------ saturation


def capped_obligations(s: MarkingState, budget: Optional[int]) -> list[int]:
    """Quantifiers whose fresh-witness rule is suppressed by the budget."""
    if budget is None or len(s.domain_registry) < budget:
        return []
    # an instance already carrying the required value settles the obligation
    marked, children = s.marked, s.tree.instance_children
    return [
        nid for nid in s.classify_quantifiers()[0]
        if s.witness_child(nid) is None and marked(nid) not in map(marked, children(nid))
    ]


def _quantifier_phase(s: MarkingState, budget: Optional[int]) -> bool:
    """One round's quantifier steps, in this order: a fresh witness for each
    marked quantifier obliged to one (only these create individuals), the
    missing instances over the registry for each obliged to one per
    individual, then remote instances of unmarked ground quantifiers. A
    generic variable enters only when nothing else will ever populate the
    registry, since models are nonempty.

    Each step reads its list from `classify_quantifiers`, which classifies
    again only when a step before it changed the marks or the tree. Returns
    whether anything was added; stops at a double mark."""
    nodes, registry = s.tree.nodes, s.domain_registry
    added = False
    for nid in s.classify_quantifiers()[0]:
        # the budget stays reached once it is
        if budget is not None and len(registry) >= budget:
            break
        if s.witness_child(nid) is not None:
            continue
        mark = s.marks[nid]
        inst = INSTANTIATION[nodes[nid].kind, mark]
        child = s.instantiate(nid, Const(s.fresh_witness()), inst.rule)
        s.set_mark(child, mark, inst.marking, (nid,))
        added = True
        if s.dm is not None:
            return added
    universal = s.classify_quantifiers()[1]
    if universal and not registry:
        s.introduce_generic()
        added = True
    for nid in universal:
        mark = s.marks[nid]
        inst = INSTANTIATION[nodes[nid].kind, mark]
        for term in s.missing_terms(nid):
            child = s.instantiate(nid, term, inst.rule)
            s.set_mark(child, mark, inst.marking, (nid,))
            added = True
            if s.dm is not None:
                return added
    # remote instances: materialize a permitted instance of an unmarked
    # quantifier when a node elsewhere already carries that instance's formula
    # with a mark that lets the quantifier itself be marked; one per quantifier
    consensus = s.consensus
    for nid in s.classify_quantifiers()[2]:
        kind = nodes[nid].kind
        for term in s.missing_terms(nid):
            hit = consensus.get(s.tree.instance_class(nid, term))
            if hit is None:
                continue
            val, src = hit
            up, independent = GENERALIZATION[kind, val]
            if independent and not isinstance(term, Var):
                continue
            child = s.instantiate(nid, term, PERMISSION[kind])
            s.set_mark(child, val, "IA" if val == 1 else "IR", (src,))
            if s.dm is None and not (independent and not s.is_independent(term.name, child)):
                s.set_mark(nid, val, up, (child,))
            added = True
            if s.dm is not None:
                return added
            break
    return added


def saturate(s: MarkingState, budget: Optional[int] = None) -> Optional[DoubleMark]:
    """Apply forced rules to fixpoint: pop the agenda's anchors until it is
    empty, then the quantifier phase (fresh witnesses, instances over the
    registry, remote instances), which reads one classified list of the
    relevant quantifiers. Returns the first double mark, or None at a
    consistent fixpoint. The fixpoint stands once a round's quantifier phase
    adds nothing: the agenda is then empty, so another round would visit no
    anchor and add nothing again; such a round costs one pass over the
    relevant quantifiers. Fresh witnesses stop once the registry holds budget
    individuals, when budget is set.

    By the invariant in the module docstring, an anchor off the agenda, or
    hidden, concludes nothing, so the marks reached are those of sweeps over
    every relevant node until one marks nothing. A popped anchor leaves the
    agenda before its visit, and the hooks push it again if its own
    conclusions change its inputs."""
    if s.dm is not None:
        return s.dm
    # the hooks push onto this dict; only rollback, never run here, replaces it
    agenda, nodes = s._agenda, s.tree.nodes
    while True:
        while agenda:
            nid = agenda.popitem()[0]
            # hidden when a quantifier whose template holds it has an instance
            q = nodes[nid].binder
            while q is not None and len(nodes[q].children) == 1:
                q = nodes[q].binder
            if q is not None:
                continue
            for t, v, rule, prem in s.forced_for_anchor(nid):
                s.set_mark(t, v, rule, prem)
                if s.dm is not None:
                    # the rest of nid's conclusions were not applied
                    agenda[nid] = None
                    return s.dm
        added = _quantifier_phase(s, budget)
        if s.dm is not None:
            return s.dm
        if not added:
            return None
