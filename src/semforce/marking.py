"""Marking engine: partial 0/1 marks on forcing-tree nodes.

Marks spread by forced deduction: propositional table rules, quantifier
instantiation and generalization (with the independence side-condition),
iteration between nodes sharing one formula, and supposition scopes whose
absorbed marks are rolled back on discharge. A contradiction is a double mark:
two nodes associated with the same ground formula carrying opposite values.

A ground node's formula class is its tree's shape id (`tree.py`): formulas
equal up to renaming of bound variables share it, and it is composed when
the node is created. Iteration, consensus and the double-mark test key on
that int.
State mutates in place. Every insertion pushes one entry on an undo trail, so
`checkpoint` is O(1) and `rollback` costs the changes made since. Rolled-back
trace steps are kept, flagged absorbed, so step numbering stays dense and
premise references stay meaningful.

Saturation visits only dirty anchors. The invariant, while no double mark
stands: a node that is not dirty has an empty `forced_for_anchor` output. An
anchor's output reads the marks of itself and its children, its instance
children, the members of its formula class and the open frames, so four hooks
keep the invariant:

- `set_mark` on n dirties n and its parent (class-mates only lose
  conclusions by a new mark);
- `_index_node` on a new node (construction, `instantiate`) dirties the node,
  its parent and, when one of them is marked, its class-mates, which can now
  iterate (IA/IR) into it;
- the trail's unmark, run by `rollback`, dirties the node, its parent and,
  when one of them is still marked, its class-mates;
- closing a frame with free variables (`rollback`, `commit_frames`) dirties
  every node, since independence for generalization may hold again.

Everything else a rollback undoes (nodes, witnesses, a double mark) only
removes conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import PremiseError, StateError
from .formulas import (
    Const,
    Formula,
    Term,
    Var,
    # not called here: the name stays importable because perfbench/tracer.py
    # patches marking.alpha_normalize by attribute
    alpha_normalize,  # noqa: F401
    constants_of,
    free_variables,
    identifiers_of,
)
from .rules import (
    CATALOG,
    CHILD_INDEX,
    DISCHARGE,
    DISCHARGE_RULES,
    GENERALIZATION,
    GENERALIZATION_RULES,
    INSTANTIATION,
    INSTANTIATION_RULES,
    MARKING_RULES,
    PERMISSION,
    WITNESS_RULES,
    RuleSpec,
    rules_for,
    verify_derived_rule,
)
from .tree import ForcingTree, TreeNode

__all__ = [
    "DoubleMark",
    "Frame",
    "Justification",
    "MarkingState",
    "Quiescent",
    "RuleSpec",
    "TraceStep",
    "capped_obligations",
    "discharge",
    "forced_consequences",
    "init_marking",
    "is_independent",
    "open_supposition",
    "saturate",
    "set_mark",
    "verify_derived_rule",
]

Mark = int


@dataclass(frozen=True)
class Justification:
    rule: str
    premises: tuple[int, ...] = ()


@dataclass
class TraceStep:
    step: int
    node: Optional[int]
    value: Optional[Mark]
    rule: str
    premises: tuple[int, ...]
    absorbed: bool = False


@dataclass(frozen=True)
class Quiescent:
    pass


@dataclass(frozen=True)
class DoubleMark:
    n1: int
    n2: int


@dataclass
class Frame:
    """One open supposition: a provisional mark whose scope absorbs later steps."""

    node: int
    assumed: Mark
    opened_at: int
    free_vars: frozenset[str]
    kind: str
    checkpoint: "Checkpoint"


@dataclass
class Checkpoint:
    trail_len: int
    scopes_len: int
    trace_len: int
    next_nid: int
    dm: Optional[DoubleMark]
    generic: Optional[Var]



def _at(anchor: TreeNode, pos: str) -> int:
    """The node at rule position pos of a connective node."""
    return anchor.nid if pos == "k" else anchor.children[CHILD_INDEX[pos]]


class MarkingState:
    def __init__(self, tree: ForcingTree):
        self.tree = tree
        # node -> (value, the trace step that marked it)
        self.marks: dict[int, tuple[Mark, int]] = {}
        # formula class -> (value, first node marked with it); ground nodes only
        self.consensus: dict[int, tuple[Mark, int]] = {}
        # formula class -> node ids carrying that ground formula
        self.formula_index: dict[int, list[int]] = {}
        self.domain_registry: list[Term] = [Const(c) for c in constants_of(tree.source)]
        self.witness_registry: dict[str, tuple[int, frozenset[str]]] = {}
        self.inst_rule: dict[int, str] = {}
        self.scopes: list[Frame] = []
        self.trace: list[TraceStep] = []
        self.dm: Optional[DoubleMark] = None
        self.generic: Optional[Var] = None
        self._step = 0
        self._witness_counter = 0
        self._reserved = identifiers_of(tree.source)
        # formula class -> how many of its nodes are marked
        self._marked_in: list[int] = []
        self._relevant_cache: dict[str, tuple[int, list[int]]] = {}
        # anchors whose forced_for_anchor output may be non-empty (module docstring)
        self._dirty: set[int] = set()
        # (undo, argument) pairs, one per insertion, popped by rollback
        self._trail: list[tuple] = []
        marks, counts = self.marks, self._marked_in
        nodes, index, dirty = tree.nodes, self.formula_index, self._dirty

        def touch(nid: int) -> None:
            """Dirty nid, its parent and, when one of them is marked, its
            class-mates: every anchor that reads nid's existence or mark."""
            node = nodes[nid]
            dirty.add(nid)
            if node.parent is not None:
                dirty.add(node.parent)
            if node.ground and counts[node.shape]:
                dirty.update(index[node.shape])

        def unmark(nid: int) -> None:
            del marks[nid]
            counts[nodes[nid].shape] -= 1
            touch(nid)

        # closures, not bound methods: a trail entry that referred back to
        # the state would keep every finished state alive until the cycle
        # collector runs
        self._touch = touch
        self._unmark = unmark
        for nid in tree.preorder():
            self._index_node(nid)
        # no checkpoint precedes construction, so nothing so far is ever undone
        self._trail.clear()

    # ------------------------------------------------------------- inspection

    def marked(self, nid: int) -> Optional[Mark]:
        got = self.marks.get(nid)
        return None if got is None else got[0]

    def step_of(self, nid: int) -> Optional[int]:
        """The trace step that marked nid, None while it is unmarked."""
        got = self.marks.get(nid)
        return None if got is None else got[1]

    def key(self, nid: int) -> Optional[int]:
        """Formula class of the node; None while placeholders are unfilled."""
        node = self.tree.nodes[nid]
        return node.shape if node.ground else None

    def class_of(self, f: Formula) -> Optional[int]:
        """Formula class of a ground formula, up to renaming of bound
        variables; None when no node has carried it."""
        return self.tree.class_of(f)

    def _index_node(self, nid: int) -> None:
        k = self.key(nid)
        if k is not None:
            counts = self._marked_in
            if k >= len(counts):
                counts += [0] * (k + 1 - len(counts))
            members = self.formula_index.get(k)
            if members is None:
                self.formula_index[k] = [nid]
                self._trail.append((self.formula_index.pop, k))
            else:
                members.append(nid)
                self._trail.append((members.pop, -1))
        self._touch(nid)

    def witness_child(self, qnid: int) -> Optional[int]:
        for c in self.tree.instance_children(qnid):
            if self.inst_rule.get(c) in WITNESS_RULES:
                return c
        return None

    # ------------------------------------------------------- undo bookkeeping

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(
            trail_len=len(self._trail),
            scopes_len=len(self.scopes),
            trace_len=len(self.trace),
            next_nid=self.tree._next_nid,
            dm=self.dm,
            generic=self.generic,
        )

    def rollback(self, cp: Checkpoint) -> None:
        """Undo everything since cp. Checkpoints are rolled back innermost
        first; popping the trail restores every dict's key order too."""
        trail = self._trail
        if len(trail) < cp.trail_len:
            raise StateError("an enclosing checkpoint was already rolled back")
        for _ in range(len(trail) - cp.trail_len):
            undo, arg = trail.pop()
            undo(arg)
        self._close_frames(cp.scopes_len)
        for rec in self.trace[cp.trace_len:]:
            rec.absorbed = True
        self.dm = cp.dm
        self.generic = cp.generic
        for nid in self.tree.truncate(cp.next_nid):
            self._dirty.discard(nid)

    def _close_frames(self, keep: int) -> None:
        """Drop the frames above the first keep. Once a frame naming a free
        variable is gone, generalization over that variable may be licensed
        again, at any quantifier, so every node is dirtied."""
        if any(frame.free_vars for frame in self.scopes[keep:]):
            self._dirty.update(self.tree.nodes)
        del self.scopes[keep:]

    # ----------------------------------------------------------- trace output

    def _record(self, node: Optional[int], value: Optional[Mark], rule: str, premise_nodes: tuple[int, ...],
                premise_steps: Optional[tuple[int, ...]] = None) -> int:
        self._step += 1
        if premise_steps is None:
            premise_steps = tuple(self.marks[p][1] for p in premise_nodes if p in self.marks)
        self.trace.append(TraceStep(self._step, node, value, rule, premise_steps))
        return self._step

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
        self.generic = Var(f"v{n}")
        self.domain_registry.append(self.generic)
        self._trail.append((self.domain_registry.pop, -1))
        return self.generic

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
        self._validate(n, v, rule, premises)
        current = self.marked(n)
        if current == v:
            return
        step = self._record(n, v, rule, premises)
        if current is not None:
            self.dm = DoubleMark(n, n)
            self._record(n, None, "DM", (), (self.step_of(n), step))
            return
        k = self.key(n)
        self.marks[n] = (v, step)
        self._marked_in[k] += 1
        # the anchors that read this mark; class-mates only lose conclusions
        self._dirty.add(n)
        parent = self.tree.nodes[n].parent
        if parent is not None:
            self._dirty.add(parent)
        trail = self._trail
        trail.append((self._unmark, n))
        hit = self.consensus.get(k)
        if hit is None:
            self.consensus[k] = (v, n)
            trail.append((self.consensus.pop, k))
        elif hit[0] != v:
            self.dm = DoubleMark(hit[1], n)
            self._record(n, None, "DM", (), (self.step_of(hit[1]), step))

    def _validate(self, n: int, v: Mark, rule: str, premises: tuple[int, ...]) -> None:
        tree = self.tree
        if n not in tree.nodes:
            raise PremiseError(f"unknown node {n}")
        node = tree.nodes[n]
        if self.key(n) is None:
            raise PremiseError(f"node {n} has unfilled placeholders and cannot be marked")

        def need(cond: bool, msg: str) -> None:
            if not cond:
                raise PremiseError(f"{rule}: {msg}")

        if rule == "RR":
            need(n == tree.root and v == 0, "only the root may be rejected by RR")
        elif rule == "m":
            need(node.kind == "atom", "external leaf marks apply to atom nodes only")
        elif rule == "OA":
            need(v == 1, "acceptance option assumes 1")
        elif rule == "OR":
            need(v == 0, "rejection option assumes 0")
        elif rule == "OA-DM":
            need(v == 0, "a failed acceptance option concludes 0")
        elif rule == "OR-DM":
            need(v == 1, "a failed rejection option concludes 1")
        elif rule in DISCHARGE_RULES:
            kind = DISCHARGE_RULES[rule]
            what = "conditional" if kind == "imp" else "disjunction"
            need(node.kind == kind and v == 1, f"discharge concludes acceptance of the {what}")
        elif rule in ("IA", "IR"):
            need(v == (1 if rule == "IA" else 0), "iteration keeps the source value")
            need(len(premises) == 1, "iteration cites one source node")
            src = premises[0]
            need(self.marked(src) == v, "source node does not carry the iterated value")
            need(self.key(src) == self.key(n), "iteration requires nodes associated with one formula")
        elif rule in MARKING_RULES:
            want_kind, want_v = MARKING_RULES[rule]
            parent = node.parent
            need(parent is not None, "no quantifier above this node")
            q = tree.nodes[parent]
            need(q.kind == want_kind, f"parent is not a {want_kind} node")
            need(self.marked(parent) == want_v, "quantifier does not carry the required mark")
            need(node.fill_term is not None, "rule applies to instantiated branches only")
            need(v == want_v, "wrong conclusion value")
            if INSTANTIATION[want_kind, want_v].witness:
                need(self.inst_rule.get(n) in WITNESS_RULES, "rule applies to the fresh-witness branch only")
        elif rule in GENERALIZATION_RULES:
            want_kind, want_v = GENERALIZATION_RULES[rule]
            need(node.kind == want_kind, f"rule applies to a {want_kind} node")
            need(v == want_v, "wrong conclusion value")
            need(len(premises) == 1, "rule cites one instance branch")
            c = premises[0]
            child = tree.nodes.get(c)
            need(child is not None and child.parent == n and child.fill_term is not None,
                 "premise is not an instance branch of this quantifier")
            need(self.marked(c) == want_v, "instance branch does not carry the required mark")
            if GENERALIZATION[want_kind, want_v][1]:
                term = child.fill_term
                need(isinstance(term, Var), "generalization requires a variable instance")
                need(self.is_independent(term.name, c),
                     f"variable {term.name} is not independent in the instance branch")
        elif rule in CATALOG:
            spec = CATALOG[rule]
            if node.kind == spec.connective and any(pos == "k" for pos, _ in spec.conclusions):
                target_pos, anchor = "k", node
            else:
                parent = node.parent
                need(parent is not None and tree.nodes[parent].kind == spec.connective,
                     f"node is not positioned for a {spec.connective} rule")
                anchor = tree.nodes[parent]
                if spec.connective == "not":
                    target_pos = "a"
                else:
                    target_pos = "i" if anchor.children[0] == n else "d"
            need(any(pos == target_pos and val == v for pos, val in spec.conclusions),
                 "rule does not conclude this mark at this position")
            for pos, val in spec.premises:
                need(self.marked(_at(anchor, pos)) == val, f"premise {pos}={val} does not hold")
        else:
            raise PremiseError(f"unknown rule identifier {rule!r}")

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
            used = {t.name for t in self.domain_registry} | self._reserved | set(self.witness_registry)
            if term.name in used:
                raise PremiseError(f"witness {term.name!r} is not fresh")
        child = self.tree.instantiate(qnid, term)
        trail = self._trail
        self.inst_rule[child] = rule
        trail.append((self.inst_rule.pop, child))
        for nid in self.tree.preorder(child):
            self._index_node(nid)
        self._record(child, None, rule, (qnid,))
        if rule in WITNESS_RULES:
            fv = frozenset(free_variables(self.tree.node_formula(child)))
            self.witness_registry[term.name] = (child, fv)
            trail.append((self.witness_registry.pop, term.name))
            self.domain_registry.append(term)
            trail.append((self.domain_registry.pop, -1))
        return child

    # ----------------------------------------------------------- independence

    def is_independent(self, var: str, n: int) -> bool:
        """The eigenvariable condition: var is free of open suppositions that
        mention it and of witnesses introduced while it was free."""
        for frame in self.scopes:
            if var in frame.free_vars:
                return False
        for c in constants_of(self.tree.node_formula(n)):
            entry = self.witness_registry.get(c)
            if entry is not None and var in entry[1]:
                return False
        return True

    # ----------------------------------------------------------- suppositions

    def open_supposition(self, n: int, v: Mark, kind: Optional[str] = None) -> Frame:
        if self.marked(n) is not None:
            raise StateError(f"node {n} is already marked")
        kind = kind or ("OA" if v == 1 else "OR")
        if kind not in ("OA", "OR", "RR"):
            raise PremiseError(f"unknown supposition kind {kind!r}")
        frame = Frame(
            node=n,
            assumed=v,
            opened_at=self._step + 1,
            free_vars=frozenset(free_variables(self.tree.node_formula(n))),
            kind=kind,
            checkpoint=self.checkpoint(),
        )
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
        sup_step = self.step_of(frame.node)
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
            self._conclude(frame.node, 1 - frame.assumed, rule, cite)
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
        """Keep all provisional marks as final (a consistent completion stands)."""
        self._close_frames(0)

    # --------------------------------------------------- forced consequences

    def forced_for_anchor(self, n: int) -> list[tuple[int, Mark, str, tuple[int, ...]]]:
        """One-rule conclusions available from node n's current configuration,
        for currently existing, unmarked, ground nodes."""
        tree = self.tree
        node = tree.nodes[n]
        out: list[tuple[int, Mark, str, tuple[int, ...]]] = []

        def emit(t: int, v: Mark, rule: str, prem: tuple[int, ...]) -> None:
            # a conclusion against an existing opposite mark must surface as a
            # double mark, so only same-value repeats are dropped
            if self.marked(t) != v and self.key(t) is not None:
                out.append((t, v, rule, prem))

        if node.is_binary or node.kind == "not":
            for spec in rules_for(node.kind):
                if not spec.conclusions:
                    continue
                if all(self.marked(_at(node, pos)) == val for pos, val in spec.premises):
                    prem = tuple(_at(node, pos) for pos, _ in spec.premises)
                    for pos, val in spec.conclusions:
                        emit(_at(node, pos), val, spec.name, prem)
        elif node.is_quantifier:
            mark = self.marked(n)
            kids = tree.instance_children(n)
            if mark is not None:
                inst = INSTANTIATION[node.kind, mark]
                if inst.witness:
                    w = self.witness_child(n)
                    kids = [] if w is None else [w]
                for c in kids:
                    emit(c, mark, inst.marking, (n,))
            else:
                for c in kids:
                    cv = self.marked(c)
                    if cv is None:
                        continue
                    up, independent = GENERALIZATION[node.kind, cv]
                    term = tree.nodes[c].fill_term
                    if not independent or (isinstance(term, Var) and self.is_independent(term.name, c)):
                        emit(n, cv, up, (c,))
                        break
        mark = self.marked(n)
        if mark is not None:
            k = self.key(n)
            members = self.formula_index.get(k, ())
            # without a double mark, a class whose members are all marked
            # holds one value, so iterating into it would only repeat marks
            if self._marked_in[k] < len(members) or self.dm is not None:
                rule = "IA" if mark == 1 else "IR"
                for other in members:
                    if other != n:
                        emit(other, mark, rule, (n,))
        return out

    # ------------------------------------------------------------ traversal

    def relevant(self, order: str = "pre") -> list[int]:
        """Nodes in preorder ("pre") or postorder, skipping a quantifier's
        template subtree once the quantifier has instance children. The list
        is cached per tree version and shared: callers must not mutate it."""
        version = self.tree.version
        hit = self._relevant_cache.get(order)
        if hit is not None and hit[0] == version:
            return hit[1]
        nodes = self.tree.nodes
        pre = order == "pre"
        out: list[int] = []
        stack = [self.tree.root]
        while stack:
            nid = stack.pop()
            out.append(nid)
            node = nodes[nid]
            kids = node.children
            if kids:
                if node.is_quantifier and len(kids) > 1:
                    kids = kids[1:]
                # postorder is the reverse of a preorder that takes children right to left
                stack += kids[::-1] if pre else kids
        if not pre:
            out.reverse()
        self._relevant_cache[order] = (version, out)
        return out

    def relevant_quantifiers(self) -> list[int]:
        """The quantifier nodes of relevant() in preorder, cached per tree
        version beside it; shared, so callers must not mutate it."""
        version = self.tree.version
        hit = self._relevant_cache.get("quantifiers")
        if hit is not None and hit[0] == version:
            return hit[1]
        nodes = self.tree.nodes
        out = [nid for nid in self.relevant() if nodes[nid].is_quantifier]
        self._relevant_cache["quantifiers"] = (version, out)
        return out

    def unmarked_relevant_ground(self) -> list[int]:
        return [n for n in self.relevant() if self.marked(n) is None and self.key(n) is not None]

    def instance_key(self, qnid: int, term: Term) -> Optional[int]:
        """The formula class an instance branch of qnid filled with term would
        carry; None when no node has carried that formula."""
        return self.tree.instance_class(qnid, term)


def init_marking(t: ForcingTree) -> MarkingState:
    """Empty marking over t; the registry starts with the source's constants."""
    return MarkingState(t)


def set_mark(s: MarkingState, n: int, v: Mark, rule: str, premises: tuple[int, ...] = ()) -> MarkingState:
    s.set_mark(n, v, rule, premises)
    return s


def forced_consequences(s: MarkingState, n: int) -> list[tuple[int, Mark, Justification]]:
    return [(t, v, Justification(rule, prem)) for t, v, rule, prem in s.forced_for_anchor(n)]


def open_supposition(s: MarkingState, n: int, v: Mark) -> Frame:
    return s.open_supposition(n, v)


def discharge(s: MarkingState, scope: Frame, outcome: str | tuple[int, Mark]) -> str:
    return s.discharge(scope, outcome)


def is_independent(s: MarkingState, var: str, n: int) -> bool:
    return s.is_independent(var, n)


# ------------------------------------------------------------------ saturation


def capped_obligations(s: MarkingState, budget: Optional[int]) -> list[int]:
    """Quantifiers whose fresh-witness rule is suppressed by the budget."""
    if budget is None or len(s.domain_registry) < budget:
        return []
    # an instance already carrying the required value settles the obligation
    return [
        nid for nid in _marked_quantifiers(s, witness=True)
        if s.witness_child(nid) is None and not any(s.marked(c) == s.marked(nid) for c in s.tree.instance_children(nid))
    ]


def _marked_quantifiers(s: MarkingState, witness: bool) -> list[int]:
    """Marked quantifiers obliged to a fresh witness (witness=True) or to an
    instance per individual (witness=False), in relevant order."""
    out = []
    for nid in s.relevant_quantifiers():
        inst = INSTANTIATION.get((s.tree.nodes[nid].kind, s.marked(nid)))
        if inst is not None and inst.witness == witness:
            out.append(nid)
    return out


def missing_instances(s: MarkingState) -> Iterator[tuple[int, list[Term]]]:
    """Unmarked ground quantifiers in relevant order, each with the registry
    individuals it has no instance branch for yet (read when it is reached)."""
    for nid in s.relevant_quantifiers():
        if s.marked(nid) is None and s.key(nid) is not None:
            have = set(s.tree.instance_terms(nid))
            yield nid, [t for t in s.domain_registry if t not in have]


def _expand_obligations(s: MarkingState, budget: Optional[int]) -> bool:
    """Witness obligations first (they create individuals), then instantiation
    of accepted universals and rejected existentials over the registry. A
    generic variable enters only when nothing else will ever populate the
    registry, since models are nonempty."""
    changed = False
    for nid in _marked_quantifiers(s, witness=True):
        if s.witness_child(nid) is not None:
            continue
        if budget is not None and len(s.domain_registry) >= budget:
            continue
        mark = s.marked(nid)
        inst = INSTANTIATION[s.tree.nodes[nid].kind, mark]
        child = s.instantiate(nid, Const(s.fresh_witness()), inst.rule)
        s.set_mark(child, mark, inst.marking, (nid,))
        changed = True
        if s.dm is not None:
            return changed
    universal = _marked_quantifiers(s, witness=False)
    if universal and not s.domain_registry:
        s.introduce_generic()
        changed = True
    for nid in universal:
        mark = s.marked(nid)
        inst = INSTANTIATION[s.tree.nodes[nid].kind, mark]
        have = set(s.tree.instance_terms(nid))
        for term in list(s.domain_registry):
            if term in have:
                continue
            child = s.instantiate(nid, term, inst.rule)
            s.set_mark(child, mark, inst.marking, (nid,))
            changed = True
            if s.dm is not None:
                return changed
    return changed


def _remote_instances(s: MarkingState) -> bool:
    """Materialize a permitted instance of an unmarked quantifier when a node
    elsewhere already carries that instance's formula with a mark that lets the
    quantifier itself be marked."""
    changed = False
    for nid, missing in missing_instances(s):
        if s.dm is not None:
            return changed
        kind = s.tree.nodes[nid].kind
        for term in missing:
            hit = s.consensus.get(s.instance_key(nid, term))
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
            changed = True
            break
    return changed


def saturate(s: MarkingState, budget: Optional[int] = None, order: str = "pre") -> Quiescent | DoubleMark:
    """Apply forced rules to fixpoint: rule sweeps in the given traversal order,
    then instantiation obligations, then remote instances; stop at the first
    double mark. Fresh witnesses stop once the registry holds budget
    individuals, when budget is set.

    A sweep skips the anchors that are not dirty: by the invariant in the
    module docstring they would conclude nothing, so the firings and their
    order are those of a sweep over every relevant node. A dirty anchor is
    cleared just before its visit, and the hooks dirty it again if its own
    conclusions change its inputs."""
    if s.dm is not None:
        return s.dm
    dirty = s._dirty
    while True:
        changed = False
        while True:
            swept = False
            for nid in s.relevant(order):
                if nid not in dirty:
                    continue
                dirty.remove(nid)
                for t, v, rule, prem in s.forced_for_anchor(nid):
                    s.set_mark(t, v, rule, prem)
                    swept = True
                    if s.dm is not None:
                        # the rest of nid's conclusions were not applied
                        dirty.add(nid)
                        return s.dm
            if not swept:
                break
            changed = True
        if _expand_obligations(s, budget):
            changed = True
        if s.dm is not None:
            return s.dm
        if _remote_instances(s):
            changed = True
        if s.dm is not None:
            return s.dm
        if not changed:
            return Quiescent()
