"""Reference saturation for `semforce.marking.saturate`, which pops its
anchors from an agenda and runs one quantifier phase over one classified
list: sweeps over the relevant nodes in preorder, in postorder or in a
seeded random agenda order, each round followed by the three-scan
quantifier phases the engine ran before they became one phase (the
fresh-witness and per-individual obligations, then remote instances, each
scanning the relevant quantifiers again). `tests/test_marking.py` checks
that every order reaches the engine's marks, or a double mark in each, and
that a sweep over every relevant node gives the engine's verdicts.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from semforce.formulas import Const, Term, Var
from semforce.marking import DoubleMark, MarkingState
from semforce.rules import GENERALIZATION, INSTANTIATION, PERMISSION


def _marked_quantifiers(s: MarkingState, witness: bool) -> list[int]:
    """Marked quantifiers obliged to a fresh witness (witness=True) or to an
    instance per individual (witness=False), in relevant order."""
    nodes, marks = s.tree.nodes, s.marks
    out = []
    for nid in s.relevant_quantifiers():
        mark = marks.get(nid)
        if mark is not None and INSTANTIATION[nodes[nid].kind, mark].witness is witness:
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
        # only this loop adds individuals, so the budget stays reached
        if budget is not None and len(s.domain_registry) >= budget:
            break
        if s.witness_child(nid) is not None:
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
            hit = s.consensus.get(s.tree.instance_class(nid, term))
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


def relevant_postorder(s: MarkingState) -> list[int]:
    """The nodes of `s.relevant()` in postorder: the reverse of a preorder
    walk that takes children right to left."""
    nodes = s.tree.nodes
    out: list[int] = []
    stack = [s.tree.root]
    while stack:
        nid = stack.pop()
        out.append(nid)
        node = nodes[nid]
        stack += node.children[1:] if node.is_quantifier and len(node.children) > 1 else node.children
    out.reverse()
    return out


def _visit(s: MarkingState, nid: int) -> bool:
    """Apply nid's conclusions until a double mark; whether any was applied."""
    fired = False
    for t, v, rule, prem in s.forced_for_anchor(nid):
        s.set_mark(t, v, rule, prem)
        fired = True
        if s.dm is not None:
            break
    return fired


def _rules(s: MarkingState, order: str | random.Random, every: bool) -> bool:
    """Fire the rules until nothing more is forced or a double mark stands;
    whether any fired. A random order pops a random anchor off the agenda,
    and drops it when relevant() skips it. The sweeps, in preorder ("pre")
    or postorder ("post"), visit the anchors on the agenda, each taken off it
    before its visit, or with every each relevant node, and stop after one
    that marks nothing; the anchors left on the agenda are then the hidden
    ones, and are dropped. every does not apply to a random order."""
    agenda = s._agenda
    fired = False
    if isinstance(order, random.Random):
        shown = set(s.relevant())
        while agenda and s.dm is None:
            nid = order.choice(list(agenda))
            del agenda[nid]
            if nid in shown:
                fired = _visit(s, nid) or fired
        return fired
    # no rule adds a node, so the relevant nodes stay those of the first sweep
    sweep = s.relevant() if order == "pre" else relevant_postorder(s)
    while s.dm is None:
        swept = False
        for nid in sweep:
            if every or nid in agenda:
                agenda.pop(nid, None)
                swept = _visit(s, nid) or swept
                if s.dm is not None:
                    break
        if not swept:
            agenda.clear()
            break
        fired = True
    return fired


def reference_saturate(
    s: MarkingState, budget: Optional[int] = None, order: str | random.Random = "pre", every: bool = False,
) -> Optional[DoubleMark]:
    """saturate by rounds of `_rules` in the given order and the three-scan
    quantifier phases, until a round changes nothing: the first double mark,
    or None at a consistent fixpoint."""
    if s.dm is not None:
        return s.dm
    while True:
        changed = _rules(s, order, every)
        if s.dm is None:
            changed = _expand_obligations(s, budget) or changed
        if s.dm is None:
            changed = _remote_instances(s) or changed
        if s.dm is not None:
            return s.dm
        if not changed:
            return None
