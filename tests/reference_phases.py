"""The quantifier phases that `semforce.marking.saturate` ran before they
became one phase over one classified list: the fresh-witness and
per-individual obligations, then remote instances, each scanning the
relevant quantifiers again. Kept as the reference that
`tests/test_marking.py`'s full-sweep saturation runs, so that the engine's
fused phase is checked against it firing for firing.
"""

from __future__ import annotations

from typing import Iterator, Optional

from semforce.formulas import Const, Term, Var
from semforce.marking import MarkingState
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
