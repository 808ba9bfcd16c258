"""Marking engine: rule validation, double marks, suppositions, saturation."""

import random
import sys
from collections import Counter
from itertools import product

import pytest

from conftest import ILLUSTRATIONS, bench_workloads, differential_formulas, fragment_budget, is_ground, workload_texts
from reference_phases import _marked_quantifiers, missing_instances, reference_saturate, relevant_postorder

from semforce import (
    Const,
    DoubleMark,
    Imp,
    Invalid,
    MarkingState,
    Or,
    ParseError,
    PremiseError,
    StateError,
    Var,
    build_initial_tree,
    decide,
    direct_force,
    format_formula,
    marking,
    parse_formula,
    saturate,
)
from semforce.cli import model_json
from semforce.formulas import Atom, alpha_normalize
from semforce.gen import random_monadic
from semforce.rules import CATALOG, FORCING, GENERALIZATION, INSTANTIATION, PERMISSION, rules_for


def state_for(src):
    return MarkingState(build_initial_tree(parse_formula(src)))


def leaf_marks(s):
    t = s.tree
    out = {}
    for nid in s.marks:
        g = t.node_formula(nid)
        if t.nodes[nid].ground and isinstance(g, Atom):
            out[format_formula(g)] = s.marked(nid)
    return out


# ------------------------------------------------------------- validation


def test_rr_applies_to_the_root_only_with_value_zero():
    s = state_for("P(a) & Q(b)")
    left = s.tree.nodes[s.tree.root].children[0]
    with pytest.raises(PremiseError):
        s.set_mark(left, 0, "RR")
    with pytest.raises(PremiseError):
        s.set_mark(s.tree.root, 1, "RR")
    s.set_mark(s.tree.root, 0, "RR")
    assert s.marked(s.tree.root) == 0


def test_external_marks_apply_to_atoms_only():
    s = state_for("P(a) & Q(b)")
    with pytest.raises(PremiseError, match="atom"):
        s.set_mark(s.tree.root, 1, "m")
    left = s.tree.nodes[s.tree.root].children[0]
    s.set_mark(left, 1, "m")
    assert s.marked(left) == 1


def test_conjunction_rule_needs_its_premise():
    s = state_for("P(a) & Q(b)")
    left = s.tree.nodes[s.tree.root].children[0]
    with pytest.raises(PremiseError, match="premise k=1"):
        s.set_mark(left, 1, "A∧")


def test_conjunction_rule_rejects_wrong_conclusion_value():
    s = state_for("P(a) & Q(b)")
    root = s.tree.root
    left, right = s.tree.nodes[root].children
    s.set_mark(root, 1, "OA")
    with pytest.raises(PremiseError, match="does not conclude"):
        s.set_mark(left, 0, "A∧")
    s.set_mark(left, 1, "A∧", (root,))
    s.set_mark(right, 1, "A∧", (root,))
    assert s.marked(left) == 1 and s.marked(right) == 1


def test_rule_anchor_position_is_checked():
    s = state_for("P(a) & Q(b)")
    # A∧ concludes on the children, so the conjunction node itself is not a
    # legal target for it
    with pytest.raises(PremiseError, match="not positioned"):
        s.set_mark(s.tree.root, 1, "A∧")


def test_unknown_rule_identifier_is_rejected():
    s = state_for("P(a)")
    with pytest.raises(PremiseError, match="unknown rule"):
        s.set_mark(s.tree.root, 1, "XYZ")


def test_a_rule_whose_premises_hold_still_needs_its_conclusion_here():
    s = state_for("P(a) <-> Q(b)")
    root = s.tree.root
    left, right = s.tree.nodes[root].children
    s.set_mark(root, 1, "OA")
    s.set_mark(left, 1, "m")
    # AiA↔ holds (i=1, k=1) but concludes d=1: not i, and not d=0
    with pytest.raises(PremiseError, match="does not conclude"):
        s.set_mark(left, 1, "AiA↔", (left, root))
    with pytest.raises(PremiseError, match="does not conclude"):
        s.set_mark(right, 0, "AiA↔", (left, root))
    # a rule concluding a child anchors at the parent, and the root has none
    with pytest.raises(PremiseError, match="not positioned"):
        s.set_mark(root, 0, "AiA↔", (left, root))
    s.set_mark(right, 1, "AiA↔", (left, root))
    assert s.marked(right) == 1


def test_a_rule_of_another_connective_is_not_positioned():
    s = state_for("P(a) & Q(b)")
    root = s.tree.root
    left = s.tree.nodes[root].children[0]
    s.set_mark(root, 0, "RR")
    # R∨ and R∼ would conclude a rejected child, but the parent is a conjunction
    with pytest.raises(PremiseError, match="not positioned for a or rule"):
        s.set_mark(left, 0, "R∨", (root,))
    with pytest.raises(PremiseError, match="not positioned for a not rule"):
        s.set_mark(left, 1, "R∼", (root,))


def test_a_failed_premise_is_named():
    s = state_for("(P(a) & Q(b)) <-> R(c)")
    root = s.tree.root
    conj, atom = s.tree.nodes[root].children
    s.set_mark(root, 1, "OA")
    # a rule concluding k anchors at the node itself, so Ri∧ reads conj's
    # own left child, which is unmarked
    with pytest.raises(PremiseError, match="premise i=0 does not hold"):
        s.set_mark(conj, 0, "Ri∧", ())
    # AiA↔ needs i=1 at the root
    with pytest.raises(PremiseError, match="premise i=1 does not hold"):
        s.set_mark(atom, 1, "AiA↔", (conj, root))


def _mark(s, n, v, rule="m"):
    s.set_mark(n, v, rule)
    return n


def _instance(s, term=None, q=None, mark=None):
    """An instance branch of the root quantifier, filled with term (the
    generic variable by default): made after an option marks the quantifier
    q, and marked mark by "m" after, where those are given."""
    root = s.tree.root
    if q is not None:
        s.set_mark(root, q, "OA" if q else "OR")
    c = s.instantiate(root, term or s.introduce_generic(), PERMISSION[s.tree.nodes[root].kind])
    return c if mark is None else _mark(s, c, mark)


# (formula, the set_mark arguments made on its state, the rejection); the
# initial tree numbers its nodes 1, 2, ... in preorder
_REJECTED = {
    "mark-value": ("P(a)", lambda s: (1, 2, "m", ()), "mark must be 0 or 1, got 2"),
    "unknown-node": ("P(a)", lambda s: (99, 1, "m", ()), "unknown node 99"),
    "unfilled-node": ("forall x. P(x)", lambda s: (2, 1, "m", ()),
                      "node 2 has unfilled placeholders and cannot be marked"),
    "iteration-value": ("P(a) & P(a)", lambda s: (3, 0, "IA", (_mark(s, 2, 0),)),
                        "IA: iteration keeps the source value"),
    "iteration-sources": ("P(a) & P(a)", lambda s: (3, 1, "IA", (_mark(s, 2, 1), 2)),
                          "IA: iteration cites one source node"),
    "iteration-unmarked-source": ("P(a) & P(a)", lambda s: (3, 1, "IA", (2,)),
                                  "IA: source node does not carry the iterated value"),
    "iteration-class": ("P(a) & Q(a)", lambda s: (3, 1, "IA", (_mark(s, 2, 1),)),
                        "IA: iteration requires nodes associated with one formula"),
    "marking-root": ("P(a)", lambda s: (1, 1, "A∀", ()), "A∀: no quantifier above this node"),
    "marking-kind": ("~P(a)", lambda s: (2, 1, "A∀", (1,)), "A∀: parent is not a forall node"),
    "marking-unmarked-quantifier": ("forall x. P(x)", lambda s: (_instance(s), 1, "A∀", (1,)),
                                    "A∀: quantifier does not carry the required mark"),
    # a template names its binder's variable, so it is never ground
    "marking-template": ("forall x. P(x)", lambda s: (2, 1, "A∀", (_mark(s, 1, 1, "OA"),)),
                         "node 2 has unfilled placeholders and cannot be marked"),
    "marking-value": ("forall x. P(x)", lambda s: (_instance(s, q=1), 0, "A∀", (1,)),
                      "A∀: wrong conclusion value"),
    "marking-witness": ("exists x. P(x)", lambda s: (_instance(s, q=1), 1, "A∃", (1,)),
                        "A∃: rule applies to the fresh-witness branch only"),
    "generalization-kind": ("P(a)", lambda s: (1, 1, "Aa∀", ()), "Aa∀: rule applies to a forall node"),
    "generalization-value": ("forall x. P(x)", lambda s: (1, 0, "Aa∀", ()), "Aa∀: wrong conclusion value"),
    "generalization-instances": ("forall x. P(x)", lambda s: (1, 1, "Aa∀", ()),
                                 "Aa∀: rule cites one instance branch"),
    "generalization-template": ("forall x. P(x)", lambda s: (1, 1, "Aa∀", (2,)),
                                "Aa∀: premise is not an instance branch of this quantifier"),
    "generalization-unmarked-instance": ("forall x. P(x)", lambda s: (1, 1, "Aa∀", (_instance(s),)),
                                         "Aa∀: instance branch does not carry the required mark"),
    "generalization-constant": ("forall x. P(x)", lambda s: (1, 1, "Aa∀", (_instance(s, Const("a"), mark=1),)),
                                "Aa∀: generalization requires a variable instance"),
    "generalization-dependent": ("forall x. P(x)",
                                 lambda s: (1, 1, "Aa∀", (s.open_supposition(_instance(s), 1).node,)),
                                 "Aa∀: variable v1 is not independent in the instance branch"),
}


@pytest.mark.parametrize("src,make,message", _REJECTED.values(), ids=_REJECTED)
def test_a_rejected_mark_names_its_reason_and_changes_nothing(src, make, message):
    s = state_for(src)
    n, v, rule, premises = make(s)
    steps = len(s.trace)
    with pytest.raises(PremiseError) as rejected:
        s.set_mark(n, v, rule, premises)
    assert str(rejected.value) == message
    assert len(s.trace) == steps and s.marked(n) is None


CHILD_INDEX = {"i": 0, "d": 1, "a": 0}


def generic_at(anchor, pos):
    return anchor.nid if pos == "k" else anchor.children[CHILD_INDEX[pos]]


def generic_catalog_check(s, n, v, rule):
    """The catalog branch of `_validate` before the forcing table, matching
    the cited rule's premises one by one: the rejection message, or None."""
    tree = s.tree
    node = tree.nodes[n]
    spec = CATALOG[rule]
    if node.kind == spec.connective and any(pos == "k" for pos, _ in spec.conclusions):
        target_pos, anchor = "k", node
    else:
        parent = node.parent
        if not (parent is not None and tree.nodes[parent].kind == spec.connective):
            return f"{rule}: node is not positioned for a {spec.connective} rule"
        anchor = tree.nodes[parent]
        if spec.connective == "not":
            target_pos = "a"
        else:
            target_pos = "i" if anchor.children[0] == n else "d"
    if not any(pos == target_pos and val == v for pos, val in spec.conclusions):
        return f"{rule}: rule does not conclude this mark at this position"
    for pos, val in spec.premises:
        if s.marked(generic_at(anchor, pos)) != val:
            return f"{rule}: premise {pos}={val} does not hold"
    return None


@pytest.mark.parametrize("src", [
    "~(P(a) & Q(b))", "~(P(a) | Q(b))", "~(P(a) -> Q(b))", "~(P(a) <-> Q(b))", "~~P(a)", "~P(a) & ~Q(b)",
])
def test_catalog_steps_are_judged_as_by_the_generic_match(src):
    # every mark pattern on the tree, set by options and leaf marks, and
    # every catalog step on every node: the same acceptance and message
    base = state_for(src)
    nids = list(base.tree.preorder())
    judged = Counter()
    for pattern in product((None, 0, 1), repeat=len(nids)):
        s = state_for(src)
        for nid, v in zip(nids, pattern):
            if v is not None:
                s.set_mark(nid, v, "m" if s.tree.nodes[nid].kind == "atom" else ("OA" if v else "OR"))
        for n in nids:
            for rule in CATALOG:
                for v in (0, 1):
                    try:
                        s._validate(n, v, rule, ())
                        got = None
                    except PremiseError as exc:
                        got = str(exc)
                    assert got == generic_catalog_check(s, n, v, rule), (pattern, n, v, rule)
                    judged[got is None] += 1
    assert judged[True] and judged[False]


def test_iteration_shares_a_value_between_same_formula_nodes():
    s = state_for("P(a) | P(a)")
    left, right = s.tree.nodes[s.tree.root].children
    s.set_mark(left, 1, "m")
    s.set_mark(right, 1, "IA", (left,))
    assert s.marked(right) == 1


def test_iteration_requires_marked_source_and_matching_value():
    s = state_for("P(a) | P(a)")
    left, right = s.tree.nodes[s.tree.root].children
    with pytest.raises(PremiseError, match="source node"):
        s.set_mark(right, 1, "IA", (left,))
    s.set_mark(left, 1, "m")
    with pytest.raises(PremiseError, match="iterated value"):
        s.set_mark(right, 0, "IR", (left,))


def test_iteration_requires_one_shared_formula():
    s = state_for("P(a) | Q(a)")
    left, right = s.tree.nodes[s.tree.root].children
    s.set_mark(left, 1, "m")
    with pytest.raises(PremiseError, match="one formula"):
        s.set_mark(right, 1, "IA", (left,))


def test_iteration_identifies_formulas_up_to_bound_renaming():
    s = state_for("forall x. P(x) | forall y. P(y)")
    left, right = s.tree.nodes[s.tree.root].children
    s.set_mark(left, 1, "OA")
    s.set_mark(right, 1, "IA", (left,))
    assert s.marked(right) == 1


# ------------------------------------------------------------ double marks


def test_opposite_marks_on_one_node_form_a_double_mark():
    s = state_for("P(a) & Q(a)")
    left = s.tree.nodes[s.tree.root].children[0]
    s.set_mark(left, 1, "m")
    before = len(s.trace)
    s.set_mark(left, 1, "m")
    assert len(s.trace) == before  # same-value repeat is a no-op
    s.set_mark(left, 0, "m")
    assert s.dm == DoubleMark(left, left)
    with pytest.raises(StateError):
        s.set_mark(s.tree.nodes[s.tree.root].children[1], 1, "m")


def test_opposite_marks_on_same_formula_nodes_form_a_double_mark():
    s = state_for("P(a) | P(a)")
    left, right = s.tree.nodes[s.tree.root].children
    s.set_mark(left, 1, "m")
    s.set_mark(right, 0, "m")
    assert s.dm == DoubleMark(left, right)


# --------------------------------------------------------------- quantifiers


def test_witness_instantiation_registers_a_fresh_constant():
    s = state_for("forall x. P(x)")
    root = s.tree.root
    s.set_mark(root, 0, "RR")
    child = s.instantiate(root, Const("w1"), "IR∀")
    assert "w1" in s.witness_registry
    assert Const("w1") in s.domain_registry
    assert s.witness_registry["w1"] == child and s.witness_child(root) == child
    s.set_mark(child, 0, "R∀", (root,))
    assert s.marked(child) == 0


def test_witness_must_be_fresh():
    s = state_for("forall x. P(x) & Q(a)")
    q = s.tree.nodes[s.tree.root].children[0]
    s.set_mark(q, 0, "OR")
    with pytest.raises(PremiseError, match="fresh constant"):
        s.instantiate(q, Var("x"), "IR∀")
    with pytest.raises(PremiseError, match="not fresh"):
        s.instantiate(q, Const("a"), "IR∀")
    # freshness is by name: a name of the source, a registered witness's, or
    # the generic variable's, whose Const is another term
    w = Const(s.fresh_witness())
    s.instantiate(q, w, "IR∀")
    generic = s.introduce_generic()
    for name in ("P", w.name, generic.name):
        with pytest.raises(PremiseError, match="not fresh"):
            s.instantiate(q, Const(name), "IR∀")
    assert s.domain_registry == [Const("a"), w, generic]


def test_witness_rules_check_the_quantifier_mark():
    s = state_for("forall x. P(x)")
    s.set_mark(s.tree.root, 0, "RR")
    with pytest.raises(PremiseError, match="accepted universal"):
        s.instantiate(s.tree.root, Const("w9"), "IA∀")


@pytest.mark.parametrize(
    "src, rule, what",
    [("exists x. P(x)", "I∀", "a universal"), ("forall x. P(x)", "I∃", "an existential")],
)
def test_permission_rules_check_the_quantifier_kind(src, rule, what):
    s = state_for(src)
    with pytest.raises(PremiseError, match=f"{rule} applies to {what}"):
        s.instantiate(s.tree.root, Const("a"), rule)
    assert s.tree.instance_children(s.tree.root) == []
    assert s.trace == []


def test_downward_witness_rule_applies_to_the_witness_branch_only():
    s = state_for("forall x. P(x)")
    root = s.tree.root
    s.set_mark(root, 0, "RR")
    g = s.introduce_generic()
    inst = s.instantiate(root, g, "I∀")
    with pytest.raises(PremiseError, match="fresh-witness branch"):
        s.set_mark(inst, 0, "R∀", (root,))


def test_generalization_over_an_independent_generic_variable():
    s = state_for("forall x. P(x)")
    root = s.tree.root
    g = s.introduce_generic()
    assert g == Var("v1")
    child = s.instantiate(root, g, "I∀")
    s.set_mark(child, 1, "m")
    assert s.is_independent("v1", child)
    s.set_mark(root, 1, "Aa∀", (child,))
    assert s.marked(root) == 1


def test_open_supposition_blocks_generalization_over_its_variable():
    s = state_for("forall x. P(x)")
    root = s.tree.root
    g = s.introduce_generic()
    child = s.instantiate(root, g, "I∀")
    s.open_supposition(child, 1)
    assert not s.is_independent("v1", child)
    with pytest.raises(PremiseError, match="not independent"):
        s.set_mark(root, 1, "Aa∀", (child,))


def test_a_variable_free_in_the_generalized_quantifier_blocks_generalization():
    # R(v1,v1) at 0 says nothing of R(w,v1) for another w, so it may not
    # reject exists x. R(x,v1), where v1 is free
    s = state_for("forall y. exists x. R(x,y)")
    g = s.introduce_generic()
    q = s.instantiate(s.tree.root, g, "I∀")
    c = s.instantiate(q, g, "I∃")
    s.set_mark(c, 0, "m")
    assert not s.is_independent("v1", c)
    with pytest.raises(PremiseError, match="not independent"):
        s.set_mark(q, 0, "Ra∃", (c,))


def test_witness_introduced_under_a_free_variable_blocks_generalization():
    s = state_for("forall x. exists y. R(x,y)")
    root = s.tree.root
    s.set_mark(root, 1, "OA")
    g = s.introduce_generic()
    inst = s.instantiate(root, g, "IA∀")
    s.set_mark(inst, 1, "A∀", (root,))
    wit = s.instantiate(inst, Const(s.fresh_witness()), "IA∃")
    s.set_mark(wit, 1, "A∃", (inst,))
    # the witness was introduced while v1 was free, so any node whose formula
    # mentions it is dependent on v1; the instance above it is not
    assert not s.is_independent("v1", wit)
    assert s.is_independent("v1", inst)


def test_generic_variable_is_unique_and_avoids_user_names():
    s = state_for("P(v1)")
    assert s.introduce_generic() == Var("v2")
    with pytest.raises(StateError):
        s.introduce_generic()


# ----------------------------------------------------- checkpoint / rollback


def test_rollback_restores_marks_registry_and_tree():
    s = state_for("forall x. P(x)")
    root = s.tree.root
    pre_nids = set(s.tree.nodes)
    cp = s.checkpoint()
    s.set_mark(root, 0, "RR")
    child = s.instantiate(root, Const(s.fresh_witness()), "IR∀")
    s.set_mark(child, 0, "R∀", (root,))
    steps = len(s.trace)
    assert steps == 3 and child in s.tree.nodes

    s.rollback(cp)
    assert s.marked(root) is None
    assert set(s.tree.nodes) == pre_nids
    assert not s.domain_registry and not s.witness_registry
    # trace is kept, flagged absorbed, and numbering stays monotone
    assert len(s.trace) == steps
    assert all(rec.absorbed for rec in s.trace)
    s.set_mark(root, 0, "RR")
    assert s.trace[-1].step == steps + 1
    assert s.fresh_witness() == "w2"


def snapshot(s):
    """Every structure rollback restores, with its key order."""
    return {
        "marks": list(s.marks.items()),
        "steps": list(s.steps.items()),
        "consensus": list(s.consensus.items()),
        "classes": [(k, list(v)) for k, v in s.tree.classes.items()],
        "witnesses": list(s.witness_registry.items()),
        "registry": list(s.domain_registry),
        "dm": s.dm,
        "generic": s.generic,
        "nodes": list(s.tree.nodes),
        "relevant": list(s.relevant()),
    }


def assert_consensus_follows_marks(s):
    # instantiate reads "a class-mate is marked" as the class having a consensus entry
    for k, members in s.tree.classes.items():
        assert (k in s.consensus) == any(s.marked(n) is not None for n in members), k
    assert set(s.consensus) <= set(s.tree.classes)


def test_nested_rollbacks_restore_every_structure_in_order():
    s = state_for("forall x. P(x) | forall y. Q(y)")
    q1, q2 = s.tree.nodes[s.tree.root].children
    cp1 = s.checkpoint()
    snap1 = snapshot(s)
    s.set_mark(q1, 0, "OR")
    w1 = s.instantiate(q1, Const(s.fresh_witness()), "IR∀")
    s.set_mark(w1, 0, "R∀", (q1,))

    cp2 = s.checkpoint()
    snap2 = snapshot(s)
    s.set_mark(q2, 0, "OR")
    w2 = s.instantiate(q2, Const(s.fresh_witness()), "IR∀")
    s.instantiate(q1, s.introduce_generic(), "I∀")
    s.set_mark(w2, 1, "m")
    assert_consensus_follows_marks(s)
    s.set_mark(w2, 0, "m")
    assert s.dm is not None and s.generic is not None
    assert snapshot(s) != snap2

    s.rollback(cp2)
    assert snapshot(s) == snap2
    assert_consensus_follows_marks(s)
    s.introduce_generic()
    s.set_mark(w1, 1, "m")
    assert s.dm is not None

    s.rollback(cp1)
    assert snapshot(s) == snap1
    assert_consensus_follows_marks(s)
    with pytest.raises(StateError):
        s.rollback(cp2)


@pytest.mark.parametrize("between", ["mark", "witness"])
def test_a_rollback_past_an_enclosing_rollback_is_refused(between):
    # between the two checkpoints one stack grows: the marks, or the
    # registry alone
    s = state_for("forall x. P(x) | forall y. Q(y)")
    q1 = s.tree.nodes[s.tree.root].children[0]
    if between == "witness":
        s.set_mark(q1, 0, "OR")
    outer = s.checkpoint()
    if between == "mark":
        s.set_mark(q1, 0, "OR")
    else:
        s.instantiate(q1, Const(s.fresh_witness()), "IR∀")
    inner = s.checkpoint()
    s.rollback(outer)
    before = snapshot(s)
    with pytest.raises(StateError, match="an enclosing checkpoint was already rolled back"):
        s.rollback(inner)
    assert snapshot(s) == before
    # a checkpoint whose lengths the state still reaches rolls back again
    s.rollback(outer)
    assert snapshot(s) == before


def test_every_rollback_of_a_search_restores_its_checkpoints_state(monkeypatch):
    # checkpoint id -> (the checkpoint, kept alive so its id stays unique, and
    # the state it was taken in)
    taken = {}
    checks = []
    checkpoint, rollback = MarkingState.checkpoint, MarkingState.rollback

    def checked_checkpoint(s):
        cp = checkpoint(s)
        taken[id(cp)] = (cp, snapshot(s))
        return cp

    def checked_rollback(s, cp):
        rollback(s, cp)
        assert snapshot(s) == taken[id(cp)][1]
        checks.append(cp)

    monkeypatch.setattr(MarkingState, "checkpoint", checked_checkpoint)
    monkeypatch.setattr(MarkingState, "rollback", checked_rollback)
    for f in differential_formulas():
        decide(f)
    assert checks


def test_a_class_has_a_consensus_entry_exactly_while_a_member_is_marked(monkeypatch):
    saturated = []

    def checked_saturate(s, budget):
        out = saturate(s, budget)
        assert_consensus_follows_marks(s)
        saturated.append(out)
        return out

    monkeypatch.setattr(sys.modules["semforce.decide"], "saturate", checked_saturate)
    for f in differential_formulas():
        decide(f)
    assert any(isinstance(out, DoubleMark) for out in saturated)
    assert any(out is None for out in saturated)


def test_relevant_follows_the_tree_after_a_rollback():
    s = state_for("forall x. P(x) & forall y. Q(y)")
    root = s.tree.root
    q1, q2 = s.tree.nodes[root].children
    t1, t2 = s.tree.nodes[q1].children[0], s.tree.nodes[q2].children[0]
    cp = s.checkpoint()
    a = s.instantiate(q1, Const("c"), "I∀")
    assert s.relevant() == [root, q1, a, q2, t2]
    assert relevant_postorder(s) == [a, q1, t2, q2, root]
    size = len(s.tree.nodes)
    s.rollback(cp)
    # same node count and same next id, over a different tree
    b = s.instantiate(q2, Const("c"), "I∀")
    assert b == a and len(s.tree.nodes) == size
    assert s.relevant() == [root, q1, t1, q2, b]
    assert relevant_postorder(s) == [t1, q1, b, q2, root]


# ------------------------------------------------------ suppositions


def test_open_supposition_rejects_marked_nodes():
    s = state_for("P(a)")
    s.set_mark(s.tree.root, 1, "m")
    with pytest.raises(StateError):
        s.open_supposition(s.tree.root, 0)


def test_a_refused_supposition_opens_no_frame():
    s = state_for("P(a) -> Q(b)")
    left = s.tree.nodes[s.tree.root].children[0]
    with pytest.raises(PremiseError, match="rejection option assumes 0"):
        s.open_supposition(left, 1, kind="OR")
    assert not s.scopes and s.marked(left) is None and not s.trace
    # the node can still be supposed afterwards
    frame = s.open_supposition(left, 1)
    assert s.scopes == [frame] and s.trace[-1].rule == "OA"


def test_an_unknown_supposition_kind_is_refused():
    s = state_for("P(a) -> Q(b)")
    left = s.tree.nodes[s.tree.root].children[0]
    with pytest.raises(PremiseError, match="unknown supposition kind 'XX'"):
        s.open_supposition(left, 1, kind="XX")
    assert not s.scopes and s.marked(left) is None and not s.trace


def test_contradiction_discharge_concludes_the_opposite_value():
    s = state_for("P(a) & ~P(a)")
    frame = s.open_supposition(s.tree.root, 1)
    out = saturate(s, fragment_budget(s.tree))
    assert isinstance(out, DoubleMark)
    rule = s.discharge(frame, "contradiction")
    assert rule == "OA-DM"
    assert s.marked(s.tree.root) == 0
    assert not s.scopes
    last = s.trace[-1]
    assert last.rule == "OA-DM" and len(last.premises) == 2


def test_contradiction_discharge_requires_a_double_mark():
    s = state_for("P(a)")
    frame = s.open_supposition(s.tree.root, 1)
    with pytest.raises(StateError, match="no double mark"):
        s.discharge(frame, "contradiction")


def test_exhaustion_discharge_needs_no_double_mark():
    s = state_for("P(a)")
    frame = s.open_supposition(s.tree.root, 1)
    rule = s.discharge(frame, "exhausted")
    assert rule == "OA-DM"
    assert s.marked(s.tree.root) == 0
    assert len(s.trace[-1].premises) == 1


def test_goal_discharge_accepts_the_conditional():
    s = state_for("P(a) -> P(a)")
    left, right = s.tree.nodes[s.tree.root].children
    frame = s.open_supposition(left, 1)
    saturate(s, fragment_budget(s.tree))
    assert s.marked(right) == 1  # iterated from the supposed antecedent
    rule = s.discharge(frame, (right, 1))
    assert rule == "OAi-Ad→"
    assert s.marked(s.tree.root) == 1
    assert s.marked(left) is None  # the supposition itself was rolled back
    assert s.trace[-1].rule == "OAi-Ad→"


def test_goal_discharge_requires_the_goal_to_be_derived():
    s = state_for("P(a) -> Q(b)")
    left, right = s.tree.nodes[s.tree.root].children
    frame = s.open_supposition(left, 1)
    with pytest.raises(StateError, match="not derived"):
        s.discharge(frame, (right, 1))


def test_only_the_innermost_frame_can_be_discharged():
    s = state_for("P(a) & Q(b)")
    left, right = s.tree.nodes[s.tree.root].children
    outer = s.open_supposition(left, 1)
    s.open_supposition(right, 1)
    with pytest.raises(StateError, match="innermost"):
        s.discharge(outer, "exhausted")


def test_commit_frames_clears_open_scopes():
    s = state_for("P(a)")
    s.open_supposition(s.tree.root, 1)
    s.commit_frames()
    assert not s.scopes
    assert s.marked(s.tree.root) == 1


# ---------------------------------------------------------------- saturation


def test_the_forced_conclusions_of_an_accepted_conjunction():
    s = state_for("P(a) & Q(b)")
    root = s.tree.root
    left, right = s.tree.nodes[root].children
    s.set_mark(root, 1, "OA")
    got = {(n, v, rule) for n, v, rule, _ in s.forced_for_anchor(root)}
    assert (left, 1, "A∧") in got and (right, 1, "A∧") in got


def test_saturation_is_deterministic_across_sweep_orders():
    states = [state_for(ILLUSTRATIONS[1]) for _ in range(3)]
    for s, run in zip(states, (lambda s: saturate(s, fragment_budget(s.tree)), reference_saturate, lambda s: reference_saturate(s, order="post"))):
        s.open_supposition(s.tree.root, 0, kind="RR")
        assert run(s) is None
    assert leaf_marks(states[0]) == leaf_marks(states[1]) == leaf_marks(states[2])


def test_saturation_refutes_the_second_worked_formula():
    s = state_for(ILLUSTRATIONS[2])
    s.open_supposition(s.tree.root, 0, kind="RR")
    out = saturate(s, fragment_budget(s.tree))
    assert isinstance(out, DoubleMark)
    assert s.key(out.n1) == s.key(out.n2)


def test_saturation_leaves_of_the_first_worked_formula():
    s = state_for(ILLUSTRATIONS[1])
    s.open_supposition(s.tree.root, 0, kind="RR")
    assert saturate(s, fragment_budget(s.tree)) is None
    assert leaf_marks(s) == {
        "P(w1)": 1,
        "R(w1,w1)": 1,
        "R(w1,w2)": 1,
        "R(w2,w1)": 0,
        "R(w2,w2)": 0,
    }
    assert not s.unmarked_relevant_ground()


def test_a_witness_chain_saturates_within_the_budget():
    # each witness w_k obliges an instance of the universal, whose witness
    # is w_{k+1}: only the budget ends the chain
    s = state_for("~forall x. exists y. R(x,y)")
    assert fragment_budget(s.tree) == 8
    s.open_supposition(s.tree.root, 0, kind="RR")
    assert saturate(s, 8) is None
    assert len(s.domain_registry) <= 8
    assert marking.capped_obligations(s, 8)


def test_saturation_runs_no_round_on_a_state_its_quantifier_phases_left_unchanged(monkeypatch):
    # per saturate call, the (trace steps, nodes) each round's quantifier
    # phase starts from: one pair twice in a row is a round that changed nothing
    decide_module = sys.modules["semforce.decide"]
    phase = marking._quantifier_phase
    rounds = []

    def counted_saturate(s, budget):
        rounds.append([])
        return saturate(s, budget)

    def counted_phase(s, budget):
        rounds[-1].append((len(s.trace), len(s.tree.nodes)))
        return phase(s, budget)

    monkeypatch.setattr(decide_module, "saturate", counted_saturate)
    monkeypatch.setattr(marking, "_quantifier_phase", counted_phase)
    for f in differential_formulas():
        decide(f)
    assert not [r for r in rounds if any(a == b for a, b in zip(r, r[1:]))]
    assert any(len(r) > 1 for r in rounds)


# ------------------------------------------------------------- dirty anchors


def outcome(f):
    """What the search decides about f, whatever order its saturations fire
    the rules in: the verdict class, the countermodel as the CLI prints it
    (or the bound), the final node count and the number of saturations (the
    search's branches); and of a conditional or disjunction, whether direct
    forcing accepts it."""
    branches = 0
    decide_module = sys.modules["semforce.decide"]
    run = decide_module.saturate

    def counted(s, budget):
        nonlocal branches
        branches += 1
        return run(s, budget)

    decide_module.saturate = counted
    try:
        v = decide(f)
    finally:
        decide_module.saturate = run
    direct = direct_force(f) is not None if isinstance(f, (Imp, Or)) else None
    model = model_json(v.model) if isinstance(v, Invalid) else getattr(v, "bound", None)
    return type(v).__name__, model, len(v.state.tree.nodes), branches, direct


def test_dirty_anchor_saturation_matches_a_full_sweep(monkeypatch):
    formulas = differential_formulas()
    quiet = []

    def checked(s, budget):
        out = saturate(s, budget)
        if out is None:
            quiet.append(all(not s.forced_for_anchor(n) for n in s.relevant()))
            # the one-pass classification is the three reference scans'
            reference = (_marked_quantifiers(s, True), _marked_quantifiers(s, False),
                         [nid for nid, _ in missing_instances(s)])
            quiet.append(s.classify_quantifiers() == reference)
        return out

    # the package attribute `decide` is the function; the module binds saturate
    decide_module = sys.modules["semforce.decide"]
    monkeypatch.setattr(decide_module, "saturate", checked)
    engine = [outcome(f) for f in formulas]
    assert quiet and all(quiet)
    monkeypatch.setattr(decide_module, "saturate", lambda s, budget: reference_saturate(s, budget, every=True))
    reference = [outcome(f) for f in formulas]
    for f, got, want in zip(formulas, engine, reference):
        assert got == want, format_formula(f)


def stream_slice(n, seed=2):
    """The first n formulas of the seeded stream that alternates fo2-batch's
    generator at complexity 3-8 with monadic formulas over one to three
    predicates and two constants."""
    from semforce import formulas

    fo2 = bench_workloads().random_fo2
    rng = random.Random(seed)
    out = []
    for k in range(n):
        if k % 2:
            preds = ("P", "Q", "R")[: rng.randint(1, 3)]
            out.append(random_monadic(rng, preds=preds, max_complexity=rng.randint(3, 8), consts=("a", "b")))
        else:
            out.append(fo2(rng, formulas, rng.randint(3, 8)))
    return out


def test_saturation_reaches_one_fixpoint_in_every_anchor_order(monkeypatch):
    """At every saturation of a decision, reference saturations by sweeps
    over every relevant node in preorder and in postorder, which do not read
    the agenda, and in a seeded random agenda order, each run from the state
    the engine starts from and rolled back, reach the marks the engine's
    agenda reaches, or a double mark each when it does."""
    rng = random.Random(31)
    reached = Counter()

    def compared(s, budget):
        cp, counter = s.checkpoint(), s._witness_counter
        outcomes = []
        for order in ("pre", "post", rng):
            out = reference_saturate(s, budget, order, every=True)
            outcomes.append(dict(s.marks) if out is None else "double mark")
            s.rollback(cp)
            s._witness_counter = counter
        out = saturate(s, budget)
        assert outcomes == [dict(s.marks) if out is None else "double mark"] * 3
        reached[out is None] += 1
        return out

    monkeypatch.setattr(sys.modules["semforce.decide"], "saturate", compared)
    texts = [t for name in ("monadic-batch", "fo2-batch", "large-formula") for t in workload_texts(name)]
    formulas = differential_formulas() + stream_slice(2000)
    for text in texts:
        try:
            formulas.append(parse_formula(text))
        except ParseError:
            # large-formula's two items nested deeper than the parser goes
            continue
    for f in formulas:
        decide(f)
    assert reached[True] and reached[False]


def generic_forced_for_anchor(s, n):
    """`forced_for_anchor` before the forcing table: every rule of the
    connective matched premise by premise, then the quantifier rules and
    iteration."""
    tree = s.tree
    node = tree.nodes[n]
    out = []

    def emit(t, v, rule, prem):
        if s.marked(t) != v and s.key(t) is not None:
            out.append((t, v, rule, prem))

    if node.kind in ("and", "or", "imp", "iff", "not"):
        for spec in rules_for(node.kind):
            if not spec.conclusions:
                continue
            if all(s.marked(generic_at(node, pos)) == val for pos, val in spec.premises):
                prem = tuple(generic_at(node, pos) for pos, _ in spec.premises)
                for pos, val in spec.conclusions:
                    emit(generic_at(node, pos), val, spec.name, prem)
    elif node.is_quantifier:
        mark = s.marked(n)
        kids = tree.instance_children(n)
        if mark is not None:
            inst = INSTANTIATION[node.kind, mark]
            if inst.witness:
                w = s.witness_child(n)
                kids = [] if w is None else [w]
            for c in kids:
                emit(c, mark, inst.marking, (n,))
        else:
            for c in kids:
                cv = s.marked(c)
                if cv is None:
                    continue
                up, independent = GENERALIZATION[node.kind, cv]
                term = tree.nodes[c].fill_term
                if not independent or (isinstance(term, Var) and s.is_independent(term.name, c)):
                    emit(n, cv, up, (c,))
                    break
    mark = s.marked(n)
    if mark is not None:
        k = s.key(n)
        rule = "IA" if mark == 1 else "IR"
        for other in s.tree.classes.get(k, ()):
            if other != n:
                emit(other, mark, rule, (n,))
    return out


def test_forcing_table_matches_the_generic_rule_loop(monkeypatch):
    original = marking.MarkingState.forced_for_anchor
    fired = Counter()

    def checked(s, n):
        out = original(s, n)
        assert out == generic_forced_for_anchor(s, n), n
        fired[s.tree.nodes[n].kind] += len(out)
        return out

    monkeypatch.setattr(marking.MarkingState, "forced_for_anchor", checked)
    for f in differential_formulas():
        decide(f)
    assert all(fired[kind] for kind in ("and", "or", "imp", "iff", "not", "forall", "exists", "atom")), fired


def obligations(s):
    """Each relevant quantifier's witness, then the marked quantifiers obliged
    to a fresh witness and those obliged to an instance per individual."""
    witness, instance, _ = s.classify_quantifiers()
    return {q: s.witness_child(q) for q in s.relevant_quantifiers()}, witness, instance


def test_rollback_restores_the_witnesses_and_obligations():
    s = state_for("exists x. P(x) | forall y. Q(y)")
    q1, q2 = s.tree.nodes[s.tree.root].children
    s.set_mark(q1, 1, "OA")
    w1 = s.instantiate(q1, Const(s.fresh_witness()), "IA∃")
    s.set_mark(w1, 1, "A∃", (q1,))
    before = obligations(s)
    assert before == ({q1: w1, q2: None}, [q1], [])
    cp = s.checkpoint()
    w2 = s.instantiate(q1, Const(s.fresh_witness()), "IA∃")
    # a second witness leaves the first one named
    assert s.witness_child(q1) == w1
    s.set_mark(w2, 0, "m")
    s.set_mark(q2, 0, "OR")
    w3 = s.instantiate(q2, Const(s.fresh_witness()), "IR∀")
    s.set_mark(w3, 0, "R∀", (q2,))
    assert obligations(s) == ({q1: w1, q2: w3}, [q1, q2], [])
    s.rollback(cp)
    assert obligations(s) == before
    assert marking.capped_obligations(s, 1) == []
    # a rollback that removes a mark and no node leaves the tree version and
    # the trace length as they were, and the obligations still follow it
    cp = s.checkpoint()
    s.set_mark(q2, 0, "OR")
    assert obligations(s) == ({q1: w1, q2: None}, [q1, q2], [])
    assert marking.capped_obligations(s, 1) == [q2]
    s.rollback(cp)
    assert obligations(s) == before
    assert marking.capped_obligations(s, 1) == []


def test_a_witness_copied_into_a_clone_is_no_witness_of_the_copy():
    s = state_for("forall x. (P(x) & exists y. P(y))")
    q = s.tree.root
    e = s.tree.nodes[s.tree.nodes[q].children[0]].children[1]
    s.set_mark(e, 1, "OA")
    w = s.instantiate(e, Const(s.fresh_witness()), "IA∃")
    clone = s.instantiate(q, Const("c"), "I∀")
    # the clone copies e's witness branch, which no rule made in the clone
    e_copy = s.tree.nodes[clone].children[1]
    copied = s.tree.nodes[e_copy].children[1]
    assert s.tree.nodes[copied].fill_term == Const("w1") and s.witness_registry["w1"] == w
    assert s.witness_child(e_copy) is None
    assert s.witness_child(e) == w
    # so A∃ may conclude on the witness branch but not on its copy
    s.set_mark(w, 1, "A∃", (e,))
    s.set_mark(e_copy, 1, "OA")
    with pytest.raises(PremiseError, match="fresh-witness branch only"):
        s.set_mark(copied, 1, "A∃", (e_copy,))


def test_a_witness_rule_rejects_a_branch_a_permission_made():
    s = state_for("forall x. P(x) | Q(b)")
    q = s.tree.nodes[s.tree.root].children[0]
    s.set_mark(q, 0, "OR")
    c = s.instantiate(q, Const("b"), "I∀")
    assert s.witness_child(q) is None
    with pytest.raises(PremiseError, match="fresh-witness branch only"):
        s.set_mark(c, 0, "R∀", (q,))


def test_only_an_instance_of_the_quantifiers_value_settles_a_capped_obligation():
    s = state_for("exists x. P(x) | Q(a)")
    q = s.tree.nodes[s.tree.root].children[0]
    s.set_mark(q, 1, "OA")
    c = s.instantiate(q, Const("a"), "I∃")
    s.set_mark(c, 0, "m")
    assert marking.capped_obligations(s, 1) == [q]
    s.set_mark(s.instantiate(q, s.introduce_generic(), "I∃"), 1, "m")
    assert marking.capped_obligations(s, 1) == []
    # the obligation stands, with no witness: the instance settles it
    assert obligations(s) == ({q: None}, [q], [])


def assert_dirty_covers(s):
    """The agenda's invariant: a node that relevant() visits and that is not
    on the agenda concludes nothing. A node it skips, in a template subtree
    whose quantifier has an instance, may be dropped from the agenda."""
    assert s.dm is None
    for nid in s.relevant():
        if s.forced_for_anchor(nid):
            assert nid in s._agenda, nid


def test_a_fresh_marking_dirties_nothing():
    for f in differential_formulas():
        s = MarkingState(build_initial_tree(f))
        assert not s._agenda, format_formula(f)
        assert_dirty_covers(s)
        # the first sweep starts from what the RR mark dirties: at most the
        # root, which a rejected conjunction or a lone atom, say, leaves clean
        s.open_supposition(s.tree.root, 0, kind="RR")
        assert s._agenda.keys() <= {s.tree.root}
        assert_dirty_covers(s)


def test_unmarking_dirties_a_marked_class_mate():
    s = state_for("P(a) | (Q(b) & P(a))")
    p1, conj = s.tree.nodes[s.tree.root].children
    p2 = s.tree.nodes[conj].children[1]
    assert s.key(p1) == s.key(p2)
    s.set_mark(p1, 1, "m")
    cp = s.checkpoint()
    s.set_mark(p2, 1, "m")
    assert saturate(s, fragment_budget(s.tree)) is None
    assert p1 not in s._agenda
    s.rollback(cp)
    # p1 can iterate into its unmarked class-mate again
    assert (p2, 1, "IA", (p1,)) in s.forced_for_anchor(p1)
    assert_dirty_covers(s)


def test_a_double_mark_found_mid_visit_leaves_the_anchor_dirty():
    s = state_for("P(a) & Q(b)")
    root = s.tree.root
    left = s.tree.nodes[root].children[0]
    s.set_mark(left, 0, "m")
    s.set_mark(root, 1, "OA")
    cp = s.checkpoint()
    # A∧ concludes left=1 against its standing 0: no mark changes
    assert isinstance(saturate(s, fragment_budget(s.tree)), DoubleMark)
    s.rollback(cp)
    assert root in s._agenda
    assert_dirty_covers(s)
    assert isinstance(saturate(s, fragment_budget(s.tree)), DoubleMark)


def test_instantiation_and_rollback_keep_the_dirty_invariant():
    s = state_for("forall x. (P(x) -> Q(x)) & P(a)")
    q, pa = s.tree.nodes[s.tree.root].children
    s.set_mark(q, 1, "OA")
    assert saturate(s, fragment_budget(s.tree)) is None
    cp = s.checkpoint()
    c = s.instantiate(q, Const("b"), "I∀")
    assert_dirty_covers(s)
    s.set_mark(pa, 1, "m")
    assert_dirty_covers(s)
    assert saturate(s, fragment_budget(s.tree)) is None
    assert_dirty_covers(s)
    s.rollback(cp)
    assert c not in s.tree.nodes and c not in s._agenda
    assert_dirty_covers(s)
    assert saturate(s, fragment_budget(s.tree)) is None
    assert_dirty_covers(s)


def test_closing_a_frame_over_the_generic_variable_dirties_every_anchor():
    s = state_for("forall x. P(x) & forall y. Q(y)")
    q1, q2 = s.tree.nodes[s.tree.root].children
    g = s.introduce_generic()
    c1 = s.instantiate(q1, g, "I∀")
    c2 = s.instantiate(q2, g, "I∀")
    s.set_mark(c1, 1, "m")
    frame = s.open_supposition(c2, 0)
    assert s.tree.node_free_variables(frame.node) == {g.name}
    # the open frame blocks Aa∀ over the generic variable at q1
    assert saturate(s, fragment_budget(s.tree)) is None
    assert s.marked(q1) is None and q1 not in s._agenda
    s.rollback(frame.checkpoint)
    assert s.forced_for_anchor(q1) == [(q1, 1, "Aa∀", (c1,))]
    assert_dirty_covers(s)
    assert saturate(s, fragment_budget(s.tree)) is None
    assert s.marked(q1) == 1


def test_a_pattern_is_live_exactly_when_a_rule_there_concludes_something_new():
    assert set(marking._LIVE) == set(FORCING)
    for kind, table in FORCING.items():
        positions = ("k", "a") if kind == "not" else ("k", "i", "d")
        assert set(table) == set(product((None, 0, 1), repeat=len(positions)))
        for marks in table:
            concluded = {(i, v) for _, _, conclusions in table[marks] for i, v in conclusions}
            new = any(marks[i] != v for i, v in concluded)
            assert (marks in marking._LIVE[kind]) == new, (kind, marks)
            # and the same read from the catalog, rule by rule
            at = dict(zip(positions, marks))
            held = [spec for spec in rules_for(kind) if all(at[pos] == v for pos, v in spec.premises)]
            assert new == any(at[pos] != v for spec in held for pos, v in spec.conclusions), (kind, marks)


def test_the_dirty_set_covers_every_step_of_a_decision(monkeypatch):
    """assert_dirty_covers after every quiescent saturate, every
    instantiation and every rollback of every differential decision, and
    a rollback leaves exactly the dirty set its checkpoint saved."""
    checked = Counter()
    decide_module = sys.modules["semforce.decide"]
    state_cls = marking.MarkingState
    instantiate, rollback = state_cls.instantiate, state_cls.rollback

    def checked_saturate(s, budget):
        out = saturate(s, budget)
        if out is None:
            assert_dirty_covers(s)
            checked["saturate"] += 1
        return out

    def checked_instantiate(s, qnid, term, rule):
        child = instantiate(s, qnid, term, rule)
        if s.dm is None:
            assert_dirty_covers(s)
            checked["instantiate"] += 1
        return child

    def checked_rollback(s, cp):
        rollback(s, cp)
        assert list(s._agenda) == list(cp.agenda)
        if s.dm is None:
            assert_dirty_covers(s)
            checked["rollback"] += 1

    monkeypatch.setattr(decide_module, "saturate", checked_saturate)
    monkeypatch.setattr(state_cls, "instantiate", checked_instantiate)
    monkeypatch.setattr(state_cls, "rollback", checked_rollback)
    for f in differential_formulas():
        decide(f)
        if isinstance(f, (Imp, Or)):
            direct_force(f)
    assert all(checked[k] for k in ("saturate", "instantiate", "rollback")), checked


def test_saturation_visits_no_anchor_that_relevant_skips(monkeypatch):
    # in the first two decisions a ground node of a quantifier's template is
    # pushed (by iteration into it, say) after the quantifier got an
    # instance, so relevant() no longer lists it: saturate must drop it
    # unvisited, as a sweep over relevant() would never reach it
    forced, set_mark = MarkingState.forced_for_anchor, MarkingState.set_mark
    hidden = []

    def checked_forced(s, nid):
        assert nid in s.relevant(), nid
        return forced(s, nid)

    def pushed(s, *args):
        set_mark(s, *args)
        shown = s.relevant()
        hidden.append(any(n not in shown for n in s._agenda))

    monkeypatch.setattr(MarkingState, "forced_for_anchor", checked_forced)
    monkeypatch.setattr(MarkingState, "set_mark", pushed)
    for src in ("G(e) & exists z. (exists p. G(p) & F(z))",
                "exists z. ((G(z) | (F(e) <-> F(z))) -> exists p. F(p))"):
        hidden.clear()
        decide(parse_formula(src))
        assert any(hidden), src
    for f in differential_formulas():
        decide(f)
        if isinstance(f, (Imp, Or)):
            direct_force(f)


def test_rollback_restores_the_dirty_set_of_its_checkpoint():
    s = state_for("forall x. (P(x) -> Q(x)) & (P(a) | Q(b))")
    q, disj = s.tree.nodes[s.tree.root].children
    s.set_mark(q, 1, "OA")
    saved = list(s._agenda)
    cp = s.checkpoint()
    assert list(cp.agenda) == saved
    s.set_mark(disj, 0, "OR")
    s.instantiate(q, Const("a"), "I∀")
    assert saturate(s, fragment_budget(s.tree)) is None
    assert list(s._agenda) != saved
    s.rollback(cp)
    assert list(s._agenda) == saved
    assert_dirty_covers(s)


def test_a_fresh_clone_dirties_its_quantifier_and_marked_classes_only():
    s = state_for("forall x. (P(x) | Q(x)) & (P(a) & Q(b))")
    q, conj = s.tree.nodes[s.tree.root].children
    pa = s.tree.nodes[conj].children[0]
    s.set_mark(pa, 1, "m")
    before = set(s._agenda)
    # no class of the clone of P(b) | Q(b) is marked
    s.instantiate(q, Const("b"), "I∀")
    assert s._agenda.keys() == before | {q}
    assert_dirty_covers(s)
    # the clone of P(a) | Q(a) joins P(a)'s class, whose member is marked
    c = s.instantiate(q, Const("a"), "I∀")
    p_clone = s.tree.nodes[c].children[0]
    assert s.key(p_clone) == s.key(pa)
    assert s._agenda.keys() == before | {q, pa, p_clone}
    assert (p_clone, 1, "IA", (pa,)) in s.forced_for_anchor(pa)
    assert_dirty_covers(s)


def test_discharge_rule_messages_name_the_connective():
    s = state_for("(P(a) -> Q(a)) & (P(a) | Q(a))")
    imp, disj = s.tree.nodes[s.tree.root].children
    with pytest.raises(PremiseError, match="acceptance of the conditional"):
        s.set_mark(disj, 1, "OAi-Ad→")
    with pytest.raises(PremiseError, match="acceptance of the disjunction"):
        s.set_mark(imp, 1, "ORd-Ai∨")
    with pytest.raises(PremiseError, match="acceptance of the disjunction"):
        s.set_mark(disj, 0, "ORi-Ad∨")


# ------------------------------------------------------------ formula classes


def assert_classes_match_alpha_normalization(s, terms):
    """The composed classes against the formula walks they replace: the
    ground flag against is_ground, class equality against alpha_normalize,
    and instance_class against the classes of the nodes carrying the
    instance's formula. Returns how many instance_class calls named the class
    of a node."""
    t = s.tree
    classes_of_form, forms_of_class = {}, {}
    for n in t.nodes:
        f = t.node_formula(n)
        assert t.nodes[n].ground == is_ground(f), format_formula(f)
        if t.nodes[n].ground:
            norm = alpha_normalize(f)
            classes_of_form.setdefault(norm, set()).add(s.key(n))
            forms_of_class.setdefault(s.key(n), set()).add(norm)
        else:
            assert s.key(n) is None
    # key(a) == key(b) exactly when the normalized formulas are equal
    assert all(len(v) == 1 for v in classes_of_form.values())
    assert all(len(v) == 1 for v in forms_of_class.values())
    named = 0
    for q in t.nodes:
        if t.nodes[q].is_quantifier:
            for term in terms:
                got = t.instance_class(q, term)
                f = t.instance_formula(q, term)
                assert (got is None) == (not is_ground(f)), (q, term)
                if got is None:
                    continue
                # the class of every node carrying f, and of no other node
                carried = classes_of_form.get(alpha_normalize(f))
                if carried is None:
                    assert got not in forms_of_class, (q, term)
                else:
                    assert carried == {got}, (q, term)
                    named += 1
    return named


def test_formula_classes_match_alpha_normalization_after_decide():
    # deciding first leaves instances, witnesses and the generic variable in
    # the trees, and instance_class's fills memoized
    named = 0
    for f in differential_formulas():
        s = decide(f).state
        named += assert_classes_match_alpha_normalization(s, s.domain_registry)
    assert named


NESTED = [
    "forall x. exists y. (R(x,y) & forall x. (R(y,x) | P(x)))",
    "forall x. (P(x) & exists y. (R(x,y) -> forall z. R(z,x)))",
    "exists x. forall y. forall z. (R(x,z) <-> ~R(z,y))",
]


@pytest.mark.parametrize("src", list(ILLUSTRATIONS.values()) + NESTED)
def test_formula_classes_match_alpha_normalization_under_any_instantiation(src):
    # unlike a search, this instantiates quantifiers that are not ground;
    # innermost first, so that a clone of an outer template copies instance
    # branches that reach binders above their own quantifier
    t = build_initial_tree(parse_formula(src))
    terms = [Const("a"), Const("w1"), Var("v1")]
    quantifiers = [n for n in t.nodes if t.nodes[n].is_quantifier]
    for _ in range(2):
        for q in reversed(quantifiers):
            for term in terms:
                t.instantiate(q, term)
        quantifiers = [n for n in t.nodes if t.nodes[n].is_quantifier and n not in quantifiers]
    assert assert_classes_match_alpha_normalization(MarkingState(t), terms)
