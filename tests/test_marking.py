"""Marking engine: rule validation, double marks, suppositions, saturation."""

import random
import sys

import pytest

from conftest import ILLUSTRATIONS, random_formula

from semforce import (
    Const,
    DoubleMark,
    Imp,
    Invalid,
    Or,
    PremiseError,
    Quiescent,
    StateError,
    Var,
    build_initial_tree,
    decide,
    direct_force,
    discharge,
    forced_consequences,
    format_formula,
    init_marking,
    marking,
    open_supposition,
    parse_formula,
    saturate,
    set_mark,
)
from semforce.cli import model_json
from semforce.formulas import Atom, Dyadic2Var, alpha_normalize, classify_fragment, is_ground
from semforce.gen import random_monadic


def state_for(src):
    return init_marking(build_initial_tree(parse_formula(src)))


def leaf_marks(s):
    t = s.tree
    out = {}
    for nid in s.marks:
        g = t.node_formula(nid)
        if t.is_ground_node(nid) and isinstance(g, Atom):
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
    assert s.inst_rule[child] == "IR∀"
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
        "consensus": list(s.consensus.items()),
        "index": [(k, list(v)) for k, v in s.formula_index.items()],
        "inst_rule": list(s.inst_rule.items()),
        "witnesses": list(s.witness_registry.items()),
        "registry": list(s.domain_registry),
        "dm": s.dm,
        "generic": s.generic,
        "nodes": list(s.tree.nodes),
        "relevant": list(s.relevant()),
    }


def assert_class_counts(s):
    # the IA/IR fan-out skip relies on these counts
    for k, members in s.formula_index.items():
        assert s._marked_in[k] == sum(s.marked(n) is not None for n in members)


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
    assert_class_counts(s)
    s.set_mark(w2, 0, "m")
    assert s.dm is not None and s.generic is not None
    assert snapshot(s) != snap2

    s.rollback(cp2)
    assert snapshot(s) == snap2
    assert_class_counts(s)
    s.introduce_generic()
    s.set_mark(w1, 1, "m")
    assert s.dm is not None

    s.rollback(cp1)
    assert snapshot(s) == snap1
    assert_class_counts(s)
    with pytest.raises(StateError):
        s.rollback(cp2)


def test_relevant_follows_the_tree_after_a_rollback():
    s = state_for("forall x. P(x) & forall y. Q(y)")
    root = s.tree.root
    q1, q2 = s.tree.nodes[root].children
    t1, t2 = s.tree.nodes[q1].children[0], s.tree.nodes[q2].children[0]
    cp = s.checkpoint()
    a = s.instantiate(q1, Const("c"), "I∀")
    assert s.relevant() == [root, q1, a, q2, t2]
    assert s.relevant("post") == [a, q1, t2, q2, root]
    size = len(s.tree.nodes)
    s.rollback(cp)
    # same node count and same next id, over a different tree
    b = s.instantiate(q2, Const("c"), "I∀")
    assert b == a and len(s.tree.nodes) == size
    assert s.relevant() == [root, q1, t1, q2, b]
    assert s.relevant("post") == [t1, q1, b, q2, root]


# ------------------------------------------------------ suppositions


def test_open_supposition_rejects_marked_nodes():
    s = state_for("P(a)")
    s.set_mark(s.tree.root, 1, "m")
    with pytest.raises(StateError):
        open_supposition(s, s.tree.root, 0)


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
    frame = open_supposition(s, s.tree.root, 1)
    out = saturate(s)
    assert isinstance(out, DoubleMark)
    rule = discharge(s, frame, "contradiction")
    assert rule == "OA-DM"
    assert s.marked(s.tree.root) == 0
    assert not s.scopes
    last = s.trace[-1]
    assert last.rule == "OA-DM" and len(last.premises) == 2


def test_contradiction_discharge_requires_a_double_mark():
    s = state_for("P(a)")
    frame = open_supposition(s, s.tree.root, 1)
    with pytest.raises(StateError, match="no double mark"):
        discharge(s, frame, "contradiction")


def test_exhaustion_discharge_needs_no_double_mark():
    s = state_for("P(a)")
    frame = open_supposition(s, s.tree.root, 1)
    rule = discharge(s, frame, "exhausted")
    assert rule == "OA-DM"
    assert s.marked(s.tree.root) == 0
    assert len(s.trace[-1].premises) == 1


def test_goal_discharge_accepts_the_conditional():
    s = state_for("P(a) -> P(a)")
    left, right = s.tree.nodes[s.tree.root].children
    frame = open_supposition(s, left, 1)
    saturate(s)
    assert s.marked(right) == 1  # iterated from the supposed antecedent
    rule = discharge(s, frame, (right, 1))
    assert rule == "OAi-Ad→"
    assert s.marked(s.tree.root) == 1
    assert s.marked(left) is None  # the supposition itself was rolled back
    assert s.trace[-1].rule == "OAi-Ad→"


def test_goal_discharge_requires_the_goal_to_be_derived():
    s = state_for("P(a) -> Q(b)")
    left, right = s.tree.nodes[s.tree.root].children
    frame = open_supposition(s, left, 1)
    with pytest.raises(StateError, match="not derived"):
        discharge(s, frame, (right, 1))


def test_only_the_innermost_frame_can_be_discharged():
    s = state_for("P(a) & Q(b)")
    left, right = s.tree.nodes[s.tree.root].children
    outer = open_supposition(s, left, 1)
    open_supposition(s, right, 1)
    with pytest.raises(StateError, match="innermost"):
        discharge(s, outer, "exhausted")


def test_commit_frames_clears_open_scopes():
    s = state_for("P(a)")
    open_supposition(s, s.tree.root, 1)
    s.commit_frames()
    assert not s.scopes
    assert s.marked(s.tree.root) == 1


# ---------------------------------------------------------------- saturation


def test_forced_consequences_for_an_accepted_conjunction():
    s = state_for("P(a) & Q(b)")
    root = s.tree.root
    left, right = s.tree.nodes[root].children
    s.set_mark(root, 1, "OA")
    got = {(n, v, j.rule) for n, v, j in forced_consequences(s, root)}
    assert (left, 1, "A∧") in got and (right, 1, "A∧") in got


def test_saturation_is_deterministic_across_sweep_orders():
    s1 = state_for(ILLUSTRATIONS[1])
    s2 = state_for(ILLUSTRATIONS[1])
    for s, order in ((s1, "pre"), (s2, "post")):
        s.open_supposition(s.tree.root, 0, kind="RR")
        assert isinstance(saturate(s, order=order), Quiescent)
    assert leaf_marks(s1) == leaf_marks(s2)


def test_saturation_refutes_the_second_worked_formula():
    s = state_for(ILLUSTRATIONS[2])
    s.open_supposition(s.tree.root, 0, kind="RR")
    out = saturate(s)
    assert isinstance(out, DoubleMark)
    assert s.key(out.n1) == s.key(out.n2)


def test_saturation_leaves_of_the_first_worked_formula():
    s = state_for(ILLUSTRATIONS[1])
    s.open_supposition(s.tree.root, 0, kind="RR")
    assert isinstance(saturate(s), Quiescent)
    assert leaf_marks(s) == {
        "P(w1)": 1,
        "R(w1,w1)": 1,
        "R(w1,w2)": 1,
        "R(w2,w1)": 0,
        "R(w2,w2)": 0,
    }
    assert not s.unmarked_relevant_ground()


def test_set_mark_helper_returns_the_state():
    s = state_for("P(a)")
    assert set_mark(s, s.tree.root, 1, "m") is s


# ------------------------------------------------------------- dirty anchors


def full_sweep_saturate(s, budget=None, order="pre"):
    """saturate as a sweep over every relevant node, with no dirty set: the
    reference the dirty-anchor sweep must match firing for firing."""
    if s.dm is not None:
        return s.dm
    while True:
        changed = False
        while True:
            swept = False
            for nid in s.relevant(order):
                for t, v, rule, prem in s.forced_for_anchor(nid):
                    s.set_mark(t, v, rule, prem)
                    swept = True
                    if s.dm is not None:
                        return s.dm
            if not swept:
                break
            changed = True
        if marking._expand_obligations(s, budget):
            changed = True
        if s.dm is not None:
            return s.dm
        if marking._remote_instances(s):
            changed = True
        if s.dm is not None:
            return s.dm
        if not changed:
            return Quiescent()


def behaviour(f):
    """Everything a decision shows: verdict, trace, countermodel, bound, tree
    size, and the direct-mode trace of a conditional or disjunction."""
    v = decide(f)
    out = [
        type(v).__name__,
        [(t.step, t.node, t.value, t.rule, t.premises, t.absorbed) for t in v.state.trace],
        model_json(v.model) if isinstance(v, Invalid) else getattr(v, "bound", None),
        len(v.state.tree.nodes),
    ]
    if isinstance(f, (Imp, Or)):
        d = direct_force(f)
        out.append(None if d is None else [(t.step, t.rule, t.premises) for t in d.trace])
    return out


def differential_formulas():
    out = [parse_formula(src) for src in ILLUSTRATIONS.values()]
    rng = random.Random(424242)
    out += [random_monadic(rng, preds=("P", "Q"), max_complexity=6) for _ in range(150)]
    rng = random.Random(7)
    dyadic = []
    while len(dyadic) < 40:
        f = random_formula(rng, rng.randint(2, 6))
        if isinstance(classify_fragment(f), Dyadic2Var):
            dyadic.append(f)
    return out + dyadic


def test_dirty_anchor_saturation_matches_a_full_sweep(monkeypatch):
    formulas = differential_formulas()
    quiet = []

    def checked(s, budget=None, order="pre"):
        out = saturate(s, budget, order)
        if isinstance(out, Quiescent):
            quiet.append(all(not s.forced_for_anchor(n) for n in s.relevant(order)))
        return out

    # the package attribute `decide` is the function; the module binds saturate
    decide_module = sys.modules["semforce.decide"]
    monkeypatch.setattr(decide_module, "saturate", checked)
    engine = [behaviour(f) for f in formulas]
    assert quiet and all(quiet)
    monkeypatch.setattr(decide_module, "saturate", full_sweep_saturate)
    reference = [behaviour(f) for f in formulas]
    for f, got, want in zip(formulas, engine, reference):
        assert got == want, format_formula(f)


def assert_dirty_covers(s):
    """The dirty-anchor invariant: a node that is not dirty concludes nothing."""
    assert s.dm is None
    for nid in s.tree.nodes:
        if s.forced_for_anchor(nid):
            assert nid in s._dirty, nid


def test_unmarking_dirties_a_marked_class_mate():
    s = state_for("P(a) | (Q(b) & P(a))")
    p1, conj = s.tree.nodes[s.tree.root].children
    p2 = s.tree.nodes[conj].children[1]
    assert s.key(p1) == s.key(p2)
    s.set_mark(p1, 1, "m")
    cp = s.checkpoint()
    s.set_mark(p2, 1, "m")
    assert isinstance(saturate(s), Quiescent)
    assert p1 not in s._dirty
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
    assert isinstance(saturate(s), DoubleMark)
    s.rollback(cp)
    assert root in s._dirty
    assert_dirty_covers(s)
    assert isinstance(saturate(s), DoubleMark)


def test_instantiation_and_rollback_keep_the_dirty_invariant():
    s = state_for("forall x. (P(x) -> Q(x)) & P(a)")
    q, pa = s.tree.nodes[s.tree.root].children
    s.set_mark(q, 1, "OA")
    assert isinstance(saturate(s), Quiescent)
    cp = s.checkpoint()
    c = s.instantiate(q, Const("b"), "I∀")
    assert_dirty_covers(s)
    s.set_mark(pa, 1, "m")
    assert_dirty_covers(s)
    assert isinstance(saturate(s), Quiescent)
    assert_dirty_covers(s)
    s.rollback(cp)
    assert c not in s.tree.nodes and c not in s._dirty
    assert_dirty_covers(s)
    assert isinstance(saturate(s), Quiescent)
    assert_dirty_covers(s)


def test_closing_a_frame_over_the_generic_variable_dirties_every_anchor():
    s = state_for("forall x. P(x) & forall y. Q(y)")
    q1, q2 = s.tree.nodes[s.tree.root].children
    g = s.introduce_generic()
    c1 = s.instantiate(q1, g, "I∀")
    c2 = s.instantiate(q2, g, "I∀")
    s.set_mark(c1, 1, "m")
    frame = s.open_supposition(c2, 0)
    assert frame.free_vars == {g.name}
    # the open frame blocks Aa∀ over the generic variable at q1
    assert isinstance(saturate(s), Quiescent)
    assert s.marked(q1) is None and q1 not in s._dirty
    s.rollback(frame.checkpoint)
    assert s.forced_for_anchor(q1) == [(q1, 1, "Aa∀", (c1,))]
    assert_dirty_covers(s)
    assert isinstance(saturate(s), Quiescent)
    assert s.marked(q1) == 1


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
    and instance_key against class_of. Returns how many instance_key calls
    named a class."""
    t = s.tree
    classes_of_form, forms_of_class = {}, {}
    for n in t.nodes:
        f = t.node_formula(n)
        assert t.is_ground_node(n) == is_ground(f), format_formula(f)
        if t.is_ground_node(n):
            norm = alpha_normalize(f)
            classes_of_form.setdefault(norm, set()).add(s.key(n))
            forms_of_class.setdefault(s.key(n), set()).add(norm)
            assert s.class_of(f) == s.key(n)
        else:
            assert s.key(n) is None
    # key(a) == key(b) exactly when the normalized formulas are equal
    assert all(len(v) == 1 for v in classes_of_form.values())
    assert all(len(v) == 1 for v in forms_of_class.values())
    named = 0
    for q in t.nodes:
        if t.nodes[q].is_quantifier:
            for term in terms:
                got = s.instance_key(q, term)
                assert got == s.class_of(alpha_normalize(t.instance_formula(q, term))), (q, term)
                named += got is not None
    return named


def test_formula_classes_match_alpha_normalization_after_decide():
    # deciding first leaves instances, witnesses and the generic variable in
    # the trees, and instance_key's memo filled
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
    assert assert_classes_match_alpha_normalization(init_marking(t), terms)
