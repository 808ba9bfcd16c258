"""Forcing-tree construction, instantiation, and the profundity measure."""

import pytest

from semforce import (
    Const,
    FreeVariableError,
    Var,
    build_initial_tree,
    complexity,
    init_marking,
    instantiate_branch,
    node_formula,
    parse_formula,
    profundity,
)

from conftest import ILLUSTRATIONS, random_formula


def test_one_node_per_occurrence():
    t = build_initial_tree(parse_formula("P(a) & P(a)"))
    root = t.nodes[t.root]
    assert root.kind == "and"
    left, right = root.children
    assert left != right
    assert node_formula(t, left) == node_formula(t, right)


def test_free_formula_rejected():
    from semforce.formulas import Atom
    with pytest.raises(FreeVariableError):
        build_initial_tree(Atom("P", (Var("x"),)))


def test_quantifier_has_template_child():
    t = build_initial_tree(parse_formula("forall x. P(x)"))
    q = t.nodes[t.root]
    assert q.kind == "forall" and len(q.children) == 1
    template = t.nodes[q.children[0]]
    assert template.is_template
    assert not t.is_ground_node(template.nid)


def test_instantiate_adds_ground_branch():
    t = build_initial_tree(parse_formula("forall x. P(x)"))
    child = instantiate_branch(t, t.root, Const("c"))
    assert t.is_ground_node(child)
    assert node_formula(t, child) == parse_formula("P(c)")
    # the template branch is untouched
    template = t.nodes[t.root].children[0]
    assert not t.is_ground_node(template)
    assert t.instance_terms(t.root) == [Const("c")]


def test_nested_instantiation():
    t = build_initial_tree(parse_formula("forall x. exists y. R(x,y)"))
    c1 = instantiate_branch(t, t.root, Const("a"))
    assert node_formula(t, c1) == parse_formula("exists y. R(a,y)")
    c2 = instantiate_branch(t, c1, Const("b"))
    assert node_formula(t, c2) == parse_formula("R(a,b)")


def test_quantifier_formula_uses_bound_variable():
    t = build_initial_tree(parse_formula(ILLUSTRATIONS[6]))
    assert node_formula(t, t.root) == parse_formula(ILLUSTRATIONS[6])


def test_profundity_matches_complexity(rng):
    for _ in range(10000):
        f = random_formula(rng, rng.randint(0, 7))
        t = build_initial_tree(f)
        assert profundity(t, t.root) == complexity(f)


def test_profundity_of_atoms_is_zero():
    t = build_initial_tree(parse_formula("P(a) -> Q(b)"))
    for c in t.nodes[t.root].children:
        assert profundity(t, c) == 0


def test_instance_shares_quantifier_shape():
    t = build_initial_tree(parse_formula("forall x. (P(x) & Q(c))"))
    child = instantiate_branch(t, t.root, Const("d"))
    # the constant subformula inside the instance is the same ground formula
    # as in the template
    template = t.nodes[t.root].children[0]
    t_q = t.nodes[template].children[1]
    i_q = t.nodes[child].children[1]
    assert node_formula(t, t_q) == node_formula(t, i_q) == parse_formula("Q(c)")


def test_clone_keeps_an_instance_branch_inside_the_template():
    t = build_initial_tree(parse_formula("forall x. (P(x) & exists y. Q(y))"))
    template = t.nodes[t.root].children[0]
    inner = t.nodes[template].children[1]
    inner_instance = instantiate_branch(t, inner, Const("c"))
    assert node_formula(t, inner_instance) == parse_formula("Q(c)")
    clone = instantiate_branch(t, t.root, Const("a"))
    assert node_formula(t, clone) == parse_formula("P(a) & exists y. Q(y)")
    cloned_inner = t.nodes[clone].children[1]
    assert t.nodes[cloned_inner].qid == t.nodes[inner].qid
    # the copied quantifier keeps its template and its instance branch
    cloned_template, cloned_instance = t.nodes[cloned_inner].children
    assert t.nodes[cloned_template].is_template and not t.is_ground_node(cloned_template)
    assert t.instance_terms(cloned_inner) == [Const("c")]
    assert not t.nodes[cloned_instance].is_template
    assert node_formula(t, cloned_inner) == parse_formula("exists y. Q(y)")
    assert node_formula(t, cloned_instance) == parse_formula("Q(c)")
    assert node_formula(t, t.root) == parse_formula("forall x. (P(x) & exists y. Q(y))")


@pytest.mark.parametrize("k", sorted(ILLUSTRATIONS))
def test_instance_formula_is_the_formula_of_the_instance_branch(k):
    f = parse_formula(ILLUSTRATIONS[k])
    t = build_initial_tree(f)
    registry = init_marking(t).domain_registry + [Const("w1"), Var("v1")]
    quantifiers = [n for n in t.nodes if t.nodes[n].is_quantifier]
    # instantiating in node order copies earlier instance branches into later
    # clones, and the clones' own quantifiers get a second round
    for _ in range(2):
        for q in quantifiers:
            for term in registry:
                expected = t.instance_formula(q, term)
                assert node_formula(t, t.instantiate(q, term)) == expected
        quantifiers = [n for n in t.nodes if t.nodes[n].is_quantifier and n not in quantifiers]
