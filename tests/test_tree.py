"""Forcing-tree construction, instantiation, the facts the build gathers
about the source, and the per-shape free variables."""

import functools
import operator
import random
import sys

import pytest

from semforce import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    FreeVariableError,
    Imp,
    Invalid,
    MarkingState,
    Not,
    Or,
    Var,
    build_initial_tree,
    complexity,
    decide,
    direct_force,
    parse_formula,
    render_ascii,
    saturate,
)
from semforce.formulas import (
    format_formula,
    Slot,
    predicate_arities,
    _postorder,
)
from semforce.rules import PERMISSION
from semforce.tree import ForcingTree

from conftest import (
    ILLUSTRATIONS, constants_of, differential_formulas, drop_vacuous, free_variables, identifiers_of, is_ground,
    random_formula, within_a_shallow_stack,
)


def test_one_node_per_occurrence():
    t = build_initial_tree(parse_formula("P(a) & P(a)"))
    root = t.nodes[t.root]
    assert root.kind == "and"
    left, right = root.children
    assert left != right
    assert t.node_formula(left) == t.node_formula(right)


def test_free_formula_rejected():
    with pytest.raises(FreeVariableError):
        build_initial_tree(Atom("P", (Var("x"),)))


def test_quantifier_has_template_child():
    t = build_initial_tree(parse_formula("forall x. P(x)"))
    q = t.nodes[t.root]
    assert q.kind == "forall" and len(q.children) == 1
    template = t.nodes[q.children[0]]
    assert template.fill_term is None
    assert not template.ground


def test_a_template_decodes_its_open_positions_as_anonymous_placeholders():
    t = build_initial_tree(parse_formula("forall x. forall y. R(x,y)"))
    inner = t.nodes[t.root].children[0]
    atom = t.nodes[inner].children[0]
    assert t.node_formula(atom) == Atom("R", (Slot(), Slot()))
    # the index one binder past the template reads the term, the other stays open
    assert t.instance_formula(inner, Const("c")) == Atom("R", (Slot(), Const("c")))


def test_instantiate_adds_ground_branch():
    t = build_initial_tree(parse_formula("forall x. P(x)"))
    child = t.instantiate(t.root, Const("c"))
    assert t.nodes[child].ground
    assert t.node_formula(child) == parse_formula("P(c)")
    # the template branch is untouched
    template = t.nodes[t.root].children[0]
    assert not t.nodes[template].ground
    assert t.instance_terms(t.root) == [Const("c")]


def test_nested_instantiation():
    t = build_initial_tree(parse_formula("forall x. exists y. R(x,y)"))
    c1 = t.instantiate(t.root, Const("a"))
    assert t.node_formula(c1) == parse_formula("exists y. R(a,y)")
    c2 = t.instantiate(c1, Const("b"))
    assert t.node_formula(c2) == parse_formula("R(a,b)")


def test_quantifier_formula_uses_bound_variable():
    t = build_initial_tree(parse_formula(ILLUSTRATIONS[6]))
    assert t.node_formula(t.root) == parse_formula(ILLUSTRATIONS[6])


def test_instance_shares_quantifier_shape():
    t = build_initial_tree(parse_formula("forall x. (P(x) & Q(c))"))
    child = t.instantiate(t.root, Const("d"))
    # the constant subformula inside the instance is the same ground formula
    # as in the template
    template = t.nodes[t.root].children[0]
    t_q = t.nodes[template].children[1]
    i_q = t.nodes[child].children[1]
    assert t.node_formula(t_q) == t.node_formula(i_q) == parse_formula("Q(c)")


def test_clone_keeps_an_instance_branch_inside_the_template():
    t = build_initial_tree(parse_formula("forall x. (P(x) & exists y. Q(y))"))
    template = t.nodes[t.root].children[0]
    inner = t.nodes[template].children[1]
    inner_instance = t.instantiate(inner, Const("c"))
    assert t.node_formula(inner_instance) == parse_formula("Q(c)")
    clone = t.instantiate(t.root, Const("a"))
    assert t.node_formula(clone) == parse_formula("P(a) & exists y. Q(y)")
    cloned_inner = t.nodes[clone].children[1]
    # the copied quantifier keeps its template and its instance branch
    cloned_template, cloned_instance = t.nodes[cloned_inner].children
    assert t.nodes[cloned_template].fill_term is None and not t.nodes[cloned_template].ground
    assert t.instance_terms(cloned_inner) == [Const("c")]
    assert t.nodes[cloned_instance].fill_term == Const("c")
    assert t.node_formula(cloned_inner) == parse_formula("exists y. Q(y)")
    assert t.node_formula(cloned_instance) == parse_formula("Q(c)")
    assert t.node_formula(t.root) == parse_formula("forall x. (P(x) & exists y. Q(y))")


def _scanned_classes(t):
    """Formula class -> ground node ids, read by a walk in id order."""
    out = {}
    for nid, node in t.nodes.items():
        if node.ground:
            out.setdefault(node.shape, []).append(nid)
    return out


def _snapshot(t):
    """The classes with their key order, and every node's children."""
    return [(k, list(v)) for k, v in t.classes.items()], {n: list(node.children) for n, node in t.nodes.items()}


def test_truncate_restores_the_classes_in_their_key_order():
    t = build_initial_tree(parse_formula("P(a) & forall x. (P(x) | Q(a))"))
    q = t.nodes[t.root].children[1]
    snaps = {}
    for term in (Const("a"), Const("b")):
        snaps[len(t.nodes) + 1] = _snapshot(t)
        before = set(t.classes)
        child = t.instantiate(q, term)
        assert list(t.classes.items()) == list(_scanned_classes(t).items())
        assert t.classes[t.nodes[child].shape][-1] == child
    # the clone with a joins the class of the initial P(a); the one with b
    # opens new classes, P(b) among them
    p_a, p_b = (t.nodes[t.nodes[c].children[0]].shape for c in t.instance_children(q))
    assert t.classes[p_a][0] == t.nodes[t.root].children[0] and len(t.classes[p_a]) == 2
    assert p_b not in before and len(t.classes[p_b]) == 1
    for next_nid in sorted(snaps, reverse=True):
        t.truncate(next_nid)
        assert len(t.nodes) + 1 == next_nid
        assert _snapshot(t) == snaps[next_nid]


@pytest.mark.parametrize("k", sorted(ILLUSTRATIONS))
def test_instance_formula_is_the_formula_of_the_instance_branch(k):
    f = parse_formula(ILLUSTRATIONS[k])
    t = build_initial_tree(f)
    registry = MarkingState(t).domain_registry + [Const("w1"), Var("v1")]
    quantifiers = [n for n in t.nodes if t.nodes[n].is_quantifier]
    # instantiating in node order copies earlier instance branches into later
    # clones, and the clones' own quantifiers get a second round
    for _ in range(2):
        for q in quantifiers:
            for term in registry:
                expected = t.instance_formula(q, term)
                key = t.instance_class(q, term)
                child = t.instantiate(q, term)
                assert t.node_formula(child) == expected
                # instance_class interns the branch's shape before it exists
                assert key == (t.nodes[child].shape if t.nodes[child].ground else None)
        quantifiers = [n for n in t.nodes if t.nodes[n].is_quantifier and n not in quantifiers]


def _composed_facts(t):
    """Every shape's mask and free variable names, composed from its key
    alone, in id order: an atom's from its arguments, a quantifier's from its
    template's (index 0 is its own binder, and each other index is one lower
    above it), a connective's as the union of masks and of names of its
    children."""
    mask, free = [], []
    for key in t._shape_keys:
        kind, *rest = key
        if kind == "atom":
            mask.append(sum({1 << a for a in rest[1] if type(a) is int}))
            free.append(frozenset(a.name for a in rest[1] if type(a) is Var))
        elif kind in ("forall", "exists"):
            mask.append(mask[rest[0]] >> 1)
            free.append(free[rest[0]])
        else:
            mask.append(functools.reduce(operator.or_, (mask[c] for c in rest)))
            free.append(frozenset().union(*(free[c] for c in rest)))
    return mask, free


def _assert_interned_facts(t):
    mask, free = _composed_facts(t)
    assert t._mask == mask and t._free == free
    assert all(t._shape_ids[key] == sid for sid, key in enumerate(t._shape_keys))
    assert len(t._shape_ids) == len(t._shape_keys)
    expected = {}
    for nid, node in t.nodes.items():
        assert node.ground == (mask[node.shape] == 0), nid
        if node.ground:
            expected.setdefault(node.shape, []).append(nid)
    assert list(t.classes.items()) == list(expected.items())


def test_interned_shapes_carry_the_facts_composed_from_their_keys():
    # seeded monadic and two-variable formulas, and the large-formula ladder
    for f in differential_formulas() + _ladder():
        t = build_initial_tree(f)
        _assert_interned_facts(t)
        # instances in node order, each quantifier over the constants, a
        # witness and a generic variable; clones' quantifiers get a second round
        terms = [Const(c) for c in list(t.constants)[:2]] + [Const("w1"), Var("v1")]
        quantifiers = [n for n in t.nodes if t.nodes[n].is_quantifier]
        for _ in range(2):
            for q in quantifiers[:6]:
                for term in terms:
                    t.instantiate(q, term)
            _assert_interned_facts(t)
            quantifiers = [n for n in t.nodes if t.nodes[n].is_quantifier and n not in quantifiers]


def _postorder_labels(f):
    """f's connectives, variables and atoms in postorder: equal lists mean
    equal formulas, compared without calling the formula classes' __eq__."""
    return [(type(g), getattr(g, "var", None), getattr(g, "pred", None), getattr(g, "args", None))
            for g in _postorder(f)]


def test_decoding_a_deep_formula_does_not_recurse():
    negated = parse_formula("~" * 600 + "P(a)")
    t = build_initial_tree(negated)
    assert _postorder_labels(within_a_shallow_stack(lambda: t.node_formula(t.root))) == _postorder_labels(negated)
    # 300 binders, each of whose variable its own atom uses
    px = Atom("P", (Var("x"),))
    nested = _nest(px, lambda g: Forall("x", Or(px, g)), 300)
    t = build_initial_tree(nested)
    assert _postorder_labels(within_a_shallow_stack(lambda: t.node_formula(t.root))) == _postorder_labels(nested)
    # the root's template filled with c: c fills the first atom, and the
    # 299 quantifiers below it bind their own x
    got = within_a_shallow_stack(lambda: t.instance_formula(t.root, Const("c")))
    assert _postorder_labels(got) == _postorder_labels(Or(Atom("P", (Const("c"),)), nested.body.right))


def test_filling_a_deep_shape_does_not_recurse():
    t = build_initial_tree(parse_formula("forall x. " + "~" * 600 + "P(x)"))
    key = within_a_shallow_stack(lambda: t.instance_class(t.root, Const("c")))
    child = within_a_shallow_stack(lambda: t.instantiate(t.root, Const("c")))
    # the clone's one walk gets the shape instance_class predicted, and each
    # of its 601 nodes is ground and alone in its class
    assert t.nodes[child].shape == key and len(t) == 2 * 602 - 1
    for nid in range(child, child + 601):
        assert t.nodes[nid].ground and t.classes[t.nodes[nid].shape] == [nid]
    assert t._shape_keys[t.nodes[child + 600].shape] == ("atom", "P", (Const("c"),))


def _nest(leaf, wrap, depth):
    """leaf wrapped depth times by wrap, built without recursion."""
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


def _deep_formulas(binders):
    """Deep formulas whose binders the build keeps, or leaves out, with the
    node count of each tree."""
    if binders == "kept":
        px = Atom("P", (Var("x"),))
        # 3000 negations, and 3000 binders whose variable each names
        return [(_nest(Atom("P", (Const("a"),)), Not, 3000), 3001),
                (_nest(px, lambda g: Forall("x", Or(px, g)), 3000), 9001)]
    # a run of vacuous binders over a ground body, and one below a binder
    # that stays over a body naming it
    return [(_nest(Atom("P", (Const("c"),)), lambda g: Exists("x", g), 3000), 1),
            (Forall("y", _nest(Atom("P", (Var("y"),)), lambda g: Exists("x", g), 3000)), 2)]


@pytest.mark.parametrize("binders", ["kept", "dropped"])
def test_building_a_deep_formula_does_not_recurse(binders):
    for f, size in _deep_formulas(binders):
        t = within_a_shallow_stack(lambda: build_initial_tree(f))
        assert len(t) == size
        g = drop_vacuous(f)
        assert (g is f) is (binders == "kept")
        assert t.node_formula(t.root) == g
        assert _tree_facts(t) == _tree_facts(build_initial_tree(g))


def test_instantiating_a_deep_template_does_not_recurse():
    t = within_a_shallow_stack(lambda: build_initial_tree(Forall("x", _nest(Atom("P", (Var("x"),)), Not, 2000))))
    child = within_a_shallow_stack(lambda: t.instantiate(t.root, Const("c")))
    # the root's last child, so the tail of the preorder: one contiguous range of ids
    assert list(t.preorder())[-2001:] == list(range(child, child + 2001)) and len(t) == child + 2000
    assert t.node_formula(child) == _nest(Atom("P", (Const("c"),)), Not, 2000)
    assert t.nodes[child].ground and t.classes[t.nodes[child].shape] == [child]


def test_the_formula_walks_and_the_renderer_do_not_recurse():
    atom = Atom("P", (Const("a"),))
    negated = _nest(atom, Not, 2000)
    # a left-nested conditional parenthesizes every operand but the last
    left = _nest(atom, lambda g: Imp(g, atom), 2000)
    text = "P(a) -> P(a)"
    for _ in range(1999):
        text = f"({text}) -> P(a)"
    assert within_a_shallow_stack(lambda: format_formula(negated)) == "~" * 2000 + "P(a)"
    assert within_a_shallow_stack(lambda: format_formula(left)) == text
    assert within_a_shallow_stack(lambda: complexity(negated)) == within_a_shallow_stack(lambda: complexity(left)) == 2000
    assert within_a_shallow_stack(lambda: is_ground(left))
    assert not within_a_shallow_stack(lambda: is_ground(_nest(Atom("P", (Slot(),)), Not, 2000)))
    lines = within_a_shallow_stack(lambda: render_ascii(MarkingState(build_initial_tree(negated)))).splitlines()
    assert len(lines) == 2001
    assert lines[0] == "~ [?]" and lines[-1] == "  " * 2000 + "P(a) [?]"


def test_a_vacuous_binder_shared_by_both_sides_is_dropped_from_each():
    # one Exists object under both operands, vacuous, beside a shared one that binds
    vacuous = Exists("x", Atom("P", (Var("y"),)))
    binding = Exists("x", Atom("R", (Var("x"), Var("y"))))
    f = Forall("y", And(Or(vacuous, binding), Imp(binding, Not(vacuous))))
    t = build_initial_tree(f)
    assert _tree_facts(t) == _tree_facts(build_initial_tree(drop_vacuous(f)))
    # one node per occurrence of a subformula but the vacuous one's two binders
    assert len(t) == len(list(_postorder(f))) - 2


# ------------------------------------------- facts gathered by the build


def _ladder():
    """Implication chains, one with a reversed link, and deep nesting."""
    out = []
    for n in (20, 100):
        links = " & ".join(f"(P(c{i}) -> P(c{i + 1}))" for i in range(n))
        out.append(parse_formula(f"({links}) -> P(c0) -> P(c{n})"))
        links = links.replace(f"(P(c{n // 2}) -> P(c{n // 2 + 1}))", f"(P(c{n // 2 + 1}) -> P(c{n // 2}))")
        out.append(parse_formula(f"({links}) -> P(c0) -> P(c{n})"))
    out.append(parse_formula("~" * 600 + "P(a)"))
    out.append(parse_formula("(" * 150 + "P(a)" + ")" * 150))
    return out


def _assert_facts_match_the_walkers(t, f):
    assert list(t.constants) == constants_of(f)
    assert t.arities == predicate_arities(f)
    # the build leaves the vacuous binders out, and their names with them
    assert t.identifiers == identifiers_of(drop_vacuous(f))
    assert t.node_free_variables(t.root) == free_variables(f)


def test_the_build_gathers_what_the_source_walkers_find():
    for f in differential_formulas() + _ladder():
        _assert_facts_match_the_walkers(build_initial_tree(f), f)


def test_the_build_gathers_the_free_variables_of_an_open_formula():
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, rng.randint(0, 6), bound=("x", "y"))
        _assert_facts_match_the_walkers(ForcingTree(f), f)


def test_the_build_rejects_a_predicate_with_two_arities_as_the_walker_does():
    clash = And(Atom("P", (Const("a"),)), Forall("x", Atom("P", (Var("x"), Const("a")))))
    with pytest.raises(FreeVariableError) as walked:
        predicate_arities(clash)
    with pytest.raises(FreeVariableError) as built:
        build_initial_tree(clash)
    assert str(built.value) == str(walked.value)


def _tree_facts(t):
    """What a decision reads of a tree, in order: per node its id, parent,
    children, kind, binder name, shape, groundness and fill, then the root,
    the classes, constants, arities and identifiers."""
    nodes = [(n, x.parent, x.children, x.kind, x.var, x.shape, x.ground, x.fill_term) for n, x in t.nodes.items()]
    return nodes, t.root, list(t.classes.items()), list(t.constants), list(t.arities.items()), t.identifiers


class _Built(Exception):
    """Raised by the build stub below with the facts of decide's tree, so
    that the test stops decide before its search."""


_VACUOUS = [
    # shadowed by an inner binder, and a body naming only constants
    "exists x. forall x. P(x)",
    "exists x. P(a)",
    "forall x. (P(a) & exists y. Q(b))",
    # under connectives
    "~(exists x. P(a)) -> (forall y. exists z. R(y,y) | Q(c))",
    "(exists x. forall y. P(y)) <-> ~forall x. exists x. Q(x)",
    "forall x. (P(x) & exists y. exists y. Q(y))",
    # runs, at the root over a ground body and below a binder that stays
    # over a body naming it
    "exists x. forall y. exists z. forall x. P(a)",
    "forall x. exists y. exists z. exists y. R(x,x)",
    "exists x. forall y. (exists z. P(z) | exists x. forall x. exists y. Q(a))",
    # named as the fresh witnesses and generic variables are
    "exists w1. forall v1. P(a) & exists v1. Q(v1)",
    "forall w1. exists v1. R(w1,w1)",
]


@pytest.mark.parametrize("text,vacuous", [
    ("forall x. forall x. P(x)", True),
    ("exists x. P(a)", True),
    ("exists x. forall y. R(y,y)", True),
    ("forall x. (P(x) & exists x. Q(x))", False),
    ("forall x. exists y. R(x,y)", False),
    ("P(a) -> P(a)", False),
])
def test_the_build_flags_a_binder_whose_variable_no_atom_uses(text, vacuous):
    # the build leaves out exactly the binders it flags: it makes one node
    # per occurrence of a subformula but those
    f = parse_formula(text)
    t = build_initial_tree(f)
    assert (len(t) < len(list(_postorder(f)))) is vacuous
    assert _tree_facts(t) == _tree_facts(build_initial_tree(drop_vacuous(f)))


def test_decide_builds_the_tree_of_the_formula_without_its_vacuous_binders(monkeypatch):
    def build(f):
        raise _Built(_tree_facts(build_initial_tree(f)))

    monkeypatch.setattr(sys.modules["semforce.decide"], "build_initial_tree", build)
    rng = random.Random(5)
    formulas = differential_formulas() + _ladder() + [random_formula(rng, rng.randint(0, 6)) for _ in range(500)]
    dropped = 0
    for f in formulas + [parse_formula(text) for text in _VACUOUS]:
        g = drop_vacuous(f)
        dropped += g is not f
        with pytest.raises(_Built) as built:
            decide(f)
        assert built.value.args[0] == _tree_facts(build_initial_tree(g)), format_formula(f)
        # direct forcing builds the same tree
        if isinstance(f, (Imp, Or)):
            with pytest.raises(_Built) as direct:
                direct_force(f)
            assert direct.value.args == built.value.args, format_formula(f)
    assert dropped > 100
    # a dropped binder's name is no identifier, so the fresh names may take it
    facts = _tree_facts(ForcingTree(parse_formula(_VACUOUS[-2])))
    assert facts[-1] == {"P", "Q", "a", "v1"}


# ------------------------------------------- free variables from the shape


def _assert_shape_free_variables(s):
    """Every node's per-shape variable set is its decoded formula's free
    variables, the constants read from its shape are those its decoded
    formula names, and each witness entry names a live instance child filled
    with that witness, whose shape the frames and entries read."""
    t = s.tree
    for n in t.nodes:
        assert t.node_free_variables(n) == free_variables(t.node_formula(n)), n
        assert t.node_constants(n) == set(constants_of(t.node_formula(n))), n
    for name, child in s.witness_registry.items():
        assert t.nodes[child].fill_term == Const(name)


def test_shape_free_variables_match_the_decoded_formulas_of_decided_states():
    open_nodes = witnesses = 0
    for f in differential_formulas():
        verdict = decide(f)
        s = verdict.state
        _assert_shape_free_variables(s)
        open_nodes += sum(1 for n in s.tree.nodes if s.tree.node_free_variables(n))
        witnesses += isinstance(verdict, Invalid) and bool(s.witness_registry)
    # the generic variable fills some instances, and some countermodels keep witnesses
    assert open_nodes and witnesses


def test_shape_free_variables_survive_a_rollback():
    f = parse_formula(ILLUSTRATIONS[6])
    s = MarkingState(build_initial_tree(f))
    t = s.tree
    s.open_supposition(t.root, 0, kind="RR")
    cp = s.checkpoint()
    for _ in range(2):
        saturate(s, 2)
        # the generic variable v1 fills an instance, which a witness realizes
        assert s.generic == Var("v1") and s.witness_registry
        # a supposition on a fresh instance of the universal that v1 fills
        q = next(n for n in t.nodes if t.nodes[n].kind == "forall" and t.node_free_variables(n) == {"v1"})
        child = s.instantiate(q, Const("w1"), PERMISSION["forall"])
        assert t.node_free_variables(s.open_supposition(child, 1).node) == {"v1"}
        _assert_shape_free_variables(s)
        s.rollback(cp)
        assert s.generic is None and not s.witness_registry
        _assert_shape_free_variables(s)
