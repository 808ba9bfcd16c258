"""Tarskian side: evaluation, model enumeration, the brute-force oracle,
and the bridges between markings and interpretations."""

import itertools
import random
import time
from pathlib import Path

import pytest

from conftest import (
    ILLUSTRATIONS, assert_marks_hold_in_the_countermodel, ast_signature, differential_formulas, fragment_budget,
    oracle_stream, within_a_shallow_stack, workload_formulas,
)
from reference_evaluate import reference_evaluate

from semforce import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    FreeVariableError,
    Iff,
    Imp,
    Interpretation,
    Invalid,
    Not,
    Or,
    Refuted,
    StateError,
    ValidUpTo,
    Var,
    alpha_normalize,
    build_initial_tree,
    decide,
    enumerate_interpretations,
    evaluate,
    extract_model,
    marks_from_model,
    oracle_validity,
    parse_formula,
    signature_of,
)
from semforce.cli import _parse_corpus
from semforce.formulas import Slot, format_formula
from semforce.models import ORACLE_LIMIT, _domain_names, _element_names, interpretation_count
from semforce.marking import MarkingState, saturate

TWO = Interpretation(
    domain=("a", "b"),
    monadic={"P": frozenset({"a"}), "Q": frozenset({"a", "b"})},
    dyadic={"R": frozenset({("a", "b")})},
    constants={"a": "a", "b": "b"},
)


@pytest.mark.parametrize(
    "src,expected",
    [
        ("P(a)", 1),
        ("P(b)", 0),
        ("~P(b)", 1),
        ("P(a) & P(b)", 0),
        ("P(a) | P(b)", 1),
        ("P(b) -> P(a)", 1),
        ("P(a) -> P(b)", 0),
        ("P(a) <-> Q(a)", 1),
        ("P(b) <-> Q(b)", 0),
        ("R(a,b)", 1),
        ("R(b,a)", 0),
        ("forall x. Q(x)", 1),
        ("forall x. P(x)", 0),
        ("exists x. P(x)", 1),
        ("exists x. R(x,x)", 0),
        ("forall x. exists y. (R(x,y) | R(y,x))", 1),
    ],
)
def test_evaluate_ground_and_quantified(src, expected):
    assert evaluate(TWO, parse_formula(src)) == expected


def test_evaluate_is_invariant_under_bound_renaming(rng):
    from conftest import random_formula

    for _ in range(200):
        f = random_formula(rng, rng.randint(1, 5))
        i = Interpretation(
            domain=("a", "b"),
            monadic={"P": frozenset({"a"}), "Q": frozenset({"b"})},
            dyadic={"R": frozenset({("a", "a"), ("b", "a")}), "S": frozenset()},
            constants={"a": "a", "b": "b", "c": "b"},
        )
        assert evaluate(i, f) == evaluate(i, alpha_normalize(f))


def test_evaluate_rejects_unmapped_names():
    with pytest.raises(FreeVariableError):
        evaluate(TWO, Atom("P", (Var("x"),)))
    with pytest.raises(FreeVariableError):
        evaluate(TWO, Atom("P", (Const("zzz"),)))
    assert evaluate(TWO, Atom("P", (Var("x"),)), {"x": "a"}) == 1


def test_a_binder_leaves_the_callers_environment_as_it_was():
    # the universal's loop ends on x = b; P(x) after it must still read x = a
    f = And(Forall("x", Atom("Q", (Var("x"),))), Atom("P", (Var("x"),)))
    env = {"x": "a"}
    assert evaluate(TWO, f, env) == 1
    assert env == {"x": "a"}


def _chain(cls, n, atom):
    """n operators of cls over n + 1 copies of atom, nested to the left as
    the parser nests a flat chain."""
    f = atom
    for _ in range(n):
        f = cls(f, atom)
    return f


def _nest(wrap, n, f):
    for _ in range(n):
        f = wrap(f)
    return f


def test_evaluate_walks_deep_formulas_without_recursion():
    pa, pb = Atom("P", (Const("a"),)), Atom("P", (Const("b"),))
    x = Atom("Q", (Var("x"),))
    cases = [
        (_nest(Not, 5000, pb), 0), (_nest(Not, 5001, pb), 1),
        # every operand is read: no left operand decides these
        (_chain(And, 5000, pa), 1), (_chain(Or, 5000, pb), 0), (_chain(Iff, 5000, pb), 0),
        (_chain(Iff, 5001, pb), 1),
        # the parser nests `->` to the right; a true antecedent leaves each
        # link open
        (_nest(lambda f: Imp(pa, f), 5000, pb), 0), (_chain(Imp, 5000, pb), 0),
        (_nest(lambda f: Forall("x", f), 2000, x), 1), (_nest(lambda f: Exists("x", Not(f)), 2000, x), 1),
    ]
    for f, want in cases:
        assert within_a_shallow_stack(lambda: evaluate(TWO, f)) == want


def test_a_connective_skips_its_right_operand_once_the_left_decides_it():
    # R(x,x) names a variable neither a binder nor env assigns, so reading it
    # raises; P(a) is true in TWO and P(b) false
    free = Atom("R", (Var("x"), Var("x")))
    pa, pb = Atom("P", (Const("a"),)), Atom("P", (Const("b"),))
    for f, value in ((And(pb, free), 0), (Or(pa, free), 1), (Imp(pb, free), 1)):
        assert evaluate(TWO, f) == value
    # where the left value leaves the connective open, the right one is read;
    # `<->` is never decided by its left operand
    for f in (And(pa, free), Or(pb, free), Imp(pa, free), Iff(pa, free), Iff(pb, free)):
        with pytest.raises(FreeVariableError, match="variable 'x' has no assignment"):
            evaluate(TWO, f)
    # the left operand comes first even where the right one would decide
    with pytest.raises(FreeVariableError):
        evaluate(TWO, And(free, pb))
    # a quantifier stops at the first element that settles it: for y = a,
    # Q(a) decides the disjunction; the universal goes on to y = b, where
    # P(b) is false and R(x,y) is read
    assert evaluate(TWO, Exists("y", Or(Atom("Q", (Var("y"),)), free))) == 1
    with pytest.raises(FreeVariableError):
        evaluate(TWO, Forall("y", Or(Atom("P", (Var("y"),)), Atom("R", (Var("x"), Var("y"))))))


def test_evaluate_raises_where_it_reaches_a_name_that_denotes_nothing():
    pb, free = Atom("P", (Const("b"),)), Atom("R", (Const("a"), Var("x")))
    unknown, placeholder = Atom("P", (Const("zzz"),)), Atom("P", (Slot(),))
    errors = [
        (free, FreeVariableError, "variable 'x' has no assignment"),
        (unknown, FreeVariableError, "constant 'zzz' has no denotation"),
        (placeholder, StateError, "unfilled placeholders"),
    ]
    for atom, error, message in errors:
        # deep in a chain's last right operand, under a negation tower, and in
        # a quantifier body at its second element
        for f in (Or(_chain(Or, 1500, pb), atom),
                  _nest(Not, 1500, And(Atom("Q", (Const("a"),)), atom)),
                  Forall("y", Or(Atom("P", (Var("y"),)), atom))):
            with pytest.raises(error, match=message):
                within_a_shallow_stack(lambda: evaluate(TWO, f))
    # the first argument that denotes nothing is named
    with pytest.raises(FreeVariableError, match="variable 'y'"):
        evaluate(TWO, Atom("R", (Var("y"), Const("zzz"))))
    with pytest.raises(StateError, match="unfilled placeholders"):
        evaluate(TWO, Atom("R", (Slot(), Var("y"))))


def test_evaluate_agrees_with_the_recursive_reference_on_the_oracle_stream():
    # every interpretation of domain size 1 and the first 24 of size 2, for
    # each of 1000 formulas of the stream
    compared = 0
    for f in oracle_stream(1000):
        sig = signature_of(f)
        for size in (1, 2):
            for i in itertools.islice(enumerate_interpretations(sig, size), 24):
                assert evaluate(i, f, {}) == reference_evaluate(i, f, {}), format_formula(f)
                compared += 1
    assert compared > 15000


def test_forty_binders_of_one_variable_evaluate_in_polynomial_time():
    # each binder reads x and none settles early; walking every path would
    # take 2^40 steps on TWO's two individuals
    f = parse_formula("forall x. (Q(x) & " * 40 + "P(a)" + ")" * 40)
    start = time.perf_counter()
    assert evaluate(TWO, f) == 1
    assert time.perf_counter() - start < 1.0


def test_enumeration_counts():
    f = parse_formula("exists x. P(x)")
    assert sum(1 for _ in enumerate_interpretations(signature_of(f), 2)) == 4
    g = parse_formula("exists x. R(x,x)")
    assert sum(1 for _ in enumerate_interpretations(signature_of(g), 2)) == 16
    h = parse_formula("P(c)")
    # one constant triples the d=3 monadic count by its denotation choices
    assert sum(1 for _ in enumerate_interpretations(signature_of(h), 3)) == 3 * 8


def test_enumeration_is_exhaustive_and_distinct():
    f = parse_formula("P(a) & R(a,a)")
    seen = set()
    for i in enumerate_interpretations(signature_of(f), 2):
        key = (
            i.constants["a"],
            tuple(sorted(i.monadic["P"])),
            tuple(sorted(i.dyadic["R"])),
        )
        assert key not in seen
        seen.add(key)
    assert len(seen) == 2 * 4 * 16


def test_oracle_validity_verdicts():
    assert oracle_validity(parse_formula("P(a) | ~P(a)"), 2) == ValidUpTo(2)
    out = oracle_validity(parse_formula("P(a) -> forall x. P(x)"), 2)
    assert isinstance(out, Refuted)
    assert evaluate(out.interpretation, parse_formula("P(a) -> forall x. P(x)")) == 0


def test_oracle_refutes_with_the_smallest_domain():
    out = oracle_validity(parse_formula(ILLUSTRATIONS[6]), 3)
    assert isinstance(out, Refuted)
    assert len(out.interpretation.domain) == 2


@pytest.mark.parametrize("src", ["P(a) & R(a,a)", "forall x. (P(x) | Q(x))", "R(a,b) -> S(b,a)", "P(a) | ~P(b)"])
def test_interpretation_count_matches_the_enumeration(src):
    sig = signature_of(parse_formula(src))
    for size in (1, 2):
        assert interpretation_count(sig, size) == sum(1 for _ in enumerate_interpretations(sig, size))


def test_oracle_refuses_by_size_before_enumerating():
    # 1·2^2 + 2·2^8 = 516 interpretations up to size 2; size 3 adds 3·2^18
    f = parse_formula("forall x. (R(x,x) | ~R(x,x)) & (S(a,a) | ~S(a,a))")
    assert oracle_validity(f, 2) == ValidUpTo(2)
    refusal = f"786948 interpretations up to domain size 3, over its limit of {ORACLE_LIMIT}"
    with pytest.raises(ValueError, match=refusal):
        oracle_validity(f, 3)
    # the count stops at the first size past the limit, whatever the bound
    with pytest.raises(ValueError, match="up to domain size 4,"):
        oracle_validity(parse_formula("R(a,a) | ~R(a,a)"), 10**9)


def test_oracle_answers_from_a_domain_below_the_limit():
    # refuted on one element, so sizes past the limit are never faced
    out = oracle_validity(parse_formula("P(a) & ~P(a)"), 10**9)
    assert isinstance(out, Refuted) and len(out.interpretation.domain) == 1


def test_oracle_rejects_open_formulas():
    with pytest.raises(FreeVariableError, match="the oracle decides closed formulas only"):
        oracle_validity(Forall("y", Atom("R", (Var("x"), Var("y")))), 2)


def test_the_oracle_rejects_a_predicate_used_with_two_arities():
    clash = And(Atom("P", (Const("a"),)), Forall("x", Atom("P", (Var("x"), Const("a")))))
    for read in (lambda: oracle_validity(clash, 2), lambda: signature_of(clash)):
        with pytest.raises(FreeVariableError, match="predicate 'P' used with arities 1 and 2"):
            read()


def test_the_signature_read_from_the_tree_is_the_signature_of_the_formula():
    corpus = Path(__file__).resolve().parent.parent / "src" / "semforce" / "data" / "illustrations.corpus"
    formulas = differential_formulas() + workload_formulas()
    formulas += [parse_formula(text) for text, _ in _parse_corpus(corpus.read_text(encoding="utf-8"))]
    unsorted = 0
    for f in formulas:
        sig = signature_of(f)
        assert sig == ast_signature(f), format_formula(f)
        unsorted += list(sig.constants) != sorted(sig.constants)
    # the constants keep their first-occurrence order
    assert unsorted > 0


def test_classical_quantifier_dualities(rng):
    sig = signature_of(parse_formula("P(a) & R(a,b)"))
    pool = list(enumerate_interpretations(sig, 2))
    body = parse_formula("forall q. (P(q) -> exists r. R(q,r))")
    # spot-check ~forall x. F == exists x. ~F pointwise over the whole space
    inner = Atom("R", (Var("x"), Const("a")))
    left = Not(Forall("x", inner))
    right = Exists("x", Not(inner))
    for i in pool:
        assert evaluate(i, left) == evaluate(i, right)
        assert evaluate(i, body) in (0, 1)


# -------------------------------------------------- markings <-> models


def test_extract_model_from_the_first_worked_formula():
    f = parse_formula(ILLUSTRATIONS[1])
    t = build_initial_tree(f)
    s = MarkingState(t)
    s.open_supposition(t.root, 0, kind="RR")
    saturate(s, fragment_budget(t))
    s.commit_frames()
    i = extract_model(s)
    assert i.domain == ("w1", "w2")
    assert i.monadic["P"] == frozenset({"w1"})
    assert i.dyadic["R"] == frozenset({("w1", "w1"), ("w1", "w2")})
    assert evaluate(i, f) == 0


def test_marks_from_model_reproduces_the_leaf_marks():
    f = parse_formula(ILLUSTRATIONS[1])
    verdict = decide(f)
    s = verdict.state
    derived = marks_from_model(verdict.model, s.tree)
    for nid, value in derived.items():
        assert s.marked(nid) in (None, value)
    leaves = {
        format_formula(s.tree.node_formula(n)): v
        for n, v in derived.items()
        if s.tree.nodes[n].kind == "atom"
    }
    assert leaves == {
        "P(w1)": 1,
        "R(w1,w1)": 1,
        "R(w1,w2)": 1,
        "R(w2,w1)": 0,
        "R(w2,w2)": 0,
    }


def test_every_mark_of_an_invalid_verdict_is_its_truth_value_in_the_countermodel():
    invalid = generic = 0
    for f in differential_formulas() + workload_formulas():
        verdict = decide(f)
        if isinstance(verdict, Invalid):
            assert_marks_hold_in_the_countermodel(verdict)
            invalid += 1
            generic += verdict.state.generic is not None
    assert invalid > 500 and generic > 0


def test_marks_from_model_skips_nodes_with_unfilled_placeholders():
    f = parse_formula("forall x. P(x)")
    t = build_initial_tree(f)
    i = Interpretation(domain=("a",), monadic={"P": frozenset({"a"})}, dyadic={})
    derived = marks_from_model(i, t)
    assert derived[t.root] == 1
    template = t.nodes[t.root].children[0]
    assert template not in derived


def test_marks_from_model_evaluates_a_free_variable_only_under_env():
    t = build_initial_tree(parse_formula("forall x. (P(x) | Q(a))"))
    child = t.instantiate(t.root, Var("v1"))
    p_v1, q_a = t.nodes[child].children
    i = Interpretation(("a", "b"), {"P": frozenset({"b"}), "Q": frozenset()}, {}, {"a": "a"})
    derived = marks_from_model(i, t)
    assert child not in derived and p_v1 not in derived and derived[q_a] == 0
    assert marks_from_model(i, t, {"v1": "a"})[child] == 0
    derived = marks_from_model(i, t, {"v1": "b"})
    assert derived[child] == derived[p_v1] == 1 and derived[q_a] == 0


def test_generic_variable_gets_a_concrete_element_in_extraction():
    # a model read off a marking that used the generic variable names it with
    # a fresh element letter
    f = parse_formula("forall x. P(x) -> P(c)")
    verdict = decide(f)
    assert type(verdict).__name__ == "Valid"
    g = parse_formula("P(c) -> forall x. P(x)")
    out = decide(g)
    assert type(out).__name__ == "Invalid"
    assert evaluate(out.model, g) == 0


def test_domain_names_run_through_the_letters_then_count_on():
    assert _domain_names(3) == ("a", "b", "c")
    names = _domain_names(28)
    assert names[25:] == ("z", "e27", "e28")
    assert list(itertools.islice(_element_names(), 28)) == list(names)
