"""End-to-end decisions: verdicts, countermodels, budgets, direct mode."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

from conftest import (
    EXPECTED_VERDICT,
    ILLUSTRATIONS,
    REFERENCE_MODELS,
    assert_marks_hold_in_the_countermodel,
    balanced_pairs,
    canonical_structure,
    differential_formulas,
    drop_vacuous,
    free_variables,
    oracle_stream,
    workload_formulas,
    workload_texts,
)

from semforce import (
    EngineConfig,
    Imp,
    Or,
    FragmentError,
    Invalid,
    MarkingState,
    NoCountermodelUpTo,
    ParseError,
    Refuted,
    Valid,
    ValidUpTo,
    build_initial_tree,
    decide,
    direct_force,
    domain_bound,
    evaluate,
    extract_model,
    oracle_validity,
    parse_formula,
    render_trace,
)
from semforce import cli
from semforce.decide import DEFAULT_DYADIC_BOUND, _levels, _search, fragment_bounds
from semforce.formulas import Monadic, _free_sets, classify_arities, classify_fragment, format_formula
from semforce.tree import ForcingTree, TreeNode


@pytest.mark.parametrize("k", sorted(ILLUSTRATIONS))
def test_worked_formula_verdicts(k):
    verdict = decide(parse_formula(ILLUSTRATIONS[k]))
    assert type(verdict).__name__ == EXPECTED_VERDICT[k]


@pytest.mark.parametrize("k,cfg", [(1, None), (4, None), (6, EngineConfig(max_individuals=2))])
def test_countermodels_match_the_reference_up_to_isomorphism(k, cfg):
    verdict = decide(parse_formula(ILLUSTRATIONS[k]), cfg)
    assert isinstance(verdict, Invalid)
    assert canonical_structure(verdict.model) == canonical_structure(REFERENCE_MODELS[k])


@pytest.mark.parametrize("k", [1, 4, 6])
def test_every_countermodel_actually_refutes(k):
    cfg = EngineConfig(max_individuals=2) if k == 6 else None
    f = parse_formula(ILLUSTRATIONS[k])
    verdict = decide(f, cfg)
    assert evaluate(verdict.model, f) == 0


def test_budget_sweep_never_claims_validity():
    f = parse_formula(ILLUSTRATIONS[6])
    for budget in range(1, 9):
        verdict = decide(f, EngineConfig(max_individuals=budget))
        assert not isinstance(verdict, Valid)
        if budget == 1:
            assert verdict == NoCountermodelUpTo(1, verdict.state)
            assert verdict.bound == 1
        else:
            assert isinstance(verdict, Invalid)


def test_decisions_are_deterministic():
    f = parse_formula(ILLUSTRATIONS[1])
    a, b = decide(f), decide(f)
    assert type(a) is type(b)
    assert a.model == b.model
    assert render_trace(a.state.trace) == render_trace(b.state.trace)


def test_validity_traces_end_in_root_discharge():
    verdict = decide(parse_formula(ILLUSTRATIONS[2]))
    assert isinstance(verdict, Valid)
    lines = render_trace(verdict.state.trace).splitlines()
    assert lines[0] == "1. RR"
    assert "RR-DM" in lines[-1]


def _closes_with_a_capping_hit(f, level: int) -> bool:
    """Whether the search at individual budget level closes, and leaned on
    that budget to do so."""
    s = MarkingState(build_initial_tree(f))
    s.open_supposition(s.tree.root, 0, kind="RR")
    closed, capping_hit = _search(s, level, EngineConfig().branch_limit)
    return closed and capping_hit


def test_levels_double_up_to_the_budget():
    assert _levels(1) == [1]
    assert _levels(2) == [1, 2]
    assert _levels(6) == [1, 2, 4, 6]
    assert _levels(8) == [1, 2, 4, 8]
    assert _levels(32) == [1, 2, 4, 8, 16, 32]


def test_reference_six_gets_its_reference_model_at_the_default_config():
    # level 1 closes with a capping hit, and level 2 finds the reference model
    f = parse_formula(ILLUSTRATIONS[6])
    verdict = decide(f)
    assert isinstance(verdict, Invalid)
    assert canonical_structure(verdict.model) == canonical_structure(REFERENCE_MODELS[6])
    assert evaluate(verdict.model, f) == 0


def test_a_witness_chain_stops_at_one_individual():
    # at the full budget 2^5 every witness filled the budget: 32 individuals
    f = parse_formula("exists t. (R(t) -> ~exists u. (P(u) & Q(u) & S(u) & T(u)))")
    verdict = decide(f)
    assert isinstance(verdict, Invalid) and len(verdict.model.domain) == 1
    assert evaluate(verdict.model, f) == 0


def test_a_countermodel_below_the_dyadic_budget_needs_no_deep_search():
    # at budget 8 alone this search nested past the interpreter's recursion
    # limit after about 17 s; level 1 has a countermodel
    f = parse_formula(
        "~forall x. forall y. ~(~(R(x,a) & (P(a) -> R(a,y))) & exists x. forall y. (R(y,a) & P(y) & R(x,a)))"
    )
    start = time.perf_counter()
    verdict = decide(f)
    assert time.perf_counter() - start < 1.0
    assert isinstance(verdict, Invalid)
    assert evaluate(verdict.model, f) == 0


# valid formulas whose searches close with a capping hit at every level: the
# antecedent's forall-exists asks every individual for one more witness
MONADIC_CAPPING_VALID = "forall x. exists y. (P(x) <-> ~P(y)) -> exists x. exists y. ~(P(x) <-> P(y))"
DYADIC_CAPPING_VALID = "forall x. exists y. (R(x,x) <-> ~R(y,y)) -> exists x. exists y. ~(R(x,x) <-> R(y,y))"
# invalid (Q = {a} over {a, b}), yet its search at the monadic bound 2 closes
# with a capping hit: the two forall nodes take the two individuals as their
# own witnesses outside Q, so the capped exists x. Q(x) has none left to try
MONADIC_CAPPING_INVALID = "forall x. Q(x) | forall x. Q(x) | ~exists x. Q(x)"


def test_a_monadic_closure_that_caps_at_the_fragment_bound_is_not_valid():
    # 1 predicate gives a 2^1 bound, so the levels are 1 and 2, and the
    # search caps at both. 2^1 bounds a countermodel's size, but not the
    # search's witnesses, which can fill the budget redundantly: a capping
    # closure there is the bounded verdict, for valid and invalid input alike
    f = parse_formula(MONADIC_CAPPING_VALID)
    assert _levels(domain_bound(classify_fragment(f))) == [1, 2]
    assert _closes_with_a_capping_hit(f, 1) and _closes_with_a_capping_hit(f, 2)
    verdict = decide(f)
    assert isinstance(verdict, NoCountermodelUpTo) and verdict.bound == 2
    g = parse_formula(MONADIC_CAPPING_INVALID)
    assert _closes_with_a_capping_hit(g, 2)
    assert isinstance(oracle_validity(g, 2), Refuted)
    bounded = decide(g)
    assert isinstance(bounded, NoCountermodelUpTo) and bounded.bound == 2
    # a third individual leaves room for the witness the countermodel needs
    verdict = decide(g, EngineConfig(max_individuals=3))
    assert isinstance(verdict, Invalid) and evaluate(verdict.model, g, {}) == 0


def test_a_dyadic_closure_that_caps_at_every_level_is_bounded_by_the_budget():
    f = parse_formula(DYADIC_CAPPING_VALID)
    assert all(_closes_with_a_capping_hit(f, level) for level in _levels(DEFAULT_DYADIC_BOUND))
    verdict = decide(f)
    assert isinstance(verdict, NoCountermodelUpTo) and verdict.bound == DEFAULT_DYADIC_BOUND
    # an explicit max_individuals is the last level, power of two or not
    bounded = decide(f, EngineConfig(max_individuals=3))
    assert isinstance(bounded, NoCountermodelUpTo) and bounded.bound == 3


def test_the_levels_share_one_tree(monkeypatch):
    builds = []

    def counted_build(f):
        builds.append(f)
        return build_initial_tree(f)

    monkeypatch.setattr(sys.modules["semforce.decide"], "build_initial_tree", counted_build)
    # a vacuous binder is dropped within the one build
    assert isinstance(decide(parse_formula("exists x. (forall y. P(a) | ~P(a))")), Valid) and len(builds) == 1
    # NoCountermodelUpTo after two capping levels, and after four
    for src in (MONADIC_CAPPING_VALID, DYADIC_CAPPING_VALID):
        builds.clear()
        f = parse_formula(src)
        verdict = decide(f)
        assert isinstance(verdict, NoCountermodelUpTo) and len(builds) == 1
        # each closed level's discharge rolled the tree back to its initial nodes
        fresh = build_initial_tree(f).nodes
        assert len(fresh) == 13
        assert {n: node.children for n, node in verdict.state.tree.nodes.items()} == {
            n: node.children for n, node in fresh.items()
        }
        assert list(verdict.state.tree.classes.items()) == list(build_initial_tree(f).classes.items())


def test_dyadic_default_budget_is_eight():
    f = parse_formula(ILLUSTRATIONS[6])
    assert domain_bound(classify_fragment(f), EngineConfig()) == 8


def test_monadic_bound_is_two_to_the_predicates():
    f = parse_formula("forall x. P(x) -> exists y. Q(y)")
    assert domain_bound(classify_fragment(f), EngineConfig()) == 4


def test_fragment_outside_both_classes_needs_an_explicit_budget():
    f = parse_formula("forall x. forall y. forall z. (R(x,y) & R(y,z) -> R(x,z))")
    with pytest.raises(FragmentError):
        decide(f)
    verdict = decide(f, EngineConfig(max_individuals=2))
    assert isinstance(verdict, Invalid)


# hand cases for the fragment read from the tree: vacuous binders, three free
# variables, a ternary predicate, and open formulas, one of which names the
# variable a binder below it binds
FRAGMENT_CASES = [
    "exists x. forall x. R(x,x)",
    "exists y. exists x. exists y. forall x. forall x. R(x,x)",
    "forall z. forall x. forall y. (R(x,y) | P(a))",
    "forall x. forall y. forall z. (R(x,y) & R(y,z) -> R(x,z))",
    "forall x. forall y. forall z. T(x,y,z)",
    "T(a,b,c) -> P(a)",
    "forall x. P(x) -> exists y. Q(y)",
]


def _open_fragment_cases():
    from semforce import And, Atom, Forall, Var

    x, y, z = (Var(v) for v in "xyz")
    return [
        Forall("y", Atom("R", (x, y))),
        And(Atom("R", (x, y)), Atom("P", (z,))),
        And(Atom("P", (x,)), Forall("x", Atom("R", (x, x)))),
        Forall("x", Forall("x", And(Atom("R", (x, y)), Atom("P", (z,))))),
        _open_outside(),
    ]


def _corpus_formulas():
    """The formulas of the bundled corpus."""
    corpus = Path(__file__).resolve().parent.parent / "src" / "semforce" / "data" / "illustrations.corpus"
    return [parse_formula(text) for text, _ in cli._parse_corpus(corpus.read_text(encoding="utf-8"))]


def _fragment_formulas():
    texts = FRAGMENT_CASES + [entry for name in ("monadic-batch", "fo2-batch", "large-formula")
                              for entry in workload_texts(name)]
    out = differential_formulas() + _open_fragment_cases() + _corpus_formulas()
    for text in texts:
        try:
            out.append(parse_formula(text))
        except ParseError:
            pass  # large-formula's nesting past the parser's depth
    return out


def test_the_fragment_read_from_the_tree_is_the_fragment_of_the_formula():
    formulas = _fragment_formulas()
    assert len(formulas) > 700
    seen = set()
    for f in formulas:
        # the tree decide builds; an open formula gets one too, before
        # build_initial_tree rejects it
        tree = ForcingTree(f)
        expected = classify_fragment(f)
        assert classify_arities(tree.arities, tree.width) == expected, format_formula(f)
        # the tree is drop_vacuous(f)'s, whose fragment and free variables are f's
        assert classify_fragment(drop_vacuous(f)) == expected, format_formula(f)
        assert tree.node_free_variables(tree.root) == free_variables(f), format_formula(f)
        seen.add(type(expected).__name__)
        if isinstance(expected, Monadic):
            assert tree.width is None
        else:
            assert tree.width == max(map(len, _free_sets(f))), format_formula(f)
    assert seen == {"Monadic", "Dyadic2Var", "Outside"}


def test_decide_classifies_dyadic_input_without_walking_the_formula(monkeypatch):
    formulas = [f for f in differential_formulas() if not isinstance(classify_fragment(f), Monadic)]
    expected = [type(decide(f)) for f in formulas]

    def refuse(f):
        raise AssertionError("decide walked the formula for its free variables")

    monkeypatch.setattr(sys.modules["semforce.formulas"], "_free_sets", refuse)
    assert [type(decide(f)) for f in formulas] == expected
    assert {Valid, Invalid} <= set(expected)


def test_vacuous_quantifiers_survive_instantiation():
    # a vacuously bound quantifier leaves its body ground inside the template,
    # so instance branches can appear there before the outer quantifier is
    # instantiated; copying them must keep them usable as rule premises
    src = "~exists x. forall y. Q(c) & exists x. forall y. exists z. Q(z)"
    verdict = decide(parse_formula(src))
    assert isinstance(verdict, Invalid)
    assert evaluate(verdict.model, parse_formula(src)) == 0


def _open_outside():
    from semforce import And, Atom, Forall, Var

    x, y, z, w = (Var(v) for v in "xyzw")
    return Forall("x", Forall("y", Forall("z", And(Atom("R", (x, y)), Atom("R", (z, w))))))


def test_free_variables_are_rejected():
    from semforce import Atom, Forall, FreeVariableError, Var

    open_formula = Forall("y", Atom("R", (Var("x"), Var("y"))))
    with pytest.raises(FreeVariableError, match=r"closed formula; free: \['x'\]"):
        decide(open_formula)
    # outside the fragments, once a bound is given
    with pytest.raises(FreeVariableError, match=r"closed formula; free: \['w'\]"):
        decide(_open_outside(), EngineConfig(max_individuals=2))


def test_an_open_formula_outside_the_fragments_is_a_fragment_error():
    # the fragment test comes before the closedness test
    with pytest.raises(FragmentError):
        decide(_open_outside())


def test_a_predicate_with_two_arities_is_reported_before_openness():
    from semforce import And, Atom, Const, FreeVariableError, Var

    clash = And(Atom("P", (Var("x"),)), Atom("P", (Const("a"), Const("b"))))
    with pytest.raises(FreeVariableError, match="predicate 'P' used with arities 1 and 2"):
        decide(clash)


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_individuals=0)
    with pytest.raises(ValueError):
        EngineConfig(branch_limit=0)


def test_branch_limit_aborts_the_search():
    from semforce import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        decide(parse_formula(ILLUSTRATIONS[6]), EngineConfig(branch_limit=1))


def test_a_search_nesting_six_hundred_suppositions_is_decided():
    # a recursive search ran out of interpreter frames here, with a few
    # frames per open supposition
    f = parse_formula(balanced_pairs(600))
    verdict = decide(f)
    assert isinstance(verdict, Invalid)
    assert evaluate(verdict.model, f) == 0


def test_six_hundred_negations_decide_at_the_default_recursion_limit():
    # the tree build and evaluate recurse once per level, which 600 levels
    # fit; formula classes must not add a walk that recurses deeper
    f = parse_formula("~" * 600 + "P(a)")
    verdict = decide(f)
    assert isinstance(verdict, Invalid)
    assert evaluate(verdict.model, f) == 0


def test_six_hundred_vacuous_binders_decide_with_linear_tree_building(monkeypatch):
    # the build recurses once per binder, as for 600 negations. A ground body
    # below the run moves up; one naming the binder above the run is built
    # again once, from the record that jumps the run: a rebuild that walked
    # the run again would be quadratic, one that dropped it again exponential.
    # Vacuous binders nested under connectives rebuild what lies between
    # them, so thirty of them stay within the square of the formula's size
    created, limit = [], []

    def counted_node(*args, **kwargs):
        created.append(args[0])
        # fail here rather than wait for an exponential build
        assert len(created) <= limit[0]
        return TreeNode(*args, **kwargs)

    monkeypatch.setattr(sys.modules["semforce.tree"], "TreeNode", counted_node)
    nested = "forall y. " + "exists x. (P(y) & " * 30 + "P(y)" + ")" * 30
    for text, most in (
        ("exists x. " * 600 + "P(a)", 2 * 601),
        ("forall y. " + "exists x. " * 600 + "P(y)", 2 * 602),
        (nested, 92 ** 2),  # 92 nodes
    ):
        created.clear()
        limit[:] = [most]
        f = parse_formula(text)
        verdict = decide(f)
        assert isinstance(verdict, Invalid) and evaluate(verdict.model, f) == 0


def test_the_re_check_of_forty_vacuous_binders_stays_polynomial():
    # decide searches the formula with its vacuous binders dropped but
    # re-checks it as given: walking every path of the chain at the
    # countermodel's two individuals would take 2^40 steps
    chain = "exists x. " * 40 + "P(a)"
    f = parse_formula(f"({chain}) | (forall x. Q(x) | forall x. ~Q(x))")
    start = time.perf_counter()
    verdict = decide(f)
    assert isinstance(verdict, Invalid) and len(verdict.model.domain) == 2
    assert time.perf_counter() - start < 1.0


def test_a_four_hundred_link_implication_chain_is_valid():
    links = " & ".join(f"(P(c{i}) -> P(c{i + 1}))" for i in range(400))
    assert isinstance(decide(parse_formula(f"({links}) -> P(c0) -> P(c400)")), Valid)


@pytest.mark.parametrize("k", [1, 2, 6])
def test_a_decided_state_is_freed_without_the_cycle_collector(k):
    import gc
    import weakref

    gc.disable()
    try:
        verdict = decide(parse_formula(ILLUSTRATIONS[k]))
        state = weakref.ref(verdict.state)
        del verdict
        assert state() is None
    finally:
        gc.enable()


# four vacuous binders around forall x. R(x,x)
DEEP_DYADIC = "exists y. exists x. exists y. forall x. forall x. R(x,x)"
# five alternating binders, each of whose variable an atom below it uses
DEEP_INSTANCES = "exists x. (R(x,x) | forall y. (R(y,y) & exists x. (Q(x) | exists y. (R(x,y) | forall x. R(x,x)))))"


def test_the_renamed_deep_dyadic_formula_completes():
    f = parse_formula(DEEP_DYADIC)
    verdict = decide(f)
    assert isinstance(verdict, Invalid)
    assert evaluate(verdict.model, f, {}) == 0
    # the search ran on forall x. R(x,x): the quantifier, its template and one instance
    assert len(verdict.state.tree.nodes) == 3


def test_a_deep_instance_search_completes():
    # the search at the full budget alone, without the levels below it:
    # every binder marked for a witness adds an individual, and every
    # universal an instance for it
    f = parse_formula(DEEP_INSTANCES)
    s = MarkingState(build_initial_tree(f))
    assert len(s.tree.nodes) == 14
    s.open_supposition(s.tree.root, 0, kind="RR")
    assert _search(s, DEFAULT_DYADIC_BOUND, EngineConfig().branch_limit) == (False, True)
    assert len(s.tree.nodes) == 5362
    assert len(s.trace) == 5820
    s.commit_frames()
    assert evaluate(extract_model(s), f, {}) == 0


def test_an_instance_search_that_meets_an_existing_instance_child():
    # reaches _suppose_instance's reuse of an existing instance child,
    # which neither the other tests nor the benchmark workloads reach
    f = parse_formula("exists y. (R(y,y) & ~exists y. R(y,y))")
    verdict = decide(f)
    assert isinstance(verdict, Invalid)
    assert evaluate(verdict.model, f, {}) == 0
    assert isinstance(oracle_validity(f, fragment_bounds(classify_fragment(f))[1]), Refuted)


def test_an_instance_search_ended_by_a_double_mark():
    # reaches an individual's discharge in _search that leaves a double
    # mark and so ends its obligation's tries, which neither the other
    # tests nor the benchmark workloads reach
    f = parse_formula("(exists x. P(x) <-> P(c)) & (P(c) <-> forall x. P(x))")
    bounded = decide(f, EngineConfig(max_individuals=1))
    assert isinstance(bounded, NoCountermodelUpTo) and bounded.bound == 1
    assert oracle_validity(f, 1) == ValidUpTo(1)
    # at the monadic bound 2^1 the countermodel takes two individuals
    verdict = decide(f)
    assert isinstance(verdict, Invalid) and len(verdict.model.domain) == 2
    assert evaluate(verdict.model, f, {}) == 0
    assert isinstance(oracle_validity(f, fragment_bounds(classify_fragment(f))[1]), Refuted)


def test_dropping_vacuous_binders_keeps_every_verdict_and_countermodel():
    # 200 of the monadic stream's 500 formulas keep this test under a second
    texts = workload_texts("monadic-batch")[:200] + workload_texts("fo2-batch") + list(ILLUSTRATIONS.values())
    dropped = 0
    for text in texts:
        f = parse_formula(text)
        g = drop_vacuous(f)
        dropped += g is not f
        verdict = decide(f)
        assert type(decide(g)) is type(verdict)
        oracle = oracle_validity(f, fragment_bounds(classify_fragment(f))[1])
        if isinstance(verdict, Invalid):
            assert evaluate(verdict.model, f, {}) == 0
            if isinstance(oracle, ValidUpTo):
                assert len(verdict.model.domain) > oracle.bound
        elif isinstance(verdict, Valid):
            assert isinstance(oracle, ValidUpTo)
        elif isinstance(oracle, Refuted):
            assert len(oracle.interpretation.domain) > verdict.bound
    assert dropped > 0


def test_no_validity_the_oracle_refutes_on_a_stream_the_benchmark_does_not_draw():
    # on conftest.oracle_stream, a Valid must survive the oracle (at
    # min(2^n, 3) for monadic input, 2 for dyadic)
    # and an Invalid its re-check, and each of its marks must be its node's
    # truth value in the countermodel; a bounded verdict promises neither.
    # 3500 formulas take about 1.2 s (Python 3.11.7, shared 2-core machine)
    for f in oracle_stream(3500):
        verdict = decide(f)
        if isinstance(verdict, Invalid):
            assert evaluate(verdict.model, f, {}) == 0, format_formula(f)
            assert_marks_hold_in_the_countermodel(verdict)
        elif isinstance(verdict, Valid):
            fragment = classify_fragment(f)
            bound = min(2**fragment.n, 3) if isinstance(fragment, Monadic) else 2
            assert isinstance(oracle_validity(f, bound), ValidUpTo), format_formula(f)


def test_random_formulas_agree_with_the_oracle_at_budget_two(rng):
    from conftest import random_formula

    cfg = EngineConfig(max_individuals=2)
    tried = 0
    while tried < 120:
        f = random_formula(rng, rng.randint(1, 6))
        if type(classify_fragment(f)).__name__ == "Outside":
            continue
        tried += 1
        verdict = decide(f, cfg)
        oracle = oracle_validity(f, 2)
        if isinstance(verdict, Invalid):
            assert isinstance(oracle, Refuted)
            assert evaluate(verdict.model, f) == 0
        else:
            # Valid promises silence below 3; NoCountermodelUpTo(2) does not,
            # but on this stream the search misses no countermodel within 2
            assert oracle == ValidUpTo(2)


# ------------------------------------------------------------- direct mode


@pytest.mark.parametrize("k", [3, 5])
def test_direct_mode_accepts_the_directly_forceable_formulas(k):
    verdict = direct_force(parse_formula(ILLUSTRATIONS[k]))
    assert isinstance(verdict, Valid)
    lines = render_trace(verdict.state.trace).splitlines()
    assert lines[-1].split(". ", 1)[1].startswith("OAi-Ad→")


def test_direct_mode_gives_up_on_the_invalid_formula():
    assert direct_force(parse_formula(ILLUSTRATIONS[6])) is None


def test_direct_mode_requires_a_conditional_or_disjunction():
    with pytest.raises(ValueError):
        direct_force(parse_formula("forall x. P(x)"))


def test_direct_mode_handles_disjunctions():
    verdict = direct_force(parse_formula("P(a) | ~P(a)"))
    assert isinstance(verdict, Valid)


def test_allow_direct_config_tries_direct_before_the_search():
    f = parse_formula(ILLUSTRATIONS[3])
    verdict = decide(f, EngineConfig(allow_direct=True))
    assert isinstance(verdict, Valid)


def test_allow_direct_config_forces_the_formula_without_its_vacuous_binders():
    # the root of the input is a quantifier; the formula searched is a conditional
    verdict = decide(parse_formula("forall x. (P(a) -> P(a))"), EngineConfig(allow_direct=True))
    assert isinstance(verdict, Valid)
    assert verdict.trace[-1].rule == "OAi-Ad→"


def test_no_decision_decodes_a_formula(monkeypatch):
    # the fragment, the budget, the constants an instance branch names and
    # the direct attempt's sides are all read from the tree, never from a
    # formula decoded out of it
    def refuse(self, nid, fill=None):
        raise AssertionError("a decision decoded a formula")

    formulas = differential_formulas() + workload_formulas()
    monkeypatch.setattr(ForcingTree, "node_formula", refuse)
    for cfg in (EngineConfig(), EngineConfig(allow_direct=True)):
        for f in formulas:
            decide(f, cfg)


def test_direct_forcing_builds_one_tree(monkeypatch):
    decide_module = sys.modules["semforce.decide"]
    build = decide_module.build_initial_tree
    built = []

    def counted(f):
        built.append(f)
        return build(f)

    monkeypatch.setattr(decide_module, "build_initial_tree", counted)
    # 3 is forced by its first strategy, 6 fails both and is searched
    for k in (3, 6):
        f = parse_formula(ILLUSTRATIONS[k])
        for run in (lambda: decide(f, EngineConfig(allow_direct=True)), lambda: direct_force(f)):
            built.clear()
            run()
            assert len(built) == 1, k


def test_direct_forcing_and_the_direct_attempt_of_decide_give_one_trace():
    # both run on the one tree of f, so a formula direct forcing accepts is
    # accepted by decide's direct attempt, step for step
    def steps(verdict):
        return [(t.step, t.node, t.value, t.rule, t.premises, t.absorbed) for t in verdict.trace]

    forced = 0
    for f in differential_formulas() + workload_formulas() + _corpus_formulas():
        if not isinstance(f, (Imp, Or)):
            continue
        direct = direct_force(f)
        if direct is None:
            continue
        forced += 1
        verdict = decide(f, EngineConfig(allow_direct=True))
        assert isinstance(verdict, Valid), format_formula(f)
        assert steps(verdict) == steps(direct), format_formula(f)
    assert forced > 20


def test_a_failed_direct_attempt_leaves_no_trace_on_the_levels():
    failed = 0
    for f in differential_formulas() + workload_formulas():
        # decide forces the formula without its vacuous binders
        g = drop_vacuous(f)
        if isinstance(g, (Imp, Or)):
            if direct_force(g) is not None:
                continue
            failed += 1
        direct, searched = decide(f, EngineConfig(allow_direct=True)), decide(f)
        assert type(direct) is type(searched), format_formula(f)
        assert direct.state.trace == searched.state.trace, format_formula(f)
        assert len(direct.state.tree.nodes) == len(searched.state.tree.nodes)
        if isinstance(searched, Invalid):
            assert direct.model == searched.model, format_formula(f)
    assert failed > 100


def test_the_bench_tracer_patches_names_that_exist_and_restores_them():
    # perfbench/tracer.py patches engine names by attribute, so a renamed or
    # deleted name would otherwise fail only a traced bench run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        verdict = decide(parse_formula(ILLUSTRATIONS[6]))
    finally:
        tracer.uninstall()
    assert patched and all(getattr(owner, attr) is original for owner, attr, original in patched)
    assert tracer.last_state is verdict.state and tracer.calls["marking.saturate"] > 0
