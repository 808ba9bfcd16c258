"""End-to-end decisions: verdicts, countermodels, budgets, direct mode."""

import pytest

from conftest import EXPECTED_VERDICT, ILLUSTRATIONS, REFERENCE_MODELS, canonical_structure

from semforce import (
    EngineConfig,
    FragmentError,
    Invalid,
    NoCountermodelUpTo,
    Valid,
    decide,
    direct_force,
    domain_bound,
    evaluate,
    parse_formula,
    render_trace,
)
from semforce.formulas import classify_fragment


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


def test_monadic_validity_is_genuine_at_the_fragment_bound():
    # 2 predicates give a 2^2 bound; the formula is valid, so the search may
    # cap yet still conclude Valid rather than a bounded verdict
    f = parse_formula("forall x. (P(x) & Q(x)) -> forall x. P(x)")
    verdict = decide(f)
    assert isinstance(verdict, Valid)


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


def test_vacuous_quantifiers_survive_instantiation():
    # a vacuously bound quantifier leaves its body ground inside the template,
    # so instance branches can appear there before the outer quantifier is
    # instantiated; copying them must keep them usable as rule premises
    src = "~exists x. forall y. Q(c) & exists x. forall y. exists z. Q(z)"
    verdict = decide(parse_formula(src))
    assert isinstance(verdict, Invalid)
    assert evaluate(verdict.model, parse_formula(src)) == 0


def test_free_variables_are_rejected():
    from semforce import Atom, Forall, FreeVariableError, Var

    open_formula = Forall("y", Atom("R", (Var("x"), Var("y"))))
    with pytest.raises(FreeVariableError):
        decide(open_formula)


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_individuals=0)
    with pytest.raises(ValueError):
        EngineConfig(branch_limit=0)


def test_branch_limit_aborts_the_search():
    from semforce import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        decide(parse_formula(ILLUSTRATIONS[6]), EngineConfig(branch_limit=1))


def test_a_search_too_deep_for_the_interpreter_is_a_resource_limit(monkeypatch):
    from semforce import ResourceLimitError
    from semforce.decide import _Search

    def too_deep(self):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(_Search, "explore", too_deep)
    with pytest.raises(ResourceLimitError, match="recursion limit"):
        decide(parse_formula(ILLUSTRATIONS[6]))


def test_six_hundred_negations_decide_at_the_default_recursion_limit():
    # the tree build and evaluate recurse once per level, which 600 levels
    # fit; formula classes must not add a walk that recurses deeper
    f = parse_formula("~" * 600 + "P(a)")
    verdict = decide(f)
    assert isinstance(verdict, Invalid)
    assert evaluate(verdict.model, f) == 0


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


def test_the_renamed_deep_dyadic_formula_completes():
    # a deep instance search that once ran for 38 s
    f = parse_formula("exists y. exists x. exists y. forall x. forall x. R(x,x)")
    verdict = decide(f)
    assert isinstance(verdict, Invalid)
    assert len(verdict.state.tree.nodes) == 4382
    assert len(verdict.state.trace) == 4346
    assert evaluate(verdict.model, f, {}) == 0


def test_random_formulas_agree_with_the_oracle_at_budget_two(rng):
    from conftest import random_formula
    from semforce import Refuted, ValidUpTo, oracle_validity
    from semforce.formulas import classify_fragment

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
            # Valid and NoCountermodelUpTo(2) both promise silence below 3
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
