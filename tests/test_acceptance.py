"""Acceptance gate. One test per criterion, each reporting a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline; without -s they appear in captured output on failure.
"""

import functools
import random
import sys
import time

import pytest

from conftest import EXPECTED_VERDICT, ILLUSTRATIONS, REFERENCE_MODELS, canonical_structure, random_ground
from reference_phases import reference_saturate
from test_rules import CORRUPTED

from semforce import (
    Atom,
    Const,
    EngineConfig,
    Interpretation,
    Invalid,
    NoCountermodelUpTo,
    PremiseError,
    Refuted,
    Valid,
    ValidUpTo,
    build_initial_tree,
    decide,
    direct_force,
    evaluate,
    marks_from_model,
    oracle_validity,
    parse_formula,
    render_trace,
    verify_derived_rule,
)
from semforce.formulas import format_formula
from semforce.gen import random_monadic
from semforce.marking import MarkingState, saturate
from semforce.rules import CATALOG, NON_PROPOSITIONAL


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL ({label})", file=sys.stderr)
                raise
            print(f"criterion {n}: PASS ({label})")
        return wrapper
    return deco


@criterion(1, "six reference verdicts, each under a second")
def test_criterion_1():
    for k, src in sorted(ILLUSTRATIONS.items()):
        start = time.perf_counter()
        verdict = decide(parse_formula(src))
        elapsed = time.perf_counter() - start
        assert type(verdict).__name__ == EXPECTED_VERDICT[k], f"formula {k}"
        assert elapsed < 1.0, f"formula {k} took {elapsed:.2f}s"


@criterion(2, "countermodels isomorphic to the reference structures")
def test_criterion_2():
    for k, cfg in ((1, None), (4, None), (6, EngineConfig(max_individuals=2))):
        verdict = decide(parse_formula(ILLUSTRATIONS[k]), cfg)
        assert isinstance(verdict, Invalid), f"formula {k}"
        assert canonical_structure(verdict.model) == canonical_structure(
            REFERENCE_MODELS[k]
        ), f"formula {k}"


@criterion(3, "no one-element countermodels for the invalid references")
def test_criterion_3():
    for k in (1, 4):
        assert oracle_validity(parse_formula(ILLUSTRATIONS[k]), 1) == ValidUpTo(1), f"formula {k}"


@criterion(4, "500 random monadic formulas agree with the oracle")
def test_criterion_4():
    rng = random.Random(424242)
    start = time.perf_counter()
    for k in range(500):
        f = random_monadic(rng, preds=("P", "Q"), max_complexity=6)
        verdict = decide(f)
        oracle = oracle_validity(f, 4)  # 2^n for n=2 predicates
        if isinstance(verdict, Valid):
            assert oracle == ValidUpTo(4), f"#{k}: {format_formula(f)}"
        else:
            assert isinstance(verdict, Invalid), f"#{k}: {format_formula(f)}"
            assert isinstance(oracle, Refuted), f"#{k}: {format_formula(f)}"
            assert evaluate(verdict.model, f) == 0, f"#{k}: {format_formula(f)}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"500 formulas took {elapsed:.1f}s"


@criterion(5, "ground saturation is order-independent and truth-functional")
def test_criterion_5():
    rng = random.Random(987654)
    for k in range(1000):
        f = random_ground(rng, max_complexity=6)
        t = build_initial_tree(f)
        atoms = {}
        for nid in t.preorder():
            g = t.node_formula(nid)
            if isinstance(g, Atom):
                atoms.setdefault(g, rng.randint(0, 1))
        i = Interpretation(
            domain=("a", "b"),
            monadic={
                p: frozenset(
                    g.args[0].name for g, v in atoms.items() if g.pred == p and len(g.args) == 1 and v
                )
                for p in ("P", "Q")
            },
            dyadic={
                "R": frozenset(
                    (g.args[0].name, g.args[1].name)
                    for g, v in atoms.items()
                    if g.pred == "R" and v
                )
            },
            constants={"a": "a", "b": "b"},
        )
        states = []
        # the engine's agenda, then reference sweeps in preorder and postorder
        for order in (None, "pre", "post"):
            s = MarkingState(build_initial_tree(f))
            for nid in s.tree.preorder():
                g = s.tree.node_formula(nid)
                if isinstance(g, Atom) and s.marked(nid) is None:
                    s.set_mark(nid, atoms[g], "m")
            out = saturate(s) if order is None else reference_saturate(s, order=order)
            assert out is None, f"#{k}: {format_formula(f)}"
            marking = {n: s.marked(n) for n in s.tree.preorder()}
            assert all(v is not None for v in marking.values()), f"#{k}: partial marking"
            states.append((s, marking))
        assert states[0][1] == states[1][1] == states[2][1], f"#{k}: sweep orders disagree"
        s, marking = states[0]
        for nid, v in marking.items():
            assert v == evaluate(i, s.tree.node_formula(nid)), f"#{k}: node {nid}"


@criterion(6, "every propositional rule verifies; corrupted variants fail")
def test_criterion_6():
    for name in CATALOG:
        assert verify_derived_rule(name), name
    for spec in CORRUPTED:
        assert not verify_derived_rule(spec), spec.name
    for name in sorted(NON_PROPOSITIONAL):
        with pytest.raises(ValueError):
            verify_derived_rule(name)


@criterion(7, "countermodels refute; leaf marks match the model")
def test_criterion_7():
    for k, cfg in ((1, None), (4, None), (6, EngineConfig(max_individuals=2))):
        f = parse_formula(ILLUSTRATIONS[k])
        verdict = decide(f, cfg)
        assert evaluate(verdict.model, f) == 0, f"formula {k}"

    verdict = decide(parse_formula(ILLUSTRATIONS[1]))
    derived = marks_from_model(verdict.model, verdict.state.tree)
    leaves = {
        format_formula(verdict.state.tree.node_formula(n)): v
        for n, v in derived.items()
        if verdict.state.tree.nodes[n].kind == "atom"
    }
    assert leaves == {
        "P(w1)": 1,
        "R(w1,w1)": 1,
        "R(w1,w2)": 1,
        "R(w2,w1)": 0,
        "R(w2,w2)": 0,
    }
    for n, v in derived.items():
        assert verdict.state.marked(n) in (None, v)


@criterion(8, "unsound generalization is rejected; no false validity at any budget")
def test_criterion_8():
    # replay of the flawed head-on forcing of the quantifier-swap formula:
    # accepting the antecedent, instancing with the generic, witnessing, then
    # generalizing over the generic even though the witness depends on it
    f = parse_formula(ILLUSTRATIONS[6])
    t = build_initial_tree(f)
    s = MarkingState(t)
    left, right = t.nodes[t.root].children
    s.open_supposition(left, 1)
    g = s.introduce_generic()
    inst1 = s.instantiate(left, g, "IA∀")
    s.set_mark(inst1, 1, "A∀", (left,))
    w = Const(s.fresh_witness())
    inst2 = s.instantiate(inst1, w, "IA∃")
    s.set_mark(inst2, 1, "A∃", (inst1,))
    inst3 = s.instantiate(right, w, "I∃")
    inst4 = s.instantiate(inst3, g, "I∀")
    s.set_mark(inst4, 1, "IA", (inst2,))
    with pytest.raises(PremiseError, match="not independent"):
        s.set_mark(inst3, 1, "Aa∀", (inst4,))

    # reference 6, then invalid formulas once decided Valid: two by
    # generalizing over a variable free in the quantifier generalized, three
    # at the monadic bound, where redundant witnesses had filled the budget
    for src, want in (
        (ILLUSTRATIONS[6], Invalid),
        ("exists x. (exists y. ~exists x. R(x,y) | R(x,x))", Invalid),
        ("~forall y. exists x. R(x,x) -> exists x. ~exists y. exists y. R(y,x)", Invalid),
        ("forall x. Q(x) | forall x. Q(x) | ~exists x. Q(x)", NoCountermodelUpTo),
        ("(forall x. P(x) | exists x. P(x)) -> ~exists x. ~P(x)", NoCountermodelUpTo),
        ("P(b) -> exists x. P(a) -> forall x. P(x)", NoCountermodelUpTo),
    ):
        g = parse_formula(src)
        for budget in range(1, 9):
            verdict = decide(g, EngineConfig(max_individuals=budget))
            assert not isinstance(verdict, Valid), f"{src} at budget {budget}"
        verdict = decide(g)
        assert isinstance(verdict, want), src
        if want is Invalid:
            assert evaluate(verdict.model, g, {}) == 0


@criterion(9, "direct forcing succeeds exactly where it should")
def test_criterion_9():
    for k in (3, 5):
        verdict = direct_force(parse_formula(ILLUSTRATIONS[k]))
        assert isinstance(verdict, Valid), f"formula {k}"
        last = render_trace(verdict.state.trace).splitlines()[-1]
        assert last.split(". ", 1)[1].startswith("OAi-Ad→"), f"formula {k}"
    assert direct_force(parse_formula(ILLUSTRATIONS[6])) is None
