"""Value semantics of the package's record classes: equality, hashing, repr,
immutability, pickling and copying, keyword construction, and what importing
the package loads."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from semforce import (
    And,
    Atom,
    Const,
    Dyadic2Var,
    EngineConfig,
    Exists,
    Forall,
    Interpretation,
    Invalid,
    Monadic,
    Not,
    Outside,
    Var,
    decide,
    parse_formula,
)
from semforce.formulas import Slot
from semforce.marking import DoubleMark, TraceStep
from semforce.models import Signature, ValidUpTo
from semforce.rules import CATALOG, RuleSpec

SRC = Path(__file__).resolve().parent.parent / "src"


def test_terms_compare_by_type_and_name():
    assert Var("x") == Var("x") and Const("x") == Const("x")
    assert Var("x") != Const("x")
    assert Var("x") != Var("y")
    assert Slot() == Slot()
    assert Var("x") != "x"


@pytest.mark.parametrize(
    "make",
    [
        lambda: Var("x"),
        lambda: Const("a"),
        lambda: Slot(),
        lambda: parse_formula("forall x. (P(x) -> exists y. R(x,y)) & ~Q(a)"),
        lambda: DoubleMark(1, 2),
        lambda: ValidUpTo(3),
        lambda: Monadic(2),
        lambda: Dyadic2Var(1),
        lambda: Outside(),
    ],
)
def test_equal_values_hash_alike(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_values_of_different_fields_differ():
    assert DoubleMark(1, 2) != DoubleMark(2, 1)
    assert ValidUpTo(3) != ValidUpTo(4)
    assert Monadic(2) != Dyadic2Var(2)
    assert parse_formula("P(a) & Q(a)") != parse_formula("P(a) | Q(a)")


def test_repr_names_the_fields():
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(Const("a")) == "Const(name='a')"
    assert repr(Slot()) == "Slot()"
    assert repr(DoubleMark(1, 2)) == "DoubleMark(n1=1, n2=2)"
    assert repr(Monadic(2)) == "Monadic(n=2)"
    assert repr(Outside()) == "Outside()"
    assert repr(ValidUpTo(3)) == "ValidUpTo(bound=3)"
    assert repr(parse_formula("forall x. ~P(x)")) == (
        "Forall(var='x', body=Not(sub=Atom(pred='P', args=(Var(name='x'),))))"
    )
    assert repr(TraceStep(1, 2, 0, "RR", ())) == (
        "TraceStep(step=1, node=2, value=0, rule='RR', premises=(), absorbed=False)"
    )
    assert repr(EngineConfig()) == "EngineConfig(max_individuals=None, branch_limit=10000, allow_direct=False)"


@pytest.mark.parametrize(
    "value,field",
    [
        (Var("x"), "name"),
        (Const("a"), "name"),
        (Atom("P", (Const("a"),)), "pred"),
        (Not(Atom("P", (Const("a"),))), "sub"),
        (And(Atom("P", (Const("a"),)), Atom("Q", (Const("a"),))), "left"),
        (Forall("x", Atom("P", (Var("x"),))), "var"),
        (Exists("x", Atom("P", (Var("x"),))), "body"),
        (Monadic(1), "n"),
        (Dyadic2Var(1), "n"),
        (CATALOG["A∧"], "name"),
        (DoubleMark(1, 2), "n1"),
        (Signature(("P",), (), ("a",)), "monadic"),
    ],
)
def test_frozen_values_refuse_assignment(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


def test_mutable_records_are_unhashable():
    for record in (
        TraceStep(1, None, None, "RR", ()),
        Interpretation(domain=("a",)),
        EngineConfig(),
    ):
        with pytest.raises(TypeError):
            hash(record)


def _invalid_model() -> Interpretation:
    verdict = decide(parse_formula("forall x. P(x) | exists x. Q(x)"))
    assert isinstance(verdict, Invalid)
    return verdict.model


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_formula("forall x. (P(x) <-> exists y. (R(x,y) | ~R(y,a)))"),
        lambda: Var("x"),
        lambda: Const("a"),
        lambda: Slot(),
        lambda: Monadic(2),
        _invalid_model,
    ],
)
def test_pickle_and_deepcopy_round_trip(make):
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)


def test_interpretations_do_not_share_default_dicts():
    a = Interpretation(domain=("a",))
    b = Interpretation(domain=("a",))
    a.monadic["P"] = frozenset({"a"})
    a.constants["c"] = "a"
    assert b.monadic == {} and b.dyadic == {} and b.constants == {}
    assert a != b


def test_keyword_construction():
    i = Interpretation(domain=("a",), monadic={"P": frozenset({"a"})}, constants={"c": "a"})
    assert i == Interpretation(("a",), {"P": frozenset({"a"})}, {}, {"c": "a"})
    cfg = EngineConfig(max_individuals=3)
    assert (cfg.max_individuals, cfg.branch_limit, cfg.allow_direct) == (3, 10000, False)
    step = TraceStep(4, 2, 1, "A∧", (3,), absorbed=True)
    assert step.absorbed and step.premises == (3,)
    assert TraceStep(step=4, node=2, value=1, rule="A∧", premises=(3,), absorbed=True) == step
    assert RuleSpec("A∧", "and", (("k", 1),), (("i", 1), ("d", 1))) == RuleSpec(
        name="A∧", connective="and", premises=(("k", 1),), conclusions=(("i", 1), ("d", 1)),
        primitive=False, equal_children=False,
    )


def test_positional_patterns_match_fields():
    match parse_formula("forall x. P(x) & Q(a)"):
        case And(Forall(var, _), Atom(pred, (Const(name),))):
            assert (var, pred, name) == ("x", "Q", "a")
        case _:
            pytest.fail("the pattern did not match")


def test_importing_the_package_loads_no_dataclass_machinery():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, semforce, semforce.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
