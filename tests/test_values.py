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
    NoCountermodelUpTo,
    Not,
    Outside,
    Valid,
    Var,
    decide,
    parse_formula,
)
from semforce.formulas import FrozenRecord, Slot
from semforce.marking import Checkpoint, DoubleMark, Frame, TraceStep
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
    # terms are interned: equal terms are one object
    assert (a is b) == isinstance(a, (Var, Const))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_copies_of_terms_are_the_interned_terms():
    f = parse_formula("P(a) & Q(a)")
    a = f.left.args[0]
    assert a is f.right.args[0] is Const("a")
    assert Var("x") is not Const("x") and Var("x") != Const("x")
    for copier in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        assert copier(a) is a and copier(Var("x")) is Var("x")
        twin = copier(f)
        assert twin.left.args[0] is a and twin.right.args[0] is a


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


# the records whose constructors are written out, each with one set of field
# values and its repr; the values are plain, so that copies compare equal
_CHECKPOINT = Checkpoint(2, 1, 0, 5, 9, DoubleMark(3, 4), {7: None})
WRITTEN_OUT = [
    (DoubleMark, (1, 2), "DoubleMark(n1=1, n2=2)"),
    (Monadic, (2,), "Monadic(n=2)"),
    (Dyadic2Var, (1,), "Dyadic2Var(n=1)"),
    (Checkpoint, (2, 1, 0, 5, 9, DoubleMark(3, 4), {7: None}),
     "Checkpoint(marked_len=2, registry_len=1, scopes_len=0, trace_len=5, next_nid=9, "
     "dm=DoubleMark(n1=3, n2=4), agenda={7: None})"),
    (Frame, (3, "OA", _CHECKPOINT), f"Frame(node=3, kind='OA', checkpoint={_CHECKPOINT!r})"),
    (Valid, ([TraceStep(1, 1, 0, "RR", ())], None),
     "Valid(trace=[TraceStep(step=1, node=1, value=0, rule='RR', premises=(), absorbed=False)], state=None)"),
    (Invalid, (Interpretation(("a",)), None),
     "Invalid(model=Interpretation(domain=('a',), monadic={}, dyadic={}, constants={}), state=None)"),
    (NoCountermodelUpTo, (4, None), "NoCountermodelUpTo(bound=4, state=None)"),
]


@pytest.mark.parametrize("cls,args,text", WRITTEN_OUT, ids=[cls.__name__ for cls, _, _ in WRITTEN_OUT])
def test_written_out_constructors_keep_the_record_semantics(cls, args, text):
    value = cls(*args)
    assert repr(value) == text
    assert value == cls(**dict(zip(cls.__match_args__, args)))
    assert value != cls(*args[:-1], "other")
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == text
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(**dict(zip(cls.__match_args__, args)), other=None)
    field = cls.__match_args__[0]
    if isinstance(value, FrozenRecord):
        with pytest.raises(AttributeError):
            setattr(value, field, args[0])
        assert hash(value) == hash(cls(*args))
    else:
        with pytest.raises(TypeError):
            hash(value)


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
