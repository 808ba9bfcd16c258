"""Concrete syntax, structure measures, fragments, and alpha-normalization."""

import random

import pytest

from semforce import (
    And,
    Atom,
    Const,
    Dyadic2Var,
    Exists,
    Forall,
    FreeVariableError,
    Iff,
    Imp,
    Monadic,
    Not,
    Or,
    Outside,
    ParseError,
    Var,
    alpha_normalize,
    classify_fragment,
    complexity,
    format_formula,
    parse_formula,
)
from semforce.formulas import constants_of, free_variables, is_ground, predicate_arities

from conftest import ILLUSTRATIONS, random_formula


def test_atom_parsing():
    assert parse_formula("P(c)") == Atom("P", (Const("c"),))
    assert parse_formula("R(c,d)") == Atom("R", (Const("c"), Const("d")))


def test_connective_precedence():
    f = parse_formula("P(a) | Q(b) & P(b)")
    assert isinstance(f, Or) and isinstance(f.right, And)
    f = parse_formula("P(a) -> Q(b) | P(b)")
    assert isinstance(f, Imp) and isinstance(f.right, Or)
    f = parse_formula("P(a) <-> Q(b) -> P(b)")
    assert isinstance(f, Iff) and isinstance(f.right, Imp)
    f = parse_formula("~P(a) & Q(b)")
    assert isinstance(f, And) and isinstance(f.left, Not)


def test_imp_right_associative():
    f = parse_formula("P(a) -> Q(a) -> P(b)")
    assert isinstance(f, Imp) and isinstance(f.right, Imp) and isinstance(f.left, Atom)


def test_and_left_associative():
    f = parse_formula("P(a) & Q(a) & P(b)")
    assert isinstance(f, And) and isinstance(f.left, And) and isinstance(f.right, Atom)


def test_quantifier_binds_at_unary_level():
    f = parse_formula("forall x. P(x) & Q(a)")
    assert isinstance(f, And) and isinstance(f.left, Forall)
    f = parse_formula("forall x. (P(x) & Q(a))")
    assert isinstance(f, Forall) and isinstance(f.body, And)
    f = parse_formula("exists y. forall x. P(y,x) -> Q(a)")
    assert isinstance(f, Imp) and isinstance(f.left, Exists)


def test_bound_versus_constant_names():
    f = parse_formula("forall x. P(x) & P(x)")
    assert f.left.body == Atom("P", (Var("x"),))
    # the second x is outside the quantifier scope, so it is a constant
    assert f.right == Atom("P", (Const("x"),))


def test_parse_errors_carry_position():
    for text in ["", "P(", "P(a", "forall. P(a)", "P(a) &", "P(a,b,c)", ")", "P(a) @ Q(b)"]:
        with pytest.raises(ParseError):
            parse_formula(text)
    try:
        parse_formula("P(a) &")
    except ParseError as e:
        assert e.position is not None


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula("~" * 3000 + "P(a)")


def test_arity_conflict_rejected():
    with pytest.raises(ParseError):
        parse_formula("P(a) & P(a,b)")


def test_illustrations_parse_and_format_round_trip():
    for text in ILLUSTRATIONS.values():
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f


def test_format_round_trip_random(rng):
    for _ in range(10000):
        f = random_formula(rng, rng.randint(0, 7))
        assert parse_formula(format_formula(f)) == f


def test_complexity():
    assert complexity(parse_formula("P(a)")) == 0
    assert complexity(parse_formula("~P(a)")) == 1
    assert complexity(parse_formula("P(a) & ~Q(b)")) == 2
    assert complexity(parse_formula(ILLUSTRATIONS[1])) == 4


def test_free_variables_and_constants():
    f = parse_formula(ILLUSTRATIONS[3])
    assert free_variables(f) == set()
    assert constants_of(f) == ["b"]
    assert is_ground(f)


def test_fragment_classification():
    assert classify_fragment(parse_formula("forall x. P(x) -> Q(x)")) == Monadic(2)
    assert classify_fragment(parse_formula(ILLUSTRATIONS[6])) == Dyadic2Var(1)
    assert classify_fragment(parse_formula(ILLUSTRATIONS[1])) == Dyadic2Var(2)
    # three distinct variables with a dyadic predicate leaves both fragments
    f = parse_formula("forall x. forall y. forall z. (R(x,y) -> R(y,z))")
    assert isinstance(classify_fragment(f), Outside)


def test_monadic_counts_distinct_predicates():
    assert classify_fragment(parse_formula("P(a) & P(b)")) == Monadic(1)
    assert classify_fragment(parse_formula("(P(a) & Q(b)) | H(c)")) == Monadic(3)


def test_alpha_normalize_identifies_variants():
    a = parse_formula("forall x. P(x)")
    b = parse_formula("forall y. P(y)")
    assert alpha_normalize(a) == alpha_normalize(b)
    a = parse_formula("forall x. exists y. R(x,y)")
    b = parse_formula("forall u. exists t. R(u,t)")
    assert alpha_normalize(a) == alpha_normalize(b)
    # different binding structure stays different
    c = parse_formula("forall x. exists y. R(y,x)")
    assert alpha_normalize(a) != alpha_normalize(c)


def test_alpha_normalize_random_rename_invariance(rng):
    for _ in range(2000):
        f = random_formula(rng, rng.randint(0, 6))
        assert alpha_normalize(f) == alpha_normalize(alpha_normalize(f))


def test_predicate_arities():
    f = parse_formula(ILLUSTRATIONS[1])
    assert predicate_arities(f) == {"P": 1, "R": 2}


def test_a_fresh_import_frees_the_previous_one():
    # module-level typing.Union aliases stay in typing's cache and would pin
    # every class of each earlier import in memory
    import os
    import subprocess
    import sys

    script = """
import gc, sys, weakref
import semforce
first = weakref.ref(sys.modules["semforce.formulas"].Atom)
for name in [m for m in sys.modules if m == "semforce" or m.startswith("semforce.")]:
    del sys.modules[name]
del semforce
import semforce
gc.collect()
assert first() is None, "the first import is still alive"
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
