"""Concrete syntax, structure measures, fragments, alpha-normalization, and
the seeded formula generator."""

import hashlib
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
from semforce.formulas import predicate_arities
from semforce.gen import random_monadic

from conftest import ILLUSTRATIONS, constants_of, drop_vacuous, free_variables, is_ground, random_formula


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


@pytest.mark.parametrize("op,cls", [("|", Or), ("<->", Iff)])
def test_or_and_iff_left_associative(op, cls):
    text = f"P(a) {op} Q(a) {op} P(b)"
    f = parse_formula(text)
    assert isinstance(f, cls) and isinstance(f.left, cls) and isinstance(f.right, Atom)
    assert format_formula(f) == text
    assert format_formula(cls(f.right, f.left)) == f"P(b) {op} (P(a) {op} Q(a))"


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


def test_four_hundred_nested_parentheses_parse():
    # a parenthesis costs the parser two frames, one in unary and one in formula
    assert parse_formula("(" * 400 + "P(a)" + ")" * 400) == Atom("P", (Const("a"),))


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
    # a subformula with three free variables and a dyadic predicate leaves both fragments
    f = parse_formula("forall x. forall y. forall z. (R(x,y) -> R(y,z))")
    assert isinstance(classify_fragment(f), Outside)
    # three names, but two-variable after renaming z to y
    f = parse_formula("exists x. exists y. (forall z. R(x,z) <-> S(y,y))")
    assert classify_fragment(f) == Dyadic2Var(2)


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


def test_deep_formulas_compare_and_hash_without_recursion():
    f, g = (parse_formula("~" * 900 + "P(a)") for _ in range(2))
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != parse_formula("~" * 900 + "P(b)")
    chains = []
    for _ in range(2):
        h = Atom("P", (Const("a"),))
        for _ in range(5000):
            h = Not(h)
        chains.append(h)
    a, b = chains
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Not(b) and a.sub == b.sub


def test_formula_equality_follows_structure_and_bound_names():
    f = parse_formula("forall x. (P(x) & R(x,a)) -> exists y. ~Q(y)")
    g = parse_formula("forall x. (P(x) & R(x,a)) -> exists y. ~Q(y)")
    assert f == g and hash(f) == hash(g) and {f: 1}[g] == 1
    for other in ("forall y. (P(y) & R(y,a)) -> exists y. ~Q(y)",
                  "forall x. (P(x) | R(x,a)) -> exists y. ~Q(y)",
                  "forall x. (P(x) & R(x,b)) -> exists y. ~Q(y)",
                  "forall x. (P(x) & R(x,a)) -> forall y. ~Q(y)"):
        assert f != parse_formula(other), other
    assert Not(Atom("P", (Const("a"),))) != Atom("P", (Const("a"),))
    assert f != str(f) and str(f) == format_formula(f)


# ----------------------------------------------------------- vacuous binders


def test_drop_vacuous_drops_a_binder_shadowed_by_an_inner_one():
    assert drop_vacuous(parse_formula("forall x. forall x. P(x)")) == parse_formula("forall x. P(x)")
    f = parse_formula("exists y. exists x. exists y. forall x. forall x. R(x,x)")
    assert drop_vacuous(f) == parse_formula("forall x. R(x,x)")


def test_drop_vacuous_drops_a_binder_whose_body_names_only_constants():
    assert drop_vacuous(parse_formula("exists x. P(a)")) == parse_formula("P(a)")
    f = parse_formula("~forall y. (P(a) & exists x. Q(x)) -> exists x. R(x,a)")
    assert drop_vacuous(f) == parse_formula("~(P(a) & exists x. Q(x)) -> exists x. R(x,a)")


def test_drop_vacuous_returns_its_input_when_every_binder_binds():
    for text in ILLUSTRATIONS.values():
        f = parse_formula(text)
        assert drop_vacuous(f) is f


def test_drop_vacuous_keeps_free_variables_and_leaves_no_vacuous_binder(rng):
    for _ in range(2000):
        f = random_formula(rng, rng.randint(0, 6))
        g = drop_vacuous(f)
        assert free_variables(g) == free_variables(f)
        assert drop_vacuous(g) is g


def test_drop_vacuous_walks_a_deep_quantifier_nest_without_recursion():
    inner = Atom("P", (Var("x"),))
    f = inner
    for _ in range(5000):
        f = Forall("x", f)
    assert drop_vacuous(f) == Forall("x", inner)
    # 5000 binders that each bind their own variable come back untouched
    f = Atom("P", (Const("a"),))
    for k in range(5000):
        f = Exists(f"x{k}", And(Atom("P", (Var(f"x{k}"),)), f))
    assert drop_vacuous(f) is f


def test_predicate_arities():
    f = parse_formula(ILLUSTRATIONS[1])
    assert predicate_arities(f) == {"P": 1, "R": 2}


def test_random_monadic_without_constants_draws_closed_monadic_formulas():
    rng = random.Random(0)
    for _ in range(200):
        f = random_monadic(rng, consts=())
        assert not free_variables(f) and not constants_of(f), format_formula(f)
        assert isinstance(classify_fragment(f), Monadic), format_formula(f)
        assert complexity(f) <= 6
    # below a binder's worth of budget no closed formula lacks constants
    with pytest.raises(ValueError):
        random_monadic(rng, consts=(), max_complexity=0)


def test_random_monadic_default_stream_is_unchanged():
    # monadic-batch and the behaviour dump draw this stream, so a generator
    # change must leave its draws for the default constants alone
    rng = random.Random(424242)
    text = "\n".join(format_formula(random_monadic(rng, preds=("P", "Q"), max_complexity=6)) for _ in range(500))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "cc54f0a758d519f6"
    assert rng.random() == 0.3184846425035537


def test_random_monadic_streams_past_the_variable_pool_are_unchanged():
    # deep nesting binds the x1, x2, ... names past the six-name pool, and
    # three predicates, two constants and none draw through the lists the
    # generator builds once per call
    rng = random.Random(424242)
    texts = [
        format_formula(random_monadic(rng, preds=("P", "Q", "R"), max_complexity=12, consts=consts))
        for _ in range(100) for consts in (("a", "b"), ())
    ]
    assert any(" x1." in text for text in texts)
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16] == "76c1869d8116431b"
    assert rng.random() == 0.8293618995697941


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
