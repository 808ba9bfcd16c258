"""Shared fixtures: the worked formulas, reference countermodels, an
isomorphism canonicalizer, a broad random formula generator, a lowered
recursion limit for the tests of walks that must not recurse, and a hook that
fails a test raising RecursionError at once."""

from __future__ import annotations

import itertools
import random
import sys

import pytest

from semforce import And, Atom, Const, Exists, Forall, Iff, Imp, Interpretation, Not, Or, Var, parse_formula
from semforce.formulas import Dyadic2Var, classify_fragment
from semforce.gen import random_monadic

ILLUSTRATIONS = {
    1: "exists x. (P(x) & forall y. R(x,y)) -> forall x. exists y. R(x,y)",
    2: "forall x. (exists y. P(y) -> ~exists y. ~R(y,x)) -> ~exists x. (P(x) & ~forall y. R(x,y))",
    3: "forall x. ((P(x) & Q(b)) & exists y. R(x,y)) -> forall x. ~(P(x) -> ~Q(b))",
    4: "(forall x. (H(x) -> B(x)) & exists x. (~B(x) & A(x))) -> forall x. (H(x) -> ~A(x))",
    5: "exists y. forall x. P(y,x) -> ~exists x. forall y. ~P(y,x)",
    6: "forall x. exists y. P(x,y) -> exists y. forall x. P(x,y)",
}

EXPECTED_VERDICT = {1: "Invalid", 2: "Valid", 3: "Valid", 4: "Invalid", 5: "Valid", 6: "Invalid"}

REFERENCE_MODELS = {
    1: Interpretation(
        domain=("a", "b"),
        monadic={"P": frozenset({"b"})},
        dyadic={"R": frozenset({("b", "a"), ("b", "b")})},
    ),
    4: Interpretation(
        domain=("d", "e"),
        monadic={"H": frozenset({"d"}), "B": frozenset({"d"}), "A": frozenset({"d", "e"})},
        dyadic={},
    ),
    6: Interpretation(
        domain=("a", "b"),
        monadic={},
        dyadic={"P": frozenset({("a", "b"), ("b", "a")})},
    ),
}


def canonical_structure(i: Interpretation):
    """Name-independent form of the predicate structure: the least relabeling
    over all domain permutations. Two interpretations are isomorphic (ignoring
    constant denotations) exactly when these agree."""
    best = None
    for perm in itertools.permutations(range(len(i.domain))):
        rename = {e: perm[k] for k, e in enumerate(i.domain)}
        mono = tuple(
            (p, tuple(sorted(rename[e] for e in ext))) for p, ext in sorted(i.monadic.items())
        )
        dy = tuple(
            (p, tuple(sorted((rename[a], rename[b]) for a, b in ext)))
            for p, ext in sorted(i.dyadic.items())
        )
        cand = (len(i.domain), mono, dy)
        if best is None or cand < best:
            best = cand
    return best


def random_formula(rng: random.Random, budget: int, bound: tuple[str, ...] = ()):
    """Closed random formula mixing monadic and dyadic atoms, any variable
    count. Used for parser round-trips and structural properties."""
    pool = ("x", "y", "z", "u", "t", "s")
    choices = ["atom"]
    if budget > 0:
        choices += ["not", "and", "or", "imp", "iff", "forall", "exists", "forall", "exists"]
    pick = rng.choice(choices)
    if pick == "atom":
        def term():
            if bound and rng.random() < 0.8:
                return Var(rng.choice(bound))
            return Const(rng.choice(("a", "b", "c")))
        if rng.random() < 0.4:
            return Atom(rng.choice(("R", "S")), (term(), term()))
        return Atom(rng.choice(("P", "Q")), (term(),))
    if pick == "not":
        return Not(random_formula(rng, budget - 1, bound))
    if pick in ("and", "or", "imp", "iff"):
        op = {"and": And, "or": Or, "imp": Imp, "iff": Iff}[pick]
        return op(
            random_formula(rng, rng.randint(0, budget - 1), bound),
            random_formula(rng, rng.randint(0, budget - 1), bound),
        )
    fresh = next(v for v in pool + tuple(f"x{k}" for k in range(1, 40)) if v not in bound)
    body = random_formula(rng, budget - 1, bound + (fresh,))
    return (Forall if pick == "forall" else Exists)(fresh, body)


def balanced_pairs(n: int) -> str:
    """~ over a balanced conjunction of n (P(ci) | Q(ci)): its search nests
    one supposition per disjunction before it finds a countermodel."""
    parts = [f"(P(c{i}) | Q(c{i}))" for i in range(n)]
    while len(parts) > 1:
        parts = [f"({a} & {b})" if b else a for a, b in zip(parts[::2], parts[1::2] + [""])]
    return "~" + parts[0]


def within_a_shallow_stack(read, spare: int = 100):
    """read() run with at most `spare` frames of stack to spare, so that a
    walk recursing once per level fails."""
    frames, f = 0, sys._getframe()
    while f is not None:
        frames, f = frames + 1, f.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + spare)
    try:
        return read()
    finally:
        sys.setrecursionlimit(limit)


@pytest.hookimpl(wrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    """Report a test's RecursionError as a plain failure: pytest searches a
    RecursionError's traceback for a repeated frame by comparing frame locals,
    which with deep formulas among them takes minutes."""
    try:
        return (yield)
    except RecursionError as e:
        raise AssertionError(f"RecursionError: {e}") from None


def differential_formulas():
    """The worked formulas, 150 criterion-4 monadic formulas and 40 closed
    two-variable dyadic ones, for differential checks of the engine."""
    out = [parse_formula(src) for src in ILLUSTRATIONS.values()]
    rng = random.Random(424242)
    out += [random_monadic(rng, preds=("P", "Q"), max_complexity=6) for _ in range(150)]
    rng = random.Random(7)
    dyadic = []
    while len(dyadic) < 40:
        f = random_formula(rng, rng.randint(2, 6))
        if isinstance(classify_fragment(f), Dyadic2Var):
            dyadic.append(f)
    return out + dyadic


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240817)
