"""Shared fixtures: the worked formulas, reference countermodels, an
isomorphism canonicalizer, a broad random formula generator and a ground one,
the groundness test and the identifiers of a formula, the benchmark's
workload texts, a lowered recursion limit for the tests of walks that must
not recurse, and a hook that fails a test raising RecursionError at once."""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from semforce import And, Atom, Const, Exists, Forall, Iff, Imp, Interpretation, Not, Or, Var, parse_formula
from semforce.formulas import BINARY, QUANTIFIERS, Dyadic2Var, Slot, _postorder, classify_fragment
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


def random_ground(rng: random.Random, max_complexity: int = 6, monadic=("P", "Q"), dyadic=("R",), consts=("a", "b")):
    """A quantifier-free formula whose atoms are ground."""

    def atom():
        if dyadic and rng.random() < 0.4:
            pred = rng.choice(list(dyadic))
            return Atom(pred, (Const(rng.choice(list(consts))), Const(rng.choice(list(consts)))))
        pred = rng.choice(list(monadic))
        return Atom(pred, (Const(rng.choice(list(consts))),))

    def go(budget: int):
        if budget == 0 or rng.random() < 0.2:
            return atom()
        if rng.random() < 0.25:
            return Not(go(budget - 1))
        op = rng.choice(BINARY)
        return op(go(rng.randint(0, budget - 1)), go(rng.randint(0, budget - 1)))

    return go(max_complexity)


def is_ground(f) -> bool:
    """True when no unfilled placeholder (Slot) occurs in f."""
    return not any(type(t) is Slot for g in _postorder(f) if type(g) is Atom for t in g.args)


def identifiers_of(f) -> set[str]:
    """Every identifier used in f: predicates, constants, variable names."""
    out: set[str] = set()
    for g in _postorder(f):
        if type(g) is Atom:
            out.add(g.pred)
            out.update(t.name for t in g.args if isinstance(t, (Var, Const)))
        elif isinstance(g, QUANTIFIERS):
            out.add(g.var)
    return out


def balanced_pairs(n: int) -> str:
    """~ over a balanced conjunction of n (P(ci) | Q(ci)): its search nests
    one supposition per disjunction before it finds a countermodel."""
    parts = [f"(P(c{i}) | Q(c{i}))" for i in range(n)]
    while len(parts) > 1:
        parts = [f"({a} & {b})" if b else a for a, b in zip(parts[::2], parts[1::2] + [""])]
    return "~" + parts[0]


def bench_workloads():
    """perfbench/workloads.py, imported by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def workload_texts(name: str, seed: int = 424242) -> list[str]:
    """The formula texts of a benchmark workload, at its default seed unless given."""
    from semforce import formulas, gen

    return [item.text for item in bench_workloads().generate(name, seed, formulas, gen)]


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
