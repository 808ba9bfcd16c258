"""Shared fixtures: the worked formulas, reference countermodels, an
isomorphism canonicalizer, a broad random formula generator and a ground one,
the groundness test and the identifiers of a formula, the formula walkers
that the tree's facts are checked against (free variables, constants, the
formula without its vacuous binders), a node-by-node check of a
countermodel against the marks, the benchmark's workload texts, a random
formula stream for the oracle, a lowered recursion limit for the tests of
walks that must not recurse, and a hook that fails a test raising
RecursionError at once."""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from semforce import (
    And, Atom, Const, Exists, Forall, Iff, Imp, Interpretation, Not, Or, ParseError, Signature, Var, domain_bound,
    marks_from_model, parse_formula,
)
from semforce.formulas import (
    BINARY, QUANTIFIERS, Dyadic2Var, Formula, Slot, _free_sets, _postorder, classify_arities, classify_fragment,
    predicate_arities,
)
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


def free_variables(f: Formula) -> set[str]:
    """Names of variables with at least one free occurrence."""
    return set(list(_free_sets(f))[-1])


def constants_of(f: Formula) -> list[str]:
    """Constant names in first-occurrence order."""
    return list(dict.fromkeys(t.name for g in _postorder(f) if type(g) is Atom for t in g.args if type(t) is Const))


def drop_vacuous(f: Formula) -> Formula:
    """f without its vacuous binders: the quantifiers whose variable is not
    free in their body, such as the outer one of `exists x. forall x. P(x)`.
    Models are nonempty, so Qx.A is equivalent to A when x is not free in A.
    Returns f itself when no binder is vacuous. One postorder pass that
    composes free variables bottom-up and rebuilds only what changed. The
    tree build with drop_vacuous makes this formula's tree."""
    done: list[tuple[Formula, frozenset[str]]] = []
    for g in _postorder(f):
        if isinstance(g, Atom):
            done.append((g, frozenset(t.name for t in g.args if isinstance(t, Var))))
        elif isinstance(g, Not):
            sub, free = done[-1]
            done[-1] = (g if sub is g.sub else Not(sub), free)
        elif isinstance(g, BINARY):
            right, rfree = done.pop()
            left, lfree = done.pop()
            same = left is g.left and right is g.right
            done.append((g if same else type(g)(left, right), lfree | rfree))
        else:
            body, free = done[-1]
            # a vacuous binder leaves its body in its place
            if g.var in free:
                done[-1] = (g if body is g.body else type(g)(g.var, body), free - {g.var})
    return done[0][0]


def ast_signature(f: Formula) -> Signature:
    """f's oracle signature from walks of f: predicates by arity, sorted,
    and constants in first-occurrence order."""
    arities = predicate_arities(f)
    monadic = tuple(sorted(p for p, a in arities.items() if a == 1))
    dyadic = tuple(sorted(p for p, a in arities.items() if a == 2))
    return Signature(monadic, dyadic, tuple(constants_of(f)))


def assert_marks_hold_in_the_countermodel(verdict) -> None:
    """The paper's countermodel theorem, node by node: every marked node of
    an Invalid verdict's tree is ground, and its mark is its truth value in
    the extracted model, with the generic variable denoting the element
    `extract_model` names for it (the domain lists the registry in order)."""
    s, model = verdict.state, verdict.model
    element = dict(zip(s.domain_registry, model.domain))
    env = {t.name: element[t] for t in s.domain_registry if type(t) is Var}
    truth = marks_from_model(model, s.tree, env)
    wrong = {n: (v, truth.get(n)) for n, v in s.marks.items() if truth.get(n) != v}
    assert not wrong, f"node: (mark, truth value) {wrong}"


def fragment_budget(t) -> int:
    """The individual budget decide gives the source of tree t: its
    fragment's default."""
    return domain_bound(classify_arities(t.arities, t.width))


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


def workload_formulas() -> list[Formula]:
    """Every formula of the three benchmark workloads that parses: two of
    large-formula's nest deeper than the parser goes."""
    out = []
    for name in ("monadic-batch", "fo2-batch", "large-formula"):
        for text in workload_texts(name):
            try:
                out.append(parse_formula(text))
            except ParseError:
                pass
    return out


def workload_texts(name: str, seed: int = 424242) -> list[str]:
    """The formula texts of a benchmark workload, at its default seed unless given."""
    from semforce import formulas, gen

    return [item.text for item in bench_workloads().generate(name, seed, formulas, gen)]


def oracle_stream(count: int):
    """count formulas the benchmark does not draw: monadic formulas over one
    to three predicates with two constants at complexity 3-8, alternating
    with unfiltered random_fo2 formulas at complexity 3-8 (the fo2 workload
    draws complexity 5 only, and keeps the dyadic ones)."""
    from semforce import formulas

    fo2 = bench_workloads().random_fo2
    rng = random.Random(20240817)
    for k in range(count):
        if k % 2:
            preds = ("P", "Q", "R")[: rng.randint(1, 3)]
            yield random_monadic(rng, preds=preds, max_complexity=rng.randint(3, 8), consts=("a", "b"))
        else:
            yield fo2(rng, formulas, rng.randint(3, 8))


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
