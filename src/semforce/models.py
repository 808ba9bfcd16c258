"""Model semantics: interpretations, evaluation, exhaustive search, and the
bridges between markings and models.

This side of the package is the independent check on the marking engine: a
formula is A-valid exactly when no interpretation evaluates it to 0, and every
countermodel the engine extracts must refute the formula here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import FreeVariableError, StateError
from .formulas import (
    BINARY,
    KIND_OF,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Not,
    Var,
    # not called here: the name stays importable because perfbench/tracer.py
    # patches models.alpha_normalize by attribute
    alpha_normalize,  # noqa: F401
    constants_of,
    free_variables,
    identifiers_of,
    predicate_arities,
)
from .rules import TRUTH_TABLE
from .tree import ForcingTree

Element = str
Env = dict[str, Element]


@dataclass
class Interpretation:
    """A finite structure: named individuals, extensions, constant denotations."""

    domain: tuple[Element, ...]
    monadic: dict[str, frozenset[Element]] = field(default_factory=dict)
    dyadic: dict[str, frozenset[tuple[Element, Element]]] = field(default_factory=dict)
    constants: dict[str, Element] = field(default_factory=dict)


@dataclass(frozen=True)
class Signature:
    monadic: tuple[str, ...]
    dyadic: tuple[str, ...]
    constants: tuple[str, ...]


@dataclass(frozen=True)
class ValidUpTo:
    bound: int


@dataclass
class Refuted:
    interpretation: Interpretation


OracleResult = ValidUpTo | Refuted


def signature_of(f: Formula) -> Signature:
    arities = predicate_arities(f)
    monadic = tuple(sorted(p for p, a in arities.items() if a == 1))
    dyadic = tuple(sorted(p for p, a in arities.items() if a == 2))
    return Signature(monadic, dyadic, tuple(constants_of(f)))


def _denote(i: Interpretation, term, env: Env) -> Element:
    if isinstance(term, Var):
        if term.name not in env:
            raise FreeVariableError(f"variable {term.name!r} has no assignment")
        return env[term.name]
    if isinstance(term, Const):
        if term.name not in i.constants:
            raise FreeVariableError(f"constant {term.name!r} has no denotation")
        return i.constants[term.name]
    raise StateError("cannot evaluate a formula with unfilled placeholders")


def evaluate(i: Interpretation, f: Formula, env: Optional[Env] = None) -> int:
    """Truth value of f in i under env, as 0 or 1."""
    env = env or {}
    memo: dict[tuple, int] = {}

    def go(g: Formula, e: tuple[tuple[str, Element], ...]) -> int:
        key = (id(g), e)
        got = memo.get(key)
        if got is not None:
            return got
        env_d = dict(e)
        if isinstance(g, Atom):
            vals = tuple(_denote(i, t, env_d) for t in g.args)
            if len(vals) == 1:
                v = int(vals[0] in i.monadic.get(g.pred, frozenset()))
            else:
                v = int(vals in i.dyadic.get(g.pred, frozenset()))
        elif isinstance(g, Not):
            v = 1 - go(g.sub, e)
        elif isinstance(g, BINARY):
            v = TRUTH_TABLE[KIND_OF[type(g)]](go(g.left, e), go(g.right, e))
        elif isinstance(g, Forall):
            v = int(all(go(g.body, _bind(e, g.var, d)) for d in i.domain))
        elif isinstance(g, Exists):
            v = int(any(go(g.body, _bind(e, g.var, d)) for d in i.domain))
        else:
            raise StateError(f"cannot evaluate node of type {type(g).__name__}")
        memo[key] = v
        return v

    return go(f, tuple(sorted(env.items())))


def _bind(e: tuple[tuple[str, Element], ...], var: str, d: Element) -> tuple[tuple[str, Element], ...]:
    out = dict(e)
    out[var] = d
    return tuple(sorted(out.items()))


def _domain_names(size: int) -> tuple[Element, ...]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return tuple(letters[k] if k < 26 else f"e{k + 1}" for k in range(size))


def enumerate_interpretations(sig: Signature, domain_size: int) -> Iterator[Interpretation]:
    """All interpretations of sig over a fixed domain of the given size, in a
    deterministic order: constant assignments outermost, then one bitmask per
    predicate, monadic before dyadic, each in sorted predicate order."""
    if domain_size < 1:
        raise ValueError("models are nonempty: domain_size must be at least 1")
    domain = _domain_names(domain_size)
    d = domain_size
    pairs = tuple((domain[i], domain[j]) for i in range(d) for j in range(d))
    mono_masks = [range(2 ** d)] * len(sig.monadic)
    dy_masks = [range(2 ** (d * d))] * len(sig.dyadic)
    for const_vals in itertools.product(domain, repeat=len(sig.constants)):
        constants = dict(zip(sig.constants, const_vals))
        for masks in itertools.product(*mono_masks, *dy_masks):
            mono = {
                p: frozenset(domain[k] for k in range(d) if masks[idx] >> k & 1)
                for idx, p in enumerate(sig.monadic)
            }
            off = len(sig.monadic)
            dy = {
                p: frozenset(pairs[k] for k in range(d * d) if masks[off + idx] >> k & 1)
                for idx, p in enumerate(sig.dyadic)
            }
            yield Interpretation(domain, mono, dy, dict(constants))


def oracle_validity(f: Formula, max_domain: int) -> OracleResult:
    """Exhaustive refutation search over all domains up to max_domain."""
    if max_domain < 1:
        raise ValueError("models are nonempty: max_domain must be at least 1")
    if free_variables(f):
        raise FreeVariableError("the oracle decides closed formulas only")
    sig = signature_of(f)
    for size in range(1, max_domain + 1):
        for interp in enumerate_interpretations(sig, size):
            if evaluate(interp, f, {}) == 0:
                return Refuted(interp)
    return ValidUpTo(max_domain)


def extract_model(s) -> Interpretation:
    """Read the countermodel out of a quiescent consistent total marking: the
    registry is the domain, constants denote themselves, and an atom's tuple is
    in the extension exactly when a node carrying that atom is marked 1.

    A generic variable in the registry becomes a fresh constant-like element so
    the result is a plain structure.
    """
    source = s.tree.source
    used = identifiers_of(source) | {t.name for t in s.domain_registry}
    names: dict = {}
    for term in s.domain_registry:
        if isinstance(term, Const):
            names[term] = term.name
        else:
            fresh = next(
                c for c in _fresh_names() if c not in used and c not in names.values()
            )
            names[term] = fresh
    domain = tuple(names[t] for t in s.domain_registry)
    constants = {t.name: names[t] for t in s.domain_registry if isinstance(t, Const)}
    arities = predicate_arities(source)
    monadic: dict[str, frozenset] = {}
    dyadic: dict[str, frozenset] = {}

    def marked_one(atom: Atom) -> bool:
        hit = s.consensus.get(s.class_of(atom))
        return hit is not None and hit[0] == 1

    for pred, arity in sorted(arities.items()):
        if arity == 1:
            monadic[pred] = frozenset(
                names[t] for t in s.domain_registry if marked_one(Atom(pred, (t,)))
            )
        else:
            dyadic[pred] = frozenset(
                (names[t], names[u])
                for t in s.domain_registry
                for u in s.domain_registry
                if marked_one(Atom(pred, (t, u)))
            )
    return Interpretation(domain, monadic, dyadic, constants)


def _fresh_names() -> Iterator[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    for c in letters:
        yield c
    k = 1
    while True:
        yield f"e{k}"
        k += 1


def marks_from_model(i: Interpretation, t: ForcingTree, env: Optional[Env] = None) -> dict[int, int]:
    """Truth value of every evaluable ground node of t in i: the marking the
    model induces. Nodes with unfilled placeholders, or free variables not
    covered by env, are left out."""
    env = env or {}
    out: dict[int, int] = {}
    for nid in t.preorder():
        if not t.is_ground_node(nid):
            continue
        f = t.node_formula(nid)
        if not free_variables(f) <= set(env):
            continue
        out[nid] = evaluate(i, f, env)
    return out
