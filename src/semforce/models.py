"""Model semantics: interpretations, evaluation, exhaustive search, and the
bridges between markings and models.

This side of the package is the independent check on the marking engine: a
formula is A-valid exactly when no interpretation evaluates it to 0, and every
countermodel the engine extracts must refute the formula here.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .errors import FreeVariableError, StateError
from .formulas import (
    BINARY,
    KIND_OF,
    QUANTIFIERS,
    Atom,
    Const,
    Exists,
    Formula,
    FrozenRecord,
    Not,
    Record,
    Var,
    # not called here: the name stays importable because perfbench/tracer.py
    # patches models.alpha_normalize by attribute
    alpha_normalize,  # noqa: F401
    constants_of,
    free_variables,
    predicate_arities,
)
from .rules import TRUTH_TABLE
from .tree import ForcingTree

Element = str
Env = dict[str, Element]


class Interpretation(Record):
    """A finite structure: named individuals, extensions, constant denotations."""

    __match_args__ = __slots__ = ("domain", "monadic", "dyadic", "constants")

    def __init__(
        self, domain: tuple[Element, ...], monadic: Optional[dict[str, frozenset[Element]]] = None,
        dyadic: Optional[dict[str, frozenset[tuple[Element, Element]]]] = None,
        constants: Optional[dict[str, Element]] = None,
    ) -> None:
        self.domain = domain
        self.monadic = {} if monadic is None else monadic
        self.dyadic = {} if dyadic is None else dyadic
        self.constants = {} if constants is None else constants


class Signature(FrozenRecord):
    __match_args__ = __slots__ = ("monadic", "dyadic", "constants")


class ValidUpTo(FrozenRecord):
    __match_args__ = __slots__ = ("bound",)


class Refuted(Record):
    __match_args__ = __slots__ = ("interpretation",)


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
    """Truth value of f in i under env, as 0 or 1. A quantified subformula is
    memoized on the whole environment, so n nested binders of one variable
    cost about n·|D|² rather than |D|^n."""
    memo: dict[tuple, int] = {}

    def go(g: Formula, e: Env) -> int:
        if isinstance(g, Atom):
            vals = tuple(_denote(i, t, e) for t in g.args)
            if len(vals) == 1:
                return int(vals[0] in i.monadic.get(g.pred, frozenset()))
            return int(vals in i.dyadic.get(g.pred, frozenset()))
        if isinstance(g, Not):
            return 1 - go(g.sub, e)
        if isinstance(g, BINARY):
            return TRUTH_TABLE[KIND_OF[type(g)]](go(g.left, e), go(g.right, e))
        if isinstance(g, QUANTIFIERS):
            # every visit to g builds e by the same binders in the same order,
            # so its items, in their order, key it
            key = (id(g), *e.items())
            got = memo.get(key)
            if got is None:
                # a loop rather than all()/any() over a generator, so that a
                # binder costs one frame: the value that settles the
                # quantifier (0 for forall, 1 for exists) ends it
                settle = int(isinstance(g, Exists))
                got = 1 - settle
                for d in i.domain:
                    if go(g.body, {**e, g.var: d}) == settle:
                        got = settle
                        break
                memo[key] = got
            return got
        raise StateError(f"cannot evaluate node of type {type(g).__name__}")

    return go(f, env or {})


def _element_names() -> Iterator[str]:
    """Element names in order: a to z, then e<k> for the k-th name (e27, ...)."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    for k in itertools.count():
        yield letters[k] if k < 26 else f"e{k + 1}"


def _domain_names(size: int) -> tuple[Element, ...]:
    return tuple(itertools.islice(_element_names(), size))


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


# the most interpretations oracle_validity will face; at 20-30 µs each for a
# formula that nests no quantifier in another (Python 3.11.7, shared 2-core
# machine) that is about 2 s. Nesting multiplies it: `forall x. forall y.`
# over P and Q costs about 0.9 ms each at domain size 7
ORACLE_LIMIT = 2 ** 16


class OracleLimitError(ValueError):
    """oracle_validity's refusal of a domain size whose interpretations, with
    those of the sizes below it, pass `ORACLE_LIMIT`."""


def interpretation_count(sig: Signature, domain_size: int) -> int:
    """How many interpretations `enumerate_interpretations` yields over one
    domain: d^c · 2^(m·d) · 2^(k·d²) for c constants, m monadic and k dyadic
    predicates."""
    d = domain_size
    return d ** len(sig.constants) * 2 ** (len(sig.monadic) * d + len(sig.dyadic) * d * d)


def oracle_validity(f: Formula, max_domain: int) -> OracleResult:
    """Exhaustive refutation search over all domains up to max_domain,
    smallest first. Before each domain it counts the interpretations up to
    that size, and raises OracleLimitError once they pass `ORACLE_LIMIT`:
    a countermodel found on a smaller domain still answers."""
    if max_domain < 1:
        raise ValueError("models are nonempty: max_domain must be at least 1")
    if free_variables(f):
        raise FreeVariableError("the oracle decides closed formulas only")
    sig = signature_of(f)
    total = 0
    for size in range(1, max_domain + 1):
        total += interpretation_count(sig, size)
        if total > ORACLE_LIMIT:
            raise OracleLimitError(
                f"the oracle would enumerate {total} interpretations up to domain size {size}, "
                f"over its limit of {ORACLE_LIMIT}"
            )
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
    used = s.tree.identifiers | {t.name for t in s.domain_registry}
    names: dict = {}
    for term in s.domain_registry:
        if isinstance(term, Const):
            names[term] = term.name
        else:
            fresh = next(
                c for c in _element_names() if c not in used and c not in names.values()
            )
            names[term] = fresh
    domain = tuple(names[t] for t in s.domain_registry)
    constants = {t.name: names[t] for t in s.domain_registry if isinstance(t, Const)}
    arities = s.tree.arities
    monadic: dict[str, frozenset] = {}
    dyadic: dict[str, frozenset] = {}

    def marked_one(pred: str, args: tuple) -> bool:
        hit = s.consensus.get(s.tree.atom_class(pred, args))
        return hit is not None and hit[0] == 1

    for pred, arity in sorted(arities.items()):
        if arity == 1:
            monadic[pred] = frozenset(
                names[t] for t in s.domain_registry if marked_one(pred, (t,))
            )
        else:
            dyadic[pred] = frozenset(
                (names[t], names[u])
                for t in s.domain_registry
                for u in s.domain_registry
                if marked_one(pred, (t, u))
            )
    return Interpretation(domain, monadic, dyadic, constants)


def marks_from_model(i: Interpretation, t: ForcingTree, env: Optional[Env] = None) -> dict[int, int]:
    """Truth value of every evaluable ground node of t in i: the marking the
    model induces. Nodes with unfilled placeholders, or free variables not
    covered by env, are left out."""
    env = env or {}
    out: dict[int, int] = {}
    for nid in t.preorder():
        if t.nodes[nid].ground and t.node_free_variables(nid) <= env.keys():
            out[nid] = evaluate(i, t.node_formula(nid), env)
    return out
