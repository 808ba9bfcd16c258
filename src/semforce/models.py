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
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    FrozenRecord,
    Not,
    Record,
    Var,
    # not called here: the name stays importable because perfbench/tracer.py
    # patches models.alpha_normalize by attribute
    alpha_normalize,  # noqa: F401
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
    """f's predicates by arity, each sorted, and its constants in
    first-occurrence order, read from f's forcing tree (`_signature`);
    raises FreeVariableError on a predicate used with two arities."""
    return _signature(ForcingTree(f))


def _signature(t: ForcingTree) -> Signature:
    """The signature of t's source, from the facts its build gathered."""
    arities = t.arities
    monadic = tuple(sorted(p for p, a in arities.items() if a == 1))
    dyadic = tuple(sorted(p for p, a in arities.items() if a == 2))
    return Signature(monadic, dyadic, tuple(t.constants))


# per binary connective class, its truth table as two rows, one per value of
# the left operand, each indexed by the right operand's value: a row whose
# entries agree is a left value that decides the connective
_ROWS = {
    cls: tuple(tuple(TRUTH_TABLE[KIND_OF[cls]](left, right) for right in (0, 1)) for left in (0, 1))
    for cls in BINARY
}
# per quantifier class, the value of its body that settles it
_SETTLE = {Forall: 0, Exists: 1}
# what a frame of evaluate's stack waits for: the value of a negation's
# operand, of a connective's left or right operand, or of a quantifier's body
_NOT, _LEFT, _RIGHT, _BODY = range(4)
_NONE: frozenset = frozenset()


def _denotation_error(args, env: Env, constants: dict[str, Element]) -> Exception:
    """The error for the first of an atom's arguments that denotes nothing."""
    for term in args:
        if type(term) is Var:
            if term.name not in env:
                return FreeVariableError(f"variable {term.name!r} has no assignment")
        elif type(term) is Const:
            if term.name not in constants:
                return FreeVariableError(f"constant {term.name!r} has no denotation")
        else:
            break
    return StateError("cannot evaluate a formula with unfilled placeholders")


def evaluate(i: Interpretation, f: Formula, env: Optional[Env] = None) -> int:
    """Truth value of f in i under env, as 0 or 1, by one walk with an
    explicit stack, so nesting depth is not limited by the interpreter's
    recursion limit.

    Evaluation short-circuits. A binary connective's left operand is
    evaluated first, and its right one only where the left value leaves the
    connective open: `&` stops at a left 0, `|` at a left 1 and `->` at a left
    0, while `<->` always reads both (`_ROWS`, from `rules.TRUTH_TABLE`). A
    quantifier tries the domain in order and stops at the first element that
    settles it: a body of 0 for `forall`, 1 for `exists`. So on an open
    formula, or one naming a constant i does not interpret, an error is raised
    only where evaluation reaches the name: FreeVariableError for a variable
    env does not assign or a constant without denotation, StateError for an
    unfilled placeholder.

    A quantified subformula is memoized on the whole environment, so n nested
    binders of one variable cost about n·|D|² rather than |D|^n."""
    memo: dict[tuple, int] = {}
    monadic, dyadic, constants, domain = i.monadic, i.dyadic, i.constants, i.domain
    e: Env = env or {}
    stack: list[tuple] = []
    g = f
    while True:
        # descend to a leaf or a memoized quantifier, pushing what each level
        # does with the value below it
        t = type(g)
        if t is Atom:
            args = g.args
            try:
                if len(args) == 1:
                    a = args[0]
                    val = 1 if (e[a.name] if type(a) is Var else constants[a.name]) in monadic.get(g.pred, _NONE) else 0
                else:
                    val = 1 if tuple([e[a.name] if type(a) is Var else constants[a.name] for a in args]) in dyadic.get(
                        g.pred, _NONE) else 0
            except (KeyError, AttributeError):
                raise _denotation_error(args, e, constants) from None
        elif t is Not:
            stack.append((_NOT,))
            g = g.sub
            continue
        elif t in _ROWS:
            stack.append((_LEFT, g, e))
            g = g.left
            continue
        elif t in _SETTLE:
            # every visit to g builds e by the same binders in the same order,
            # so its items, in their order, key it
            key = (id(g), *e.items())
            val = memo.get(key)
            if val is None:
                if domain:
                    stack.append((_BODY, g, e, key, 0))
                    e = {**e, g.var: domain[0]}
                    g = g.body
                    continue
                val = 1 - _SETTLE[t]
        else:
            raise StateError(f"cannot evaluate node of type {t.__name__}")
        # ascend: hand val up until a frame has another subformula to evaluate
        while stack:
            frame = stack.pop()
            what = frame[0]
            if what == _NOT:
                val = 1 - val
            elif what == _RIGHT:
                val = frame[1][val]
            elif what == _LEFT:
                _, g, e = frame
                row = _ROWS[type(g)][val]
                if row[0] != row[1]:
                    stack.append((_RIGHT, row))
                    g = g.right
                    break
                val = row[0]
            else:
                _, g, outer, key, k = frame
                k += 1
                if val == _SETTLE[type(g)] or k == len(domain):
                    memo[key] = val
                    continue
                stack.append((_BODY, g, outer, key, k))
                e = {**outer, g.var: domain[k]}
                g = g.body
                break
        else:
            return val


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


# the most interpretations oracle_validity will face; at 5-15 µs each,
# enumeration included, for a monadic-batch formula that nests no quantifier
# in another (Python 3.11.7, shared 2-core machine) that is at most about 1 s.
# Nesting multiplies it: `forall x. forall y. ((P(x) & Q(y)) -> (exists z.
# P(z) & exists z. Q(z)))` costs 0.1-0.2 ms each at domain size 7
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
    a countermodel found on a smaller domain still answers. The signature
    and the closedness test read f's one forcing tree."""
    if max_domain < 1:
        raise ValueError("models are nonempty: max_domain must be at least 1")
    t = ForcingTree(f)
    if t.node_free_variables(t.root):
        raise FreeVariableError("the oracle decides closed formulas only")
    sig = _signature(t)
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
