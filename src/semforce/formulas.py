"""Formula syntax: terms, connectives, parser, printer, and fragment analysis.

Concrete syntax: quantifiers `forall v.` / `exists v.`, negation `~`, the
binary operators of `_BINARY_OPS` (`&` > `|` > `->` > `<->`, all binding
looser than `~` and the quantifiers, `->` right-associative), atoms `P(t)` /
`R(t,u)`. An identifier occurrence is a variable exactly when an enclosing
quantifier binds it; any other occurrence is a constant. A name is a run of
letters, digits and underscores that starts with a letter.

Text is read in two steps. One compiled regular expression splits it into
tokens, scanning in C, and each distinct token is checked once. A recursive
descent parser then reads the token list by index: it recurses once per `~`,
quantifier and `->` link and twice per parenthesis, reads everything else
inline, and finds a token's position in the text only for an error.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterator, NoReturn

from .errors import FreeVariableError, ParseError

# -------------------------------------------------------------------- records

_set = object.__setattr__


class Record:
    """Base of the package's record classes: slotted, with a repr naming the
    fields, equality by type and fields, and pickling and copying through the
    constructor. The fields are `__match_args__`, in constructor order. A
    record is unhashable, since it can change (defining `__eq__` sets
    `__hash__` to None). This constructor takes fields by position or
    keyword, or from `_defaults`, and costs a few microseconds a call. The
    constructors of the records built per node, per search branch or per
    decision are written out, so that they cost only their field stores:
    the terms and formulas here, `Monadic` and `Dyadic2Var` (one per
    decision), `TreeNode`, marking's `TraceStep`, `DoubleMark`, `Frame` and
    `Checkpoint`, models' `Interpretation`, and decide's verdicts and
    `EngineConfig`."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]) or len(values) < len(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}")
            args = tuple([values[name] for name in names])
        for name, value in zip(names, args):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class FrozenRecord(Record):
    """A record whose constructor sets each field once, and which hashes by its fields."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


# ---------------------------------------------------------------------- terms


class _Named(FrozenRecord):
    """A term named by a string, interned (hash-consed): each class holds one
    object per name, so `Const("a") is Const("a")`. Pickling and copying go
    through the constructor and so give back that object too."""

    __match_args__ = __slots__ = ("name",)
    _interned: dict[str, _Named]

    def __init_subclass__(cls) -> None:
        cls._interned = {}

    def __new__(cls, name: str) -> _Named:
        term = cls._interned.get(name)
        if term is None:
            term = object.__new__(cls)
            _set(term, "name", name)
            # setdefault, so that two threads naming one term get one object
            term = cls._interned.setdefault(name, term)
        return term

    # object's own, which run in C: terms are hashed and compared in every
    # shape key and fill-memo key, and interning makes equal terms one object,
    # so identity is equality and no key costs a Python call per term (a
    # written-out hash of the name was one call per term). __new__ has set
    # the name
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.name


class Var(_Named):
    __slots__ = ()


class Const(_Named):
    __slots__ = ()


class Slot(FrozenRecord):
    """Placeholder for a quantified position not yet instantiated; prints as `_`."""

    __slots__ = ()

    def __str__(self) -> str:
        return "_"


Term = Var | Const | Slot

# ------------------------------------------------------------------- formulas


class _Formula(FrozenRecord):
    """Base of the formula classes: printing, and equality and hashing that
    walk the formula with an explicit stack, so nesting depth is not limited
    by the interpreter's recursion limit."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            own, kids = _parts(a)
            other_own, other_kids = _parts(b)
            if own != other_own:
                return False
            stack += zip(kids, other_kids)
        return True

    def __hash__(self) -> int:
        done: list[int] = []
        for g in _postorder(self):
            own, kids = _parts(g)
            cut = len(done) - len(kids)
            h = hash((type(g), own, *done[cut:]))
            del done[cut:]
            done.append(h)
        return done[0]


class Atom(_Formula):
    __match_args__ = __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple[Term, ...]) -> None:
        _set(self, "pred", pred)
        _set(self, "args", args)


class Not(_Formula):
    __match_args__ = __slots__ = ("sub",)

    def __init__(self, sub: Formula) -> None:
        _set(self, "sub", sub)


class _Binary(_Formula):
    __match_args__ = __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class _Quantifier(_Formula):
    __match_args__ = __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula) -> None:
        _set(self, "var", var)
        _set(self, "body", body)


class Forall(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


Formula = Atom | Not | And | Or | Imp | Iff | Forall | Exists

# symbol -> (class, binding strength, right-associative), the one statement
# of the binary operators: the parser, the printer and the renderer read it
_BINARY_OPS = {"&": (And, 4, False), "|": (Or, 3, False), "->": (Imp, 2, True), "<->": (Iff, 1, False)}
OP_SYMBOL = {cls: sym for sym, (cls, _, _) in _BINARY_OPS.items()}
# in the table's order, which seeded generators draw from
BINARY = tuple(OP_SYMBOL)
QUANTIFIERS = (Forall, Exists)

# formula class <-> the node kind naming it in trees and rule tables
KIND_OF = {Atom: "atom", Not: "not", And: "and", Or: "or", Imp: "imp", Iff: "iff", Forall: "forall", Exists: "exists"}
CLASS_OF = {kind: cls for cls, kind in KIND_OF.items()}


def _parts(g: Formula) -> tuple[object, tuple[Formula, ...]]:
    """The data of g's own node, and its immediate subformulas."""
    if isinstance(g, Atom):
        return (g.pred, g.args), ()
    if isinstance(g, Not):
        return None, (g.sub,)
    if isinstance(g, QUANTIFIERS):
        return g.var, (g.body,)
    return None, (g.left, g.right)


# --------------------------------------------------------------------- parser

_KEYWORDS = frozenset(KIND_OF[cls] for cls in QUANTIFIERS)
_SYMBOLS = frozenset((*_BINARY_OPS, "~", "(", ")", ",", "."))
# the tokens that cannot name a term or a bound variable: the symbols, the
# keywords and "", which ends every token list; _tokenize has checked every
# other token to be a name
_NOT_NAMES = _SYMBOLS | _KEYWORDS | {""}
# the tokens that open a unary formula other than an atom, with its class
_PREFIXES = {"~": Not, "(": None, **{KIND_OF[cls]: cls for cls in QUANTIFIERS}}
# one match per token, scanned in C: a symbol, longest first so that `<->`
# and `->` win over `<` and `-`; a run of word characters; or any other
# character, which is an error. Whitespace only separates tokens
_TOKEN = re.compile("|".join([*map(re.escape, sorted(_SYMBOLS, key=lambda sym: (-len(sym), sym))), r"\w+", r"\S"]))


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then "". A run of word characters is a name when
    its first character is a letter; any token that is neither a name nor a
    symbol raises, the first such in the text. Each distinct token is checked
    once, since a formula repeats its names and symbols."""
    toks = _TOKEN.findall(text)
    if not all(tok[0].isalpha() for tok in set(toks).difference(_SYMBOLS)):
        bad = next(m for m in _TOKEN.finditer(text) if m[0] not in _SYMBOLS and not m[0][0].isalpha())
        raise ParseError(f"unexpected character {bad[0][0]!r}", bad.start())
    toks.append("")
    return toks


def is_name(text: str) -> bool:
    """Whether the tokenizer reads text as one name that is not a keyword:
    a predicate, constant or variable name."""
    return _TOKEN.findall(text) == [text] and text[0].isalpha() and text not in _KEYWORDS


class _Parser:
    """Recursive descent over the token list by index: `k` is the next token.
    `unary` recurses once per `~` and per quantifier, `formula` once per `->`
    link, and `unary` into `formula` once per parenthesis; everything else,
    atoms above all, is read inline. A token's position in the text is found
    only when an error names it.

    `formula` runs three frames below parse_formula's caller, as in the
    per-token reference parser under tests/, and each frame meets the
    recursion limit at the token it did there: so a run of `~`, quantifiers or
    parentheses parses to the same depth and fails at the same token."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0
        self.arities: dict[str, int] = {}
        self.bound: list[str] = []

    def position(self, k: int) -> int:
        """Where token k starts in the text; the text's length for the end."""
        m = next(islice(_TOKEN.finditer(self.text), k, None), None)
        return len(self.text) if m is None else m.start()

    def fail(self, message: str, k: int) -> NoReturn:
        raise ParseError(message, self.position(k))

    def parse(self) -> Formula:
        try:
            return self.whole()
        except RecursionError:
            raise ParseError("formula nested too deeply", self.position(self.k)) from None

    def whole(self) -> Formula:
        f = self.formula()
        tok = self.toks[self.k]
        if tok:
            self.fail(f"unexpected trailing {tok!r}", self.k)
        return f

    def expect(self, want: str) -> None:
        tok = self.toks[self.k]
        if tok != want:
            self.fail(f"expected {want!r}, found {tok!r}", self.k)
        self.k += 1

    def formula(self, floor: int = 0) -> Formula:
        """Precedence climbing: a unary formula, then each binary operator
        that binds at least as strongly as floor, with its right operand read
        at the floor its associativity sets. So a left-associative chain is a
        loop, and a right-associative one costs one frame per link."""
        f = self.unary()
        toks = self.toks
        while True:
            op = _BINARY_OPS.get(toks[self.k])
            if op is None or op[1] < floor:
                return f
            self.k += 1
            cls, strength, right = op
            f = cls(f, self.formula(strength if right else strength + 1))

    def unary(self) -> Formula:
        # membership tests only, up to the recursive call: on 3.10 and 3.11 a
        # comparison or a call of a builtin would spend a level of the
        # recursion limit before the token is consumed
        toks, k = self.toks, self.k
        tok = toks[k]
        if tok not in _PREFIXES:
            if tok in _NOT_NAMES:
                self.fail(f"expected a formula, found {tok!r}", k)
            return Atom(tok, self.arguments(tok))
        cls = _PREFIXES[tok]
        self.k = k + 1
        if cls is Not:
            return Not(self.unary())
        if cls is None:
            f = self.formula()
            self.expect(")")
            return f
        name = toks[k + 1]
        if name in _NOT_NAMES:
            self.fail(f"expected a variable name after {tok!r}", k + 1)
        self.k = k + 2
        self.expect(".")
        self.bound.append(name)
        try:
            body = self.unary()
        finally:
            self.bound.pop()
        return cls(name, body)

    def arguments(self, name: str) -> tuple[Term, ...]:
        """The parenthesized terms after predicate `name`, `k`'s token, read
        inline: atoms hold most of a formula's tokens. The `(` is read by a
        call, and `k` moves past each term before the term is made, as in the
        reference parser: both set the token at which an atom deep enough to
        meet the recursion limit fails."""
        toks, bound, at = self.toks, self.bound, self.k
        self.k = k = at + 1
        self.expect("(")
        args = []
        while True:
            tok = toks[k + 1]
            if tok in _NOT_NAMES:
                self.fail(f"expected a term, found {tok!r}", k + 1)
            k = self.k = k + 2
            args.append(Var(tok) if tok in bound else Const(tok))
            if toks[k] != ",":
                break
        if toks[k] != ")":
            self.fail(f"expected ')', found {toks[k]!r}", k)
        self.k = k + 1
        n = len(args)
        if n > 2:
            self.fail(f"predicate {name!r} has arity {n}; only 1 and 2 are supported", at)
        prev = self.arities.setdefault(name, n)
        if prev != n:
            self.fail(f"predicate {name!r} used with arity {n} after arity {prev}", at)
        return tuple(args)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a formula AST.

    Raises ParseError (with position) on syntax errors, arity conflicts,
    arities above 2, and nesting deeper than the interpreter's recursion limit
    lets the parser go: it spends one frame per `~`, per quantifier prefix
    and per `->` link, and two per parenthesis.
    """
    return _Parser(text).parse()


# -------------------------------------------------------------------- printer


def format_formula(f: Formula) -> str:
    """Canonical concrete syntax; parse_formula(format_formula(f)) == f. A
    binary operand goes bare only under its own operator, on the side that
    operator associates to. A preorder walk whose stack holds subformulas
    still to print and the text between them."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is str:
            out.append(g)
        elif t is Atom:
            out.append(f"{g.pred}({','.join([str(a) for a in g.args])})")
        elif t is Not or t is Forall or t is Exists:
            out.append("~" if t is Not else f"{KIND_OF[t]} {g.var}. ")
            stack += _operand(g.sub if t is Not else g.body, False)
        else:
            sym = OP_SYMBOL[t]
            right = _BINARY_OPS[sym][2]
            # the right operand goes on the stack first, so it prints last
            stack += *_operand(g.right, right and type(g.right) is t), f" {sym} "
            stack += _operand(g.left, not right and type(g.left) is t)
    return "".join(out)


def _operand(g: Formula, bare: bool) -> tuple:
    """format_formula's stack entries for operand g, parenthesized if binary and not bare."""
    return (g,) if bare or type(g) not in OP_SYMBOL else (")", g, "(")


# ---------------------------------------------------------------- analysis


def predicate_arities(f: Formula) -> dict[str, int]:
    """Predicate name -> arity; raises on inconsistent programmatic ASTs.
    A plain preorder loop, cheaper than `_postorder` on the bench's set-up."""
    out: dict[str, int] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            n = len(g.args)
            prev = out.setdefault(g.pred, n)
            if prev != n:
                raise FreeVariableError(f"predicate {g.pred!r} used with arities {prev} and {n}")
        elif isinstance(g, Not):
            stack.append(g.sub)
        elif isinstance(g, BINARY):
            stack += g.right, g.left
        else:
            stack.append(g.body)
    return out


def complexity(f: Formula) -> int:
    """0 for atoms, else 1 + max over immediate subformulas."""
    done: list[int] = []
    for g in _postorder(f):
        if type(g) is Atom:
            done.append(0)
        else:
            right = done.pop() if isinstance(g, BINARY) else 0
            done[-1] = 1 + max(done[-1], right)
    return done[0]


class Monadic(FrozenRecord):
    __match_args__ = __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        _set(self, "n", n)


class Dyadic2Var(FrozenRecord):
    __match_args__ = __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        _set(self, "n", n)


class Outside(FrozenRecord):
    __slots__ = ()


FragmentClass = Monadic | Dyadic2Var | Outside

OUTSIDE = Outside()


def classify_fragment(f: Formula) -> FragmentClass:
    """Monadic(n) with n distinct monadic predicates; Dyadic2Var(n) when some
    predicate is not monadic and f is two-variable after renaming; else
    Outside. The width, the largest number of free variables of a
    subformula, comes from one fold over f (`_free_sets`)."""
    return classify_arities(predicate_arities(f), max(map(len, _free_sets(f))))


def classify_arities(arities: dict[str, int], width: int | None) -> FragmentClass:
    """The fragment of a formula from its predicate arities and its width,
    the largest number of free variables of a subformula: Monadic(n) when
    all n predicates are monadic, else Dyadic2Var(n) when the width is at
    most 2, else Outside. The width is read only when some predicate is not
    monadic; `decide` takes both from its forcing tree (`tree.py`), and
    `classify_fragment` from the formula.

    A formula is two-variable after renaming exactly when no subformula has
    more than two free variables: renaming top-down, each quantifier's
    variable can take whichever of two names its body's other free variable
    does not carry."""
    if all(a == 1 for a in arities.values()):
        return Monadic(len(arities))
    return Dyadic2Var(len(arities)) if width <= 2 else OUTSIDE


def _postorder(f: Formula) -> Iterator[Formula]:
    """Every subformula of f, each after its immediate subformulas, left to
    right, so atoms in preorder's order. Iterative, so nesting depth is not
    limited by the interpreter's recursion limit."""
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        t = type(g)
        if expanded or t is Atom:
            yield g
            continue
        stack.append((g, True))
        if t is Not:
            stack.append((g.sub, False))
        elif t is Forall or t is Exists:
            stack.append((g.body, False))
        else:
            stack += (g.right, False), (g.left, False)


def _free_sets(f: Formula) -> Iterator[frozenset[str]]:
    """The names of the free variables of each subformula of f, in
    `_postorder`'s order: one fold that composes them bottom-up."""
    done: list[frozenset[str]] = []
    for g in _postorder(f):
        t = type(g)
        if t is Atom:
            done.append(frozenset([a.name for a in g.args if type(a) is Var]))
        elif t is Forall or t is Exists:
            done[-1] = done[-1] - {g.var}
        elif t is not Not:
            right = done.pop()
            done[-1] = done[-1] | right
        yield done[-1]


def alpha_normalize(f: Formula) -> Formula:
    """Rename bound variables to canonical depth-indexed names.

    Alpha-equivalent formulas normalize to equal ASTs; free variables are kept.
    The reserved `_b` prefix cannot collide with parsed or engine-made names.
    """

    def go(g: Formula, env: dict[str, str], depth: int) -> Formula:
        if isinstance(g, Atom):
            args = tuple(Var(env[t.name]) if isinstance(t, Var) and t.name in env else t for t in g.args)
            return Atom(g.pred, args)
        if isinstance(g, Not):
            return Not(go(g.sub, env, depth))
        if isinstance(g, BINARY):
            return type(g)(go(g.left, env, depth), go(g.right, env, depth))
        name = f"_b{depth + 1}"
        body = go(g.body, {**env, g.var: name}, depth + 1)
        return type(g)(name, body)

    return go(f, {}, 0)

