"""Formula syntax: terms, connectives, parser, printer, and fragment analysis.

Concrete syntax: quantifiers `forall v.` / `exists v.`, operators `~ & | -> <->`
with precedence `~` > `&` > `|` > `->` > `<->`, `->` right-associative, atoms
`P(t)` / `R(t,u)`. An identifier occurrence is a variable exactly when an
enclosing quantifier binds it; any other occurrence is a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import FreeVariableError, ParseError

# ---------------------------------------------------------------------- terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Slot:
    """Placeholder for a quantified position not yet instantiated; prints as `_`."""

    qid: int

    def __str__(self) -> str:
        return "_"


Term = Var | Const | Slot

# ------------------------------------------------------------------- formulas


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Not:
    sub: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


Formula = Atom | Not | And | Or | Imp | Iff | Forall | Exists

BINARY = (And, Or, Imp, Iff)
QUANTIFIERS = (Forall, Exists)

# formula class <-> the node kind naming it in trees and rule tables
KIND_OF = {Atom: "atom", Not: "not", And: "and", Or: "or", Imp: "imp", Iff: "iff", Forall: "forall", Exists: "exists"}
CLASS_OF = {kind: cls for cls, kind in KIND_OF.items()}

_OP_SYMBOL = {And: "&", Or: "|", Imp: "->", Iff: "<->"}

# --------------------------------------------------------------------- parser

_KEYWORDS = frozenset({"forall", "exists"})


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((text[i:j], "name", i))
            i = j
            continue
        if text.startswith("<->", i):
            toks.append(("<->", "op", i))
            i += 3
            continue
        if text.startswith("->", i):
            toks.append(("->", "op", i))
            i += 2
            continue
        if c in "~&|(),.":
            toks.append((c, "op", i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("", "eof", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.k = 0
        self.arities: dict[str, int] = {}
        self.bound: list[str] = []

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.k]

    def advance(self) -> tuple[str, str, int]:
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect(self, want: str) -> None:
        tok, _, pos = self.peek()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", pos)
        self.advance()

    def parse(self) -> Formula:
        f = self.formula()
        tok, kind, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing {tok!r}", pos)
        return f

    def formula(self) -> Formula:
        f = self.imp()
        while self.peek()[0] == "<->":
            self.advance()
            f = Iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        f = self.disj()
        if self.peek()[0] == "->":
            self.advance()
            return Imp(f, self.imp())
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek()[0] == "|":
            self.advance()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "&":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok, kind, pos = self.peek()
        if tok == "~":
            self.advance()
            return Not(self.unary())
        if tok in _KEYWORDS:
            self.advance()
            name, nkind, npos = self.advance()
            if nkind != "name" or name in _KEYWORDS:
                raise ParseError(f"expected a variable name after {tok!r}", npos)
            self.expect(".")
            self.bound.append(name)
            try:
                body = self.unary()
            finally:
                self.bound.pop()
            return Forall(name, body) if tok == "forall" else Exists(name, body)
        if tok == "(":
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        if kind == "name":
            return self.atom()
        raise ParseError(f"expected a formula, found {tok!r}", pos)

    def atom(self) -> Formula:
        name, _, pos = self.advance()
        if name in _KEYWORDS:
            raise ParseError(f"{name!r} is a reserved word", pos)
        self.expect("(")
        args = [self.term()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.term())
        self.expect(")")
        if len(args) > 2:
            raise ParseError(f"predicate {name!r} has arity {len(args)}; only 1 and 2 are supported", pos)
        prev = self.arities.get(name)
        if prev is None:
            self.arities[name] = len(args)
        elif prev != len(args):
            raise ParseError(f"predicate {name!r} used with arity {len(args)} after arity {prev}", pos)
        return Atom(name, tuple(args))

    def term(self) -> Term:
        tok, kind, pos = self.advance()
        if kind != "name" or tok in _KEYWORDS:
            raise ParseError(f"expected a term, found {tok!r}", pos)
        return Var(tok) if tok in self.bound else Const(tok)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a formula AST.

    Raises ParseError (with position) on syntax errors, arity conflicts,
    arities above 2, and nesting deeper than the interpreter's recursion limit
    lets the recursive-descent parser go.
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("formula nested too deeply", parser.peek()[2]) from None


# -------------------------------------------------------------------- printer


def _needs_parens(child: Formula, parent: Formula, side: str) -> bool:
    if not isinstance(child, BINARY):
        return False
    if type(child) is not type(parent):
        return True
    # same connective: bare only on the associative side
    if isinstance(parent, Imp):
        return side == "left"
    return side == "right"


def format_formula(f: Formula) -> str:
    """Canonical concrete syntax; parse_formula(format_formula(f)) == f."""
    if isinstance(f, Atom):
        return f"{f.pred}({','.join(str(a) for a in f.args)})"
    if isinstance(f, Not):
        inner = format_formula(f.sub)
        return f"~({inner})" if isinstance(f.sub, BINARY) else f"~{inner}"
    if isinstance(f, QUANTIFIERS):
        kw = "forall" if isinstance(f, Forall) else "exists"
        body = format_formula(f.body)
        if isinstance(f.body, BINARY):
            body = f"({body})"
        return f"{kw} {f.var}. {body}"
    op = _OP_SYMBOL[type(f)]
    left = format_formula(f.left)
    if _needs_parens(f.left, f, "left"):
        left = f"({left})"
    right = format_formula(f.right)
    if _needs_parens(f.right, f, "right"):
        right = f"({right})"
    return f"{left} {op} {right}"


# ---------------------------------------------------------------- analysis


def subformulas(f: Formula) -> Iterator[tuple[Formula, frozenset[str]]]:
    """Every subformula of f in preorder, left to right, with the names of
    the variables bound above it. Iterative, so nesting depth is not limited
    by the interpreter's recursion limit."""
    stack: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        yield g, bound
        if isinstance(g, Not):
            stack.append((g.sub, bound))
        elif isinstance(g, BINARY):
            stack.append((g.right, bound))
            stack.append((g.left, bound))
        elif isinstance(g, QUANTIFIERS):
            stack.append((g.body, bound | {g.var}))


def _atoms(f: Formula) -> Iterator[tuple[Atom, frozenset[str]]]:
    return ((g, bound) for g, bound in subformulas(f) if isinstance(g, Atom))


def free_variables(f: Formula) -> set[str]:
    """Names of variables with at least one free occurrence."""
    return {t.name for g, bound in _atoms(f) for t in g.args if isinstance(t, Var) and t.name not in bound}


def constants_of(f: Formula) -> list[str]:
    """Constant names in first-occurrence order."""
    return list(dict.fromkeys(t.name for g, _ in _atoms(f) for t in g.args if isinstance(t, Const)))


def identifiers_of(f: Formula) -> set[str]:
    """Every identifier used in f: predicates, constants, variable names."""
    out: set[str] = set()
    for g, _ in subformulas(f):
        if isinstance(g, Atom):
            out.add(g.pred)
            out.update(t.name for t in g.args if isinstance(t, (Var, Const)))
        elif isinstance(g, QUANTIFIERS):
            out.add(g.var)
    return out


def variable_names(f: Formula) -> set[str]:
    """Distinct variable names: binder names plus free Var occurrences."""
    return free_variables(f) | {g.var for g, _ in subformulas(f) if isinstance(g, QUANTIFIERS)}


def predicate_arities(f: Formula) -> dict[str, int]:
    """Predicate name -> arity; raises on inconsistent programmatic ASTs."""
    out: dict[str, int] = {}
    for g, _ in _atoms(f):
        n = len(g.args)
        prev = out.setdefault(g.pred, n)
        if prev != n:
            raise FreeVariableError(f"predicate {g.pred!r} used with arities {prev} and {n}")
    return out


def complexity(f: Formula) -> int:
    """0 for atoms, else 1 + max over immediate subformulas."""
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return 1 + complexity(f.sub)
    if isinstance(f, BINARY):
        return 1 + max(complexity(f.left), complexity(f.right))
    return 1 + complexity(f.body)


@dataclass(frozen=True)
class Monadic:
    n: int


@dataclass(frozen=True)
class Dyadic2Var:
    n: int


@dataclass(frozen=True)
class Outside:
    pass


FragmentClass = Monadic | Dyadic2Var | Outside

OUTSIDE = Outside()


def classify_fragment(f: Formula) -> FragmentClass:
    """Monadic(n) with n distinct monadic predicates; Dyadic2Var(n) when some
    dyadic predicate occurs but at most two distinct variable names do; else
    Outside."""
    arities = predicate_arities(f)
    if all(a == 1 for a in arities.values()):
        return Monadic(len(arities))
    if len(variable_names(f)) <= 2:
        return Dyadic2Var(len(arities))
    return OUTSIDE


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


def is_ground(f: Formula) -> bool:
    """True when no unfilled placeholder (Slot) occurs in f."""
    if isinstance(f, Atom):
        return not any(isinstance(t, Slot) for t in f.args)
    if isinstance(f, Not):
        return is_ground(f.sub)
    if isinstance(f, BINARY):
        return is_ground(f.left) and is_ground(f.right)
    return is_ground(f.body)
