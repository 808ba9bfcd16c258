"""The character-by-character tokenizer and the per-token-call parser that
`semforce.formulas` used before it tokenized with one compiled pattern. Kept
as the reference that tests/test_parser_differential.py compares the
engine's parser with: same AST, or the same ParseError message and position.
"""

from __future__ import annotations

from semforce.errors import ParseError
from semforce.formulas import _BINARY_OPS, CLASS_OF, KIND_OF, QUANTIFIERS, Atom, Const, Formula, Not, Term, Var

_KEYWORDS = frozenset(KIND_OF[cls] for cls in QUANTIFIERS)
# every operator symbol by its first character, which no two symbols share
_SYMBOL_AT = {sym[0]: sym for sym in (*_BINARY_OPS, "~", "(", ")", ",", ".")}


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
        sym = _SYMBOL_AT.get(c)
        if sym is None or not text.startswith(sym, i):
            raise ParseError(f"unexpected character {c!r}", i)
        toks.append((sym, "op", i))
        i += len(sym)
    toks.append(("", "eof", n))
    return toks


def is_name(text: str) -> bool:
    try:
        toks = _tokenize(text)
    except ParseError:
        return False
    return len(toks) == 2 and toks[0][:2] == (text, "name") and text not in _KEYWORDS


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

    def formula(self, floor: int = 0) -> Formula:
        f = self.unary()
        while True:
            op = _BINARY_OPS.get(self.peek()[0])
            if op is None or op[1] < floor:
                return f
            self.advance()
            cls, strength, right = op
            f = cls(f, self.formula(strength if right else strength + 1))

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
            return CLASS_OF[tok](name, body)
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
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("formula nested too deeply", parser.peek()[2]) from None
