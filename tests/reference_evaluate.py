"""Reference evaluation for `semforce.models.evaluate`, which walks a formula
with an explicit stack and skips a binary connective's right operand once its
left one decides it: Tarskian evaluation by recursion, one frame per level,
that evaluates both operands of every connective. `tests/test_models.py`
checks that both give each formula of `conftest.oracle_stream` the same value
in the first interpretations the oracle enumerates for it.
"""

from __future__ import annotations

from typing import Optional

from semforce.errors import FreeVariableError, StateError
from semforce.formulas import BINARY, KIND_OF, QUANTIFIERS, Atom, Const, Exists, Formula, Not, Var
from semforce.models import Element, Env, Interpretation
from semforce.rules import TRUTH_TABLE


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


def reference_evaluate(i: Interpretation, f: Formula, env: Optional[Env] = None) -> int:
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
            key = (id(g), *e.items())
            got = memo.get(key)
            if got is None:
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
