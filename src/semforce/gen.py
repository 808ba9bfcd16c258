"""Seeded random formula generation for decider/oracle cross-checks."""

from __future__ import annotations

import random
from typing import Sequence

from .formulas import BINARY, Atom, Const, Exists, Forall, Formula, Not, Var

_VAR_POOL = ("x", "y", "z", "u", "s", "t")
# the names a drawn quantifier binds: the first of these not bound above it
_NAME_POOL = _VAR_POOL + tuple(f"x{k}" for k in range(1, 30))


def random_monadic(
    rng: random.Random,
    preds: Sequence[str] = ("P", "Q"),
    max_complexity: int = 6,
    consts: Sequence[str] = ("c",),
) -> Formula:
    """A closed formula over monadic predicates with complexity at most
    max_complexity. Atoms use an enclosing bound variable when one exists,
    falling back to a constant. With no constants an atom must lie under a
    binder, so where nothing is bound the formula keeps budget for one:
    max_complexity must then be at least 1."""
    if not consts and max_complexity < 1:
        raise ValueError("without constants a closed formula needs complexity at least 1")
    preds, consts = list(preds), list(consts)

    def go(budget: int, bound: tuple[str, ...]) -> Formula:
        # the least budget a subformula here needs: one binder above its
        # atoms when none is open and no constant can stand in
        least = 0 if bound or consts else 1
        choices = ["atom"] if least == 0 else []
        if budget > least:
            choices += ["not", "binary", "binary"]
        if budget > 0:
            choices += ["quant", "quant", "quant"]
        pick = rng.choice(choices)
        if pick == "atom":
            pred = rng.choice(preds)
            if bound and (not consts or rng.random() < 0.85):
                return Atom(pred, (Var(rng.choice(bound)),))
            return Atom(pred, (Const(rng.choice(consts)),))
        if pick == "not":
            return Not(go(budget - 1, bound))
        if pick == "binary":
            op = rng.choice(BINARY)
            left = go(rng.randint(least, budget - 1), bound)
            right = go(rng.randint(least, budget - 1), bound)
            return op(left, right)
        fresh = next(v for v in _NAME_POOL if v not in bound)
        body = go(budget - 1, bound + (fresh,))
        return (Forall if rng.random() < 0.5 else Exists)(fresh, body)

    return go(max_complexity, ())

