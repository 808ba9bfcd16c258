"""Seeded inputs for the three benchmark workloads.

Each workload is a list of `Item`s: formula text plus, where the construction
fixes it, the expected verdict. Parsing the text is left to the caller, since
parsing is part of the measured set-up.

The formula shapes of `monadic-batch` and `fo2-batch` come from one fixed
stream (`BASE_SEED`). The run's seed draws a renaming of predicates,
constants and bound variables, and the order of the items. A renaming keeps
the logical problem and its cost, so every seed loads the engine alike while
the inputs differ. Fresh shapes per seed would not do: the total decide time
of 500 fresh criterion-4 formulas ranges from 2.5 s to 29 s across seeds,
because a few formulas carry most of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

BASE_SEED = 424242

MONADIC_COUNT = 500
# The stream's formulas 133 and 157 complete in 3-8 s, too close to any
# deadline that a run's time allows; formula 101 never completes and stays.
FO2_COUNT = 120
FO2_COMPLEXITY = 5

CHAIN_LENGTHS = (20, 40, 60, 80, 100)
# where the reversed link sits, as a share of the chain length
BROKEN_AT = (1 / 6, 1 / 2, 5 / 6)
NEGATION_DEPTHS = (50, 150, 300, 600, 1200)
PAREN_DEPTHS = (50, 100, 150, 300, 600)

_PRED_POOL = ("P", "Q", "F", "G", "H", "K", "M", "N")
_DYADIC_POOL = ("R", "S", "T", "E")
_CONST_POOL = ("a", "b", "c", "d", "e", "k", "m", "n")
_VAR_POOL = ("x", "y", "z", "u", "s", "t", "p", "q", "r", "i", "j", "l")


@dataclass(frozen=True)
class Item:
    text: str
    expect: Optional[str] = None


def _names(f, fm, preds: set, consts: set, bound: set) -> None:
    if isinstance(f, fm.Atom):
        preds.add(f.pred)
        for t in f.args:
            if isinstance(t, fm.Const):
                consts.add(t.name)
            else:
                bound.add(t.name)
    elif isinstance(f, fm.Not):
        _names(f.sub, fm, preds, consts, bound)
    elif isinstance(f, fm.BINARY):
        _names(f.left, fm, preds, consts, bound)
        _names(f.right, fm, preds, consts, bound)
    else:
        bound.add(f.var)
        _names(f.body, fm, preds, consts, bound)


def _rename(f, fm, names: dict):
    if isinstance(f, fm.Atom):
        return fm.Atom(names[f.pred], tuple(type(t)(names[t.name]) for t in f.args))
    if isinstance(f, fm.Not):
        return fm.Not(_rename(f.sub, fm, names))
    if isinstance(f, fm.BINARY):
        return type(f)(_rename(f.left, fm, names), _rename(f.right, fm, names))
    return type(f)(names[f.var], _rename(f.body, fm, names))


def _seeded_variants(formulas: list, fm, seed: int) -> list[Item]:
    """Rename every predicate, constant and bound variable of the stream by
    one seeded injective map per name kind, then shuffle the items."""
    rng = random.Random(seed)
    preds: set = set()
    consts: set = set()
    bound: set = set()
    for f in formulas:
        _names(f, fm, preds, consts, bound)
    arity: dict = {}
    for f in formulas:
        for p, a in fm.predicate_arities(f).items():
            arity[p] = a
    names: dict = {}
    monadic = sorted(p for p in preds if arity[p] == 1)
    dyadic = sorted(p for p in preds if arity[p] == 2)
    names.update(zip(monadic, rng.sample(_PRED_POOL, len(monadic))))
    names.update(zip(dyadic, rng.sample(_DYADIC_POOL, len(dyadic))))
    names.update(zip(sorted(consts), rng.sample(_CONST_POOL, len(consts))))
    names.update(zip(sorted(bound), rng.sample(_VAR_POOL, len(bound))))
    items = [Item(fm.format_formula(_rename(f, fm, names))) for f in formulas]
    rng.shuffle(items)
    return items


def monadic_batch(fm, gen, seed: int) -> list[Item]:
    """The criterion-4 stream: random_monadic over P, Q at complexity 6."""
    rng = random.Random(BASE_SEED)
    stream = [gen.random_monadic(rng, preds=("P", "Q"), max_complexity=6) for _ in range(MONADIC_COUNT)]
    return _seeded_variants(stream, fm, seed)


def random_fo2(rng: random.Random, fm, max_complexity: int):
    """A closed formula over dyadic R, monadic P and constant a whose
    quantifiers bind only x and y, re-binding them freely."""

    def term(bound: tuple):
        if bound and rng.random() < 0.85:
            return fm.Var(rng.choice(bound))
        return fm.Const("a")

    def go(budget: int, bound: tuple):
        choices = ["atom"]
        if budget > 0:
            choices += ["not", "binary", "binary", "quant", "quant", "quant"]
        pick = rng.choice(choices)
        if pick == "atom":
            if rng.random() < 0.7:
                return fm.Atom("R", (term(bound), term(bound)))
            return fm.Atom("P", (term(bound),))
        if pick == "not":
            return fm.Not(go(budget - 1, bound))
        if pick == "binary":
            op = rng.choice(fm.BINARY)
            return op(go(rng.randint(0, budget - 1), bound), go(rng.randint(0, budget - 1), bound))
        var = rng.choice(("x", "y"))
        body = go(budget - 1, tuple(sorted(set(bound) | {var})))
        return (fm.Forall if rng.random() < 0.5 else fm.Exists)(var, body)

    return go(max_complexity, ())


def fo2_batch(fm, seed: int) -> list[Item]:
    """random_fo2 formulas kept only when classify_fragment says Dyadic2Var."""
    rng = random.Random(BASE_SEED)
    stream = []
    while len(stream) < FO2_COUNT:
        f = random_fo2(rng, fm, FO2_COMPLEXITY)
        if isinstance(fm.classify_fragment(f), fm.Dyadic2Var):
            stream.append(f)
    return _seeded_variants(stream, fm, seed)


def _chain(pred: str, consts: list[str], broken: Optional[int]) -> str:
    n = len(consts) - 1
    links = []
    for i in range(n):
        a, b = (i + 1, i) if i == broken else (i, i + 1)
        links.append(f"({pred}({consts[a]}) -> {pred}({consts[b]}))")
    return f"({' & '.join(links)}) -> {pred}({consts[0]}) -> {pred}({consts[n]})"


def large_formula(seed: int) -> list[Item]:
    """Quantifier-free ladder: implication chains (valid), the same chains
    with one link reversed (invalid), and deep negation and parenthesis
    nesting around one atom (invalid). The seed draws the predicate, the
    constant names and the item order; sizes and reversed positions are
    fixed so that every seed costs the same."""
    rng = random.Random(seed)
    pred = rng.choice(_PRED_POOL)
    items = []
    for n in CHAIN_LENGTHS:
        consts = [f"c{k}" for k in rng.sample(range(1000), n + 1)]
        items.append(Item(_chain(pred, consts, None), "valid"))
        for share in BROKEN_AT:
            items.append(Item(_chain(pred, consts, int(n * share)), "invalid"))
    atom = f"{pred}({rng.choice(_CONST_POOL)})"
    items += [Item("~" * k + atom, "invalid") for k in NEGATION_DEPTHS]
    items += [Item("(" * k + atom + ")" * k, "invalid") for k in PAREN_DEPTHS]
    rng.shuffle(items)
    return items


WORKLOADS = ("monadic-batch", "fo2-batch", "large-formula")


def generate(name: str, seed: int, fm, gen) -> list[Item]:
    if name == "monadic-batch":
        return monadic_batch(fm, gen, seed)
    if name == "fo2-batch":
        return fo2_batch(fm, seed)
    if name == "large-formula":
        return large_formula(seed)
    raise ValueError(f"unknown workload {name!r}")
