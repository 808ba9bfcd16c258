"""The rule catalog of the tree calculus: connective and quantifier rules.

Every connective rule relates the mark of a connective node ("k") to the marks
of its children ("i"/"d" for binary, "a" for negation). The catalog is exactly
the primitive and derived sets of the tree calculus; note the deliberate gap at
disjunction: an accepted `|` with rejected right child does not force the left
child (no such rule exists), the search layer compensates by branching.

The quantifier rules live in three tables keyed by quantifier kind and mark:
`INSTANTIATION` (which instance branches a marked quantifier gets and the rule
that marks them), `GENERALIZATION` (which instance mark marks an unmarked
quantifier, and whether the instance variable must be independent) and
`PERMISSION` (the rule that adds an instance branch asserting nothing).
`DISCHARGE` names the rule that closes a supposition on one side of a
conditional or disjunction once the other side's goal mark is forced.

`FORCING` is the propositional part of the catalog read as a function of
marks. It is derived from `_RULES` at import, which stays the one statement
of the calculus: per connective, the key is the marks at (k, i, d), or (k, a)
for negation, with None for unmarked, and the entry lists in catalog order
the rules whose premises hold there. Positions in an entry are indices into
(anchor, *children) (`POSITION`). A rule with no conclusions (`A↔`) is left
out, as it forces nothing by itself.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from .formulas import FrozenRecord

# index of each rule position in (anchor, *children)
POSITION = {"k": 0, "i": 1, "d": 2, "a": 1}

TRUTH_TABLE = {
    "and": lambda i, d: i & d,
    "or": lambda i, d: i | d,
    "imp": lambda i, d: (1 - i) | d,
    "iff": lambda i, d: 1 if i == d else 0,
}


class RuleSpec(FrozenRecord):
    """One forcing rule: if all premise positions carry the given marks, the
    conclusion positions get theirs. `equal_children` encodes the biconditional
    acceptance rule, whose conclusion is that both children share one mark (and
    which also holds in reverse)."""

    __match_args__ = __slots__ = ("name", "connective", "premises", "conclusions", "primitive", "equal_children")
    _defaults = {"primitive": False, "equal_children": False}


_RULES = [
    # conjunction
    RuleSpec("A∧", "and", (("k", 1),), (("i", 1), ("d", 1)), primitive=True),
    RuleSpec("AiAd∧", "and", (("i", 1), ("d", 1)), (("k", 1),), primitive=True),
    RuleSpec("AiR∧", "and", (("i", 1), ("k", 0)), (("d", 0),)),
    RuleSpec("AdR∧", "and", (("d", 1), ("k", 0)), (("i", 0),)),
    RuleSpec("Ri∧", "and", (("i", 0),), (("k", 0),)),
    RuleSpec("Rd∧", "and", (("d", 0),), (("k", 0),)),
    # disjunction (no rule concludes i=1 from k=1, d=0)
    RuleSpec("R∨", "or", (("k", 0),), (("i", 0), ("d", 0)), primitive=True),
    RuleSpec("RiRd∨", "or", (("i", 0), ("d", 0)), (("k", 0),), primitive=True),
    RuleSpec("RiA∨", "or", (("i", 0), ("k", 1)), (("d", 1),)),
    RuleSpec("Ai∨", "or", (("i", 1),), (("k", 1),)),
    RuleSpec("Ad∨", "or", (("d", 1),), (("k", 1),)),
    # conditional
    RuleSpec("R→", "imp", (("k", 0),), (("i", 1), ("d", 0)), primitive=True),
    RuleSpec("AiRd→", "imp", (("i", 1), ("d", 0)), (("k", 0),), primitive=True),
    RuleSpec("AiA→", "imp", (("i", 1), ("k", 1)), (("d", 1),)),
    RuleSpec("RdA→", "imp", (("d", 0), ("k", 1)), (("i", 0),)),
    RuleSpec("Ri→", "imp", (("i", 0),), (("k", 1),)),
    RuleSpec("Ad→", "imp", (("d", 1),), (("k", 1),)),
    # biconditional
    RuleSpec("A↔", "iff", (("k", 1),), (), primitive=True, equal_children=True),
    RuleSpec("AiAd↔", "iff", (("i", 1), ("d", 1)), (("k", 1),)),
    RuleSpec("RiRd↔", "iff", (("i", 0), ("d", 0)), (("k", 1),)),
    RuleSpec("AiRd↔", "iff", (("i", 1), ("d", 0)), (("k", 0),)),
    RuleSpec("RiAd↔", "iff", (("i", 0), ("d", 1)), (("k", 0),)),
    RuleSpec("AiA↔", "iff", (("i", 1), ("k", 1)), (("d", 1),)),
    RuleSpec("RdA↔", "iff", (("d", 0), ("k", 1)), (("i", 0),)),
    RuleSpec("RiA↔", "iff", (("i", 0), ("k", 1)), (("d", 0),)),
    RuleSpec("AdA↔", "iff", (("d", 1), ("k", 1)), (("i", 1),)),
    RuleSpec("RiR↔", "iff", (("i", 0), ("k", 0)), (("d", 1),)),
    RuleSpec("AiR↔", "iff", (("i", 1), ("k", 0)), (("d", 0),)),
    RuleSpec("RdR↔", "iff", (("d", 0), ("k", 0)), (("i", 1),)),
    RuleSpec("AdR↔", "iff", (("d", 1), ("k", 0)), (("i", 0),)),
    # negation
    RuleSpec("A∼", "not", (("k", 1),), (("a", 0),), primitive=True),
    RuleSpec("Ra∼", "not", (("a", 0),), (("k", 1),), primitive=True),
    RuleSpec("Aa∼", "not", (("a", 1),), (("k", 0),)),
    RuleSpec("R∼", "not", (("k", 0),), (("a", 1),)),
]

CATALOG: dict[str, RuleSpec] = {r.name: r for r in _RULES}

_BY_CONNECTIVE: dict[str, tuple[RuleSpec, ...]] = {}
for _r in _RULES:
    _BY_CONNECTIVE.setdefault(_r.connective, ())
    _BY_CONNECTIVE[_r.connective] += (_r,)


class Instantiation(FrozenRecord):
    """What a quantifier of one kind carrying one mark obliges: instance
    branches made by `rule` (one fresh witness when `witness`, else one per
    individual), each marked like the quantifier by `marking`."""

    __match_args__ = __slots__ = ("rule", "marking", "witness")


INSTANTIATION: dict[tuple[str, int], Instantiation] = {
    ("forall", 1): Instantiation("IA∀", "A∀", witness=False),
    ("exists", 0): Instantiation("IR∃", "R∃", witness=False),
    ("forall", 0): Instantiation("IR∀", "R∀", witness=True),
    ("exists", 1): Instantiation("IA∃", "A∃", witness=True),
}

# (kind, instance mark) -> (rule giving the unmarked quantifier that mark,
# whether the instance must be an independent variable)
GENERALIZATION: dict[tuple[str, int], tuple[str, bool]] = {
    ("exists", 1): ("Aa∃", False),
    ("forall", 0): ("Ra∀", False),
    ("forall", 1): ("Aa∀", True),
    ("exists", 0): ("Ra∃", True),
}

# kind -> rule adding an instance branch that asserts nothing
PERMISSION = {"forall": "I∀", "exists": "I∃"}

# rule name -> the (kind, mark) its table entry is keyed by; a permission
# applies to any mark, so its mark is None
INSTANTIATION_RULES: dict[str, tuple[str, Optional[int]]] = {
    **{e.rule: km for km, e in INSTANTIATION.items()},
    **{rule: (kind, None) for kind, rule in PERMISSION.items()},
}
MARKING_RULES = {e.marking: km for km, e in INSTANTIATION.items()}
GENERALIZATION_RULES = {rule: km for km, (rule, _) in GENERALIZATION.items()}
WITNESS_RULES = frozenset(e.rule for e in INSTANTIATION.values() if e.witness)

# (connective, supposition kind, supposed child, goal mark) -> the rule that
# accepts the connective once the supposition forced the goal mark on the
# other child
DISCHARGE = {
    ("imp", "OA", 0, 1): "OAi-Ad→",
    ("imp", "OR", 1, 0): "ORd-Ri→",
    ("or", "OR", 0, 1): "ORi-Ad∨",
    ("or", "OR", 1, 1): "ORd-Ai∨",
}
# discharge rule -> the connective it accepts
DISCHARGE_RULES = {rule: key[0] for key, rule in DISCHARGE.items()}

# identifiers that are rules of the calculus but not propositional forcings
NON_PROPOSITIONAL = frozenset(
    {
        *INSTANTIATION_RULES, *MARKING_RULES, *GENERALIZATION_RULES,
        *DISCHARGE.values(),
        "IA", "IR",
        "OA-DM", "OR-DM", "RR-DM",
        "RR", "DM", "OA", "OR", "m",
    }
)


def rules_for(connective: str) -> tuple[RuleSpec, ...]:
    return _BY_CONNECTIVE.get(connective, ())


# one entry of FORCING: (rule name, premise indices, (index, mark) conclusions)
Forcing = tuple[str, tuple[int, ...], tuple[tuple[int, int], ...]]


def _forcing_table(connective: str) -> dict[tuple[Optional[int], ...], tuple[Forcing, ...]]:
    """Every mark pattern of a connective node and its children, mapped to the
    catalog rules with conclusions whose premises hold there. A rule holds
    where its premise positions carry their marks and the others anything."""
    positions = ("k", "a") if connective == "not" else ("k", "i", "d")
    table: dict[tuple[Optional[int], ...], list[Forcing]] = {
        marks: [] for marks in product((None, 0, 1), repeat=len(positions))
    }
    for s in rules_for(connective):
        if not s.conclusions:
            continue
        held = dict(s.premises)
        entry = (s.name, tuple(POSITION[p] for p, _ in s.premises), tuple((POSITION[p], v) for p, v in s.conclusions))
        for marks in product(*[(held[p],) if p in held else (None, 0, 1) for p in positions]):
            table[marks].append(entry)
    return {marks: tuple(entries) for marks, entries in table.items()}


FORCING = {connective: _forcing_table(connective) for connective in _BY_CONNECTIVE}


def _worlds(connective: str):
    """All total (k, children) assignments consistent with the truth table."""
    if connective == "not":
        for a in (0, 1):
            yield {"k": 1 - a, "a": a}
    else:
        tt = TRUTH_TABLE[connective]
        for i, d in product((0, 1), repeat=2):
            yield {"k": tt(i, d), "i": i, "d": d}


def verify_derived_rule(rule: str | RuleSpec) -> bool:
    """Check a propositional rule against the classical truth tables.

    True iff in every total assignment consistent with the connective's truth
    table where the premises hold, the conclusions hold too (both directions
    for the equal-children biconditional rule). Quantifier, iteration, and
    option rule identifiers are rejected: their premise space is not finite.
    """
    if isinstance(rule, str):
        if rule in NON_PROPOSITIONAL:
            raise ValueError(f"rule {rule!r} is not propositional; cannot be verified by finite tables")
        spec = CATALOG.get(rule)
        if spec is None:
            raise ValueError(f"unknown rule identifier {rule!r}")
    else:
        spec = rule
    if spec.connective not in ("not", *TRUTH_TABLE):
        raise ValueError(f"unknown connective {spec.connective!r}")
    for world in _worlds(spec.connective):
        premises_hold = all(world[pos] == v for pos, v in spec.premises)
        conclusion = all(world[pos] == v for pos, v in spec.conclusions)
        if spec.equal_children:
            conclusion = conclusion and world["i"] == world["d"]
            if conclusion and not premises_hold:
                return False
        if premises_hold and not conclusion:
            return False
    return True
