"""The rule catalog and the exhaustive soundness checker."""

from itertools import product

import pytest

from semforce import RuleSpec, verify_derived_rule
from semforce.rules import CATALOG, FORCING, NON_PROPOSITIONAL, POSITION, rules_for


def test_catalog_size_per_connective():
    by_conn = {}
    for spec in CATALOG.values():
        by_conn.setdefault(spec.connective, []).append(spec)
    assert len(by_conn["and"]) == 6
    assert len(by_conn["or"]) == 5
    assert len(by_conn["imp"]) == 6
    assert len(by_conn["iff"]) == 13
    assert len(by_conn["not"]) == 4
    assert len(CATALOG) == 34


def test_disjunction_catalog_has_no_left_recovery():
    # accepted disjunction with rejected right child does not force the left:
    # the search compensates, the table stays as given
    for spec in rules_for("or"):
        premises = dict(spec.premises)
        assert not (premises.get("k") == 1 and premises.get("d") == 0)


def test_all_catalog_rules_verify():
    for name in CATALOG:
        assert verify_derived_rule(name), name


def test_primitive_flags():
    for name in ("A∧", "AiAd∧", "R∨", "RiRd∨", "R→", "AiRd→", "A↔", "A∼", "Ra∼"):
        assert CATALOG[name].primitive, name
    for name in ("Ri∧", "Ai∨", "Ri→", "AiA↔", "Aa∼"):
        assert not CATALOG[name].primitive, name


CORRUPTED = [
    RuleSpec("bad-acceptance-and", "and", (("k", 1),), (("i", 1), ("d", 0))),
    RuleSpec("bad-left-rejection-and", "and", (("i", 0),), (("k", 1),)),
    RuleSpec("bad-rejection-or", "or", (("k", 0),), (("i", 1), ("d", 0))),
    RuleSpec("bad-modus-ponens", "imp", (("i", 1), ("k", 1)), (("d", 0),)),
    RuleSpec("bad-acceptance-not", "not", (("k", 1),), (("a", 1),)),
]


@pytest.mark.parametrize("spec", CORRUPTED, ids=lambda s: s.name)
def test_corrupted_rules_fail(spec):
    assert verify_derived_rule(spec) is False


def test_quantifier_and_structural_rules_raise():
    for name in ("A∀", "Aa∀", "Ra∃", "IA", "IR∀", "OA-DM", "RR", "DM", "m"):
        assert name in NON_PROPOSITIONAL
        with pytest.raises(ValueError):
            verify_derived_rule(name)


def test_unknown_rule_raises():
    with pytest.raises(ValueError):
        verify_derived_rule("no-such-rule")


def test_sound_but_absent_rule_still_verifies():
    # filling the disjunction gap would be sound; the checker measures
    # soundness, not catalog membership
    spec = RuleSpec("left-recovery-or", "or", (("k", 1), ("d", 0)), (("i", 1),))
    assert verify_derived_rule(spec) is True


def test_biconditional_family():
    # the four child configurations determine the biconditional both ways
    assert verify_derived_rule("AiAd↔")
    assert verify_derived_rule("RiRd↔")
    assert verify_derived_rule("AiRd↔")
    assert verify_derived_rule("RiAd↔")
    assert verify_derived_rule("A↔")


# ------------------------------------------------------------- forcing table

CHILD_INDEX = {"i": 0, "d": 1, "a": 0}


def generic_match(connective, marks):
    """The rule-by-rule premise match the forcing table replaced, on a
    connective node 1 with children 2 and 3 (2 alone under negation):
    (rule, premise nodes, conclusions) in catalog order."""
    children = [2] if connective == "not" else [2, 3]
    marked = dict(zip([1, *children], marks))

    def at(pos):
        return 1 if pos == "k" else children[CHILD_INDEX[pos]]

    out = []
    for spec in rules_for(connective):
        if not spec.conclusions:
            continue
        if all(marked[at(pos)] == val for pos, val in spec.premises):
            prem = tuple(at(pos) for pos, _ in spec.premises)
            out.append((spec.name, prem, tuple((at(pos), val) for pos, val in spec.conclusions)))
    return out


@pytest.mark.parametrize("connective", ["and", "or", "imp", "iff", "not"])
def test_forcing_table_equals_the_generic_match(connective):
    arity = 2 if connective == "not" else 3
    table = FORCING[connective]
    patterns = list(product((None, 0, 1), repeat=arity))
    assert sorted(table, key=repr) == sorted(patterns, key=repr)
    nodes = (1, 2) if connective == "not" else (1, 2, 3)
    fired = set()
    for marks in patterns:
        got = [
            (name, tuple(nodes[p] for p in prem), tuple((nodes[p], v) for p, v in concl))
            for name, prem, concl in table[marks]
        ]
        assert got == generic_match(connective, marks), marks
        fired.update(name for name, _, _ in got)
    # every rule with conclusions fires somewhere; A↔ is left out
    assert fired == {s.name for s in rules_for(connective) if s.conclusions}


def test_forcing_table_positions():
    assert FORCING.keys() == {"and", "or", "imp", "iff", "not"}
    assert POSITION == {"k": 0, "i": 1, "d": 2, "a": 1}
    # accepted conjunction with accepted left child: A∧, then AiAd∧ does not
    # hold (d unmarked), then nothing else
    assert FORCING["and"][1, 1, None] == (("A∧", (0,), ((1, 1), (2, 1))),)
    assert FORCING["iff"][1, None, None] == ()
    assert FORCING["not"][None, 0] == (("Ra∼", (1,), ((0, 1),)),)


def test_an_unmarked_connective_forces_nothing():
    # so a fresh marking, where nothing is marked, has no anchor to dirty
    for connective, table in FORCING.items():
        assert table[(None,) * (2 if connective == "not" else 3)] == (), connective
