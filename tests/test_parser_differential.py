"""The engine's parser against the per-token reference parser in
tests/reference_parser.py: on every input, the same AST, or a ParseError with
the same message and position; and `is_name` gives the same answers. The
inputs are the benchmark's workload texts, the bundled corpus, printed random
formulas and seeded character mutations of all of them, and chains of every
recursive construct run to the recursion limit and past it."""

from __future__ import annotations

import random
from importlib import resources

import pytest

import reference_parser as reference
from conftest import random_formula, within_a_shallow_stack, workload_texts
from semforce import ParseError, format_formula, parse_formula
from semforce.formulas import is_name

WORKLOADS = ("monadic-batch", "fo2-batch", "large-formula")

# what a mutation inserts: the syntax's own pieces, and characters the
# tokenizer must tell apart from them, such as a letter outside ASCII (é), a
# digit that is no letter (², ٣), a name-like run that starts with no letter
# (_x), halves of the arrows and whitespace other than spaces
PIECES = (
    "~", "(", ")", ",", ".", "&", "|", "->", "<->", "<", "-", ">", " ", "\t", "\n", "  ",
    "forall", "exists", "forall x.", "x", "a", "P", "R", "x1", "_x", "_", "1", "é", "²", "٣", "Éa", "@", "",
)


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return str(e), e.position


def assert_same(texts):
    for text in texts:
        assert outcome(parse_formula, text) == outcome(reference.parse_formula, text), text
        assert is_name(text) == reference.is_name(text), text


def mutations(rng: random.Random, texts: list[str], count: int) -> list[str]:
    """count texts, each one of texts with one to three edits: a piece
    inserted, a character deleted or replaced by a piece, or a slice doubled."""
    out = []
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            edit = rng.randrange(4)
            if edit == 0:
                text = text[:i] + rng.choice(PIECES) + text[i:]
            elif edit == 1:
                text = text[:i] + text[i + 1:]
            elif edit == 2:
                text = text[:i] + rng.choice(PIECES) + text[i + 1:]
            else:
                j = min(len(text), i + rng.randint(1, 6))
                text = text[:j] + text[i:j] + text[j:]
        out.append(text)
    return out


def words(texts: list[str]) -> list[str]:
    """The whitespace-separated pieces of texts, and their halves: short
    strings on which is_name has something to decide."""
    out = set()
    for text in texts:
        for w in text.split():
            out.update((w, w[: len(w) // 2], w[len(w) // 2:]))
    return sorted(out)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_text_parses_as_the_reference_does(workload):
    texts = workload_texts(workload)
    assert_same(texts)
    assert_same(mutations(random.Random(workload), texts, 300))


def test_the_bundled_corpus_parses_as_the_reference_does():
    lines = resources.files("semforce").joinpath("data/illustrations.corpus").read_text().splitlines()
    texts = [line.partition("#")[0].strip() for line in lines if line.strip() and not line.startswith("#")]
    assert texts
    assert_same(texts + lines)


def test_random_formulas_and_their_mutations_parse_as_the_reference_does():
    rng = random.Random(28)
    texts = [format_formula(random_formula(rng, rng.randint(0, 6))) for _ in range(10000)]
    assert_same(texts)
    mutated = mutations(rng, texts, 10000)
    assert_same(mutated)
    assert_same(words(texts[:500] + mutated[:2000]))
    # the mutations reach every kind of error, not only the first character
    outcomes = [outcome(parse_formula, text) for text in mutated]
    messages = {got[0].split("'")[0] for got in outcomes if isinstance(got, tuple)}
    assert {"unexpected character ", "expected a formula, found ", "expected a term, found ",
            "expected ", "unexpected trailing ", "expected a variable name after "} <= messages


@pytest.mark.parametrize("text", ["(" * 600 + "P(a)" + ")" * 600, "~" * 1200 + "P(a)"],
                         ids=["600 parentheses", "1200 negations"])
def test_the_two_large_formula_items_too_deep_to_parse_fail_at_the_reference_position(text):
    # the items of the large-formula workload that the parser refuses
    got = outcome(parse_formula, text)
    assert got == outcome(reference.parse_formula, text)
    assert got[0].startswith("formula nested too deeply")


CHAINS = {
    "negations": lambda n: "~" * n + "P(a)",
    "negations over a dyadic atom": lambda n: "~" * n + "R(a,b)",
    "parentheses": lambda n: "(" * n + "P(a)" + ")" * n,
    "negated parentheses": lambda n: "~(" * n + "P(a)" + ")" * n,
    "universals": lambda n: "forall x. " * n + "P(x)",
    "existentials over a dyadic atom": lambda n: "exists x. " * n + "R(x,a)",
    "quantified parentheses": lambda n: "forall x. (" * n + "P(x)" + ")" * n,
    "implications": lambda n: "P(a) -> " * n + "P(a)",
    "implications of negations": lambda n: "~P(a) -> " * n + "P(a)",
    "implications of dyadic atoms": lambda n: "R(a,b) -> " * n + "P(a)",
}


@pytest.mark.parametrize("chain", CHAINS)
def test_a_chain_parses_to_the_reference_depth_and_fails_past_it_where_the_reference_does(chain):
    # at a lowered recursion limit: every length up to past the deepest that
    # parses, and two far past it
    make = CHAINS[chain]

    def compare():
        lengths = [*range(1, 170), 400, 1000]
        got = [outcome(parse_formula, make(n)) for n in lengths]
        want = [outcome(reference.parse_formula, make(n)) for n in lengths]
        return got, want

    got, want = within_a_shallow_stack(compare, spare=150)
    assert got == want
    # the window reaches the limit: the deepest lengths fail, the shallowest parse
    assert not isinstance(got[0], tuple) and isinstance(got[-1], tuple)
