"""Command-line interface: exit codes, output shapes, corpus runs."""

import json
import random
import time

import pytest

from conftest import ILLUSTRATIONS, balanced_pairs, within_a_shallow_stack

from semforce import Interpretation, Invalid, MarkingState, NoCountermodelUpTo, Valid, build_initial_tree, models
from semforce.gen import random_monadic
from semforce.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_NO_COUNTERMODEL,
    EXIT_PARSE,
    EXIT_VALID,
    main,
)

OUTSIDE = "forall x. forall y. forall z. (R(x,y) & R(y,z) -> R(x,z))"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_valid_exit_zero(capsys):
    code, out, _ = run(capsys, "check", ILLUSTRATIONS[2])
    assert code == EXIT_VALID == 0
    assert out.splitlines()[0] == "valid"


def test_check_invalid_prints_a_sorted_countermodel(capsys):
    code, out, _ = run(capsys, "check", ILLUSTRATIONS[1])
    assert code == EXIT_INVALID == 1
    lines = out.splitlines()
    assert lines[0] == "invalid"
    model = json.loads("\n".join(lines[1:]))
    assert set(model) == {"domain", "constants", "monadic", "dyadic"}
    assert model["domain"] == sorted(model["domain"])
    for ext in model["monadic"].values():
        assert ext == sorted(ext)
    for ext in model["dyadic"].values():
        assert ext == sorted(ext)
        assert all(isinstance(p, list) and len(p) == 2 for p in ext)


def test_check_bounded_exit_two(capsys):
    code, out, _ = run(capsys, "check", ILLUSTRATIONS[6], "--max-individuals", "1")
    assert code == EXIT_NO_COUNTERMODEL == 2
    assert "up to 1" in out


def test_check_trace_lines_are_numbered(capsys):
    code, out, _ = run(capsys, "check", "P(a) -> P(a)", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "valid"
    assert lines[1] == "1. RR"
    assert lines[-1].startswith(f"{len(lines) - 1}. ")
    assert any(" en " in line for line in lines)


def test_check_trace_names_the_formula_it_decided(capsys):
    # trace node ids number the tree of the formula without its vacuous binders
    src = "exists y. exists x. exists y. forall x. forall x. R(x,x)"
    code, out, _ = run(capsys, "check", src, "--trace")
    assert code == EXIT_INVALID
    lines = out.splitlines()
    decided = lines.index("decided as: forall x. R(x,x)")
    assert lines[decided + 1] == "1. RR"
    code, out, _ = run(capsys, "check", src, "--trace", "--format", "json")
    doc = json.loads(out)
    assert doc["decided"] == "forall x. R(x,x)"
    assert len(doc["trace"]) == 3
    # a formula decided as given names nothing more
    for argv in ([ILLUSTRATIONS[1], "--trace"], [src], [ILLUSTRATIONS[1], "--trace", "--format", "json"]):
        _, out, _ = run(capsys, "check", *argv)
        assert "decided" not in out


@pytest.mark.parametrize("prefix", ["", "exists z. "])
def test_check_trace_of_an_inconclusive_verdict(capsys, prefix):
    src = prefix + "forall x. exists y. (R(x,x) <-> ~R(y,y)) -> exists x. exists y. ~(R(x,x) <-> R(y,y))"
    code, out, _ = run(capsys, "check", src)
    assert code == EXIT_NO_COUNTERMODEL
    assert out == "no countermodel found up to 8 individuals\n"
    code, out, _ = run(capsys, "check", src, "--trace")
    assert code == EXIT_NO_COUNTERMODEL
    lines = out.splitlines()
    assert lines[0] == "no countermodel found up to 8 individuals"
    assert ("decided as: " in lines[1]) == bool(prefix)
    assert lines[1 + bool(prefix)] == "1. RR"
    assert lines[-1].startswith(f"{len(lines) - 1 - bool(prefix)}. ")
    code, out, _ = run(capsys, "check", src, "--trace", "--format", "json")
    assert code == EXIT_NO_COUNTERMODEL
    doc = json.loads(out)
    assert doc["verdict"] == "no_countermodel_up_to" and doc["bound"] == 8
    assert doc["trace"] == lines[1 + bool(prefix):]
    assert ("decided" in doc) == bool(prefix)


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", ILLUSTRATIONS[1], "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "invalid"
    assert doc["countermodel"]["domain"]


def test_check_direct_flag(capsys):
    code, out, _ = run(capsys, "check", ILLUSTRATIONS[3], "--direct")
    assert code == 0
    assert out.splitlines()[0] == "valid"


def test_direct_mode_forces_the_formula_without_its_vacuous_binders(capsys):
    code, out, _ = run(capsys, "check", "--direct", "--trace", "forall x. (P(a) -> P(a))")
    assert code == EXIT_VALID
    lines = out.splitlines()
    assert lines[1] == "decided as: P(a) -> P(a)"
    assert lines[-1].split()[1] == "OAi-Ad→"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "check", "P(a) &")
    assert code == EXIT_PARSE == 64
    assert err


@pytest.mark.parametrize(
    "text", ["~" * 3000 + "P(a)", "(" * 600 + "P(a)" + ")" * 600], ids=["negations", "parentheses"]
)
def test_nesting_too_deep_to_parse_is_a_parse_error(capsys, text):
    code, _, err = run(capsys, "check", text)
    assert code == EXIT_PARSE
    assert "nested too deeply" in err and "Traceback" not in err


def test_six_hundred_negations_are_checked(capsys):
    code, out, _ = run(capsys, "check", "~" * 600 + "P(a)")
    assert code == EXIT_INVALID
    assert out.splitlines()[0] == "invalid"


def _deepest_parsed(capsys, make) -> int:
    """The largest k, by bisection, for which the CLI parses make(k)."""
    lo, hi = 1, 3000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        code, _, _ = run(capsys, "oracle", make(mid), "--max-domain", "1")
        lo, hi = (lo, mid - 1) if code == EXIT_PARSE else (mid, hi)
    return lo


@pytest.mark.parametrize("quantifier", ["forall", "exists"])
def test_a_quantifier_chain_as_deep_as_the_parser_goes_is_checked(capsys, quantifier):
    # evaluate spends one frame per binder, as the parser does, so both the
    # countermodel re-check and the oracle reach every chain that parses
    def make(k):
        return f"{quantifier} x. " * k + "P(a)"

    k = _deepest_parsed(capsys, make)
    assert k > 900
    for command in ("check", "oracle"):
        code, out, err = run(capsys, command, make(k))
        assert code == EXIT_INVALID, err
        assert out.splitlines()[0] == "invalid"


@pytest.mark.parametrize("op", ["&", "|", "<->"])
def test_a_flat_chain_too_deep_for_evaluate_is_a_resource_limit(capsys, tmp_path, op):
    # the parser reads the chain in a loop, but it builds a 1200-deep left
    # spine that evaluate recurses on: in decide's re-check of the
    # countermodel, and in the oracle
    text = f"P(a) {op} " * 1200 + "P(a)"
    corpus = tmp_path / "chain.corpus"
    corpus.write_text(text + "\n")
    for argv in (["check", text], ["oracle", text], ["corpus", str(corpus)]):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_INTERNAL, argv[0]
        assert err.startswith("resource limit:") and "Traceback" not in err


@pytest.mark.parametrize("op", ["&", "|", "<->"])
def test_a_flat_chain_too_deep_for_evaluate_is_rendered(capsys, op):
    # the tree build, the saturation and the renderer walk without recursion
    code, out, err = run(capsys, "render", f"P(a) {op} " * 1200 + "P(a)")
    assert code == EXIT_VALID and err == ""
    lines = out.splitlines()
    assert len(lines) == 2401
    assert lines[0].startswith(f"{op} [") and lines[1200].startswith("  " * 1200 + "P(a) [")


def test_an_implication_chain_as_long_as_the_parser_goes_is_checked_and_rendered(capsys):
    # the parser spends a frame per `->` link; the tree build, the search and
    # the renderer spend none, so at a lowered recursion limit the chains that
    # parse are decided (valid, so evaluate never runs) and rendered. A walk
    # that spent frames per link would fail first on the longest ones, so the
    # last 20 are all tried, and every 25th below them
    def make(k):
        return "P(a) -> " * k + "P(a)"

    def chains():
        longest = _deepest_parsed(capsys, make)
        for k in [*range(1, longest - 20, 25), *range(max(longest - 20, 1), longest + 1)]:
            for command in ("check", "render"):
                code, _, err = run(capsys, command, make(k))
                assert code == EXIT_VALID, (command, k, err)
        return longest

    assert within_a_shallow_stack(chains, spare=400) > 300


def test_fragment_error_exit_code(capsys):
    code, _, err = run(capsys, "check", OUTSIDE)
    assert code == EXIT_DATA == 65
    assert err


@pytest.mark.parametrize(
    "option,message",
    [
        ("--max-individuals", "max_individuals must be positive: models are nonempty"),
        ("--branch-limit", "branch_limit must be positive"),
    ],
)
def test_engine_config_rejections_exit_data(capsys, option, message):
    code, out, err = run(capsys, "check", option, "0", "P(a)")
    assert code == EXIT_DATA == 65
    assert out == ""
    assert err == f"error: {message}\n"


def test_a_formula_two_variable_after_renaming_is_checked(capsys):
    # three variable names, but no subformula has more than two free
    src = "forall x. P(x,x) & forall y. forall z. R(y,z) -> P(a,a)"
    code, out, _ = run(capsys, "check", src)
    assert code == EXIT_VALID
    assert out.splitlines()[0] == "valid"
    code, _, _ = run(capsys, "oracle", src, "--max-domain", "2")
    assert code == EXIT_VALID


def test_resource_limit_exit_code(capsys):
    code, _, err = run(capsys, "check", ILLUSTRATIONS[6], "--branch-limit", "1")
    assert code == EXIT_INTERNAL == 70
    assert err


def test_search_depth_limit_exit_code(capsys, monkeypatch):
    import semforce.cli

    def too_deep(f, cfg):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(semforce.cli, "decide", too_deep)
    code, _, err = run(capsys, "check", ILLUSTRATIONS[6])
    assert code == EXIT_INTERNAL == 70
    assert "recursion limit" in err


def test_a_search_nesting_six_hundred_suppositions_is_checked(capsys):
    code, out, _ = run(capsys, "check", balanced_pairs(600))
    assert code == EXIT_INVALID
    assert out.splitlines()[0] == "invalid"


def test_render_ascii_shows_committed_marks(capsys):
    code, out, _ = run(capsys, "render", ILLUSTRATIONS[1])
    assert code == 0
    assert "[1]" in out and "[0]" in out
    assert "x:=w1" in out or "x := w1" in out
    assert out.splitlines()[0].startswith("->")


def test_render_template_branches_stay_unmarked(capsys):
    _, out, _ = run(capsys, "render", ILLUSTRATIONS[1])
    assert "(template)" in out
    assert "[?]" in out


def test_render_dot_structure(capsys):
    code, out, _ = run(capsys, "render", ILLUSTRATIONS[1], "--format", "dot")
    assert code == 0
    assert out.startswith("digraph forcing_tree {")
    assert out.rstrip().endswith("}")
    assert 'fillcolor="palegreen"' in out
    assert 'fillcolor="lightcoral"' in out


def test_render_provisional_marks_are_dashed(capsys):
    _, out, _ = run(capsys, "render", "P(a) -> P(a)", "--format", "dot")
    assert 'style="filled,dashed"' in out


def test_render_draws_the_tree_decide_searches(capsys):
    # rendered as given, each vacuous binder would add a witness, and the
    # output would grow quadratically with the chain
    src = "exists x. " * 600 + "P(a)"
    start = time.perf_counter()
    code, out, _ = run(capsys, "render", src)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALID
    assert out.splitlines() == ["decided as: P(a)", "P(a) [0]"]
    code, out, _ = run(capsys, "render", src, "--format", "dot")
    assert code == EXIT_VALID
    lines = out.splitlines()
    assert lines[:2] == ["// decided as: P(a)", "digraph forcing_tree {"]
    assert len(lines) == 5 and lines[3].startswith("  n1 [")
    # a formula rendered as given names nothing more
    for argv in ([ILLUSTRATIONS[1]], [ILLUSTRATIONS[1], "--format", "dot"]):
        _, out, _ = run(capsys, "render", *argv)
        assert "decided" not in out


def test_oracle_valid_and_refuted(capsys):
    code, out, _ = run(capsys, "oracle", "P(a) | ~P(a)")
    assert code == 0
    assert out.strip() == "valid up to domain size 2"
    code, out, _ = run(capsys, "oracle", "P(a) -> forall x. P(x)")
    assert code == 1
    assert out.splitlines()[0] == "invalid"
    model = json.loads("\n".join(out.splitlines()[1:]))
    assert model["domain"]


def test_oracle_default_bound_follows_the_fragment(capsys):
    code, out, _ = run(capsys, "oracle", "forall x. R(x,x) -> R(a,a)")
    assert code == 0
    assert out.strip() == "valid up to domain size 2"
    code, out, _ = run(capsys, "oracle", "forall x. (P(x) & Q(x)) -> P(a)")
    assert code == 0
    assert out.strip() == "valid up to domain size 4"


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_oracle_rejects_an_empty_domain_bound(capsys, bound):
    code, out, err = run(capsys, "oracle", "P(a) & ~P(a)", "--max-domain", bound)
    assert code == EXIT_DATA
    assert out == ""
    assert "max_domain must be at least 1" in err


def test_corpus_rejects_an_empty_domain_bound(capsys):
    code, out, err = run(capsys, "corpus", "--max-domain", "0")
    assert code == EXIT_DATA
    assert "ok" not in out
    assert "max_domain must be at least 1" in err


REFUSED = "forall x. (R(x,x) | ~R(x,x)) & (S(a,a) | ~S(a,a))"


def test_oracle_refuses_a_domain_past_its_limit(capsys, monkeypatch):
    calls = []
    evaluate = models.evaluate
    monkeypatch.setattr(models, "evaluate", lambda *args: calls.append(1) or evaluate(*args))
    code, out, err = run(capsys, "oracle", REFUSED, "--max-domain", "3")
    assert code == EXIT_DATA
    assert out == ""
    assert f"786948 interpretations up to domain size 3, over its limit of {models.ORACLE_LIMIT}" in err
    # only the 516 interpretations of sizes 1 and 2 were evaluated
    assert len(calls) == 516


def test_corpus_refuses_a_domain_past_the_oracle_limit(tmp_path, capsys):
    path = tmp_path / "big.corpus"
    path.write_text(REFUSED + "  # expect: valid\n")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0
    code, out, err = run(capsys, "corpus", str(path), "--max-domain", "3")
    assert code == EXIT_DATA
    assert "over its limit" in err
    # a refused entry gets its line, and the entries after it still run
    three = "forall x. (P(x) -> P(x)) & (Q(a) | ~Q(a)) & (R(a) | ~R(a))"
    path.write_text(f"P(a) -> P(a)\n{three}\nP(a) | ~P(a)\n")
    code, out, err = run(capsys, "corpus", str(path))
    assert code == EXIT_DATA
    assert f"181896 interpretations up to domain size 5, over its limit of {models.ORACLE_LIMIT}" in err
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("ok ") and lines[0].endswith("P(a) -> P(a)")
    assert lines[1].startswith("refused ") and three in lines[1] and "oracle refused" in lines[1]
    assert lines[2].startswith("ok ") and lines[2].endswith("P(a) | ~P(a)")
    assert lines[3] == "3 formulas, 2 ok, 0 failing, 1 refused by the oracle"


def test_oracle_outside_fragment_requires_a_bound(capsys):
    code, _, err = run(capsys, "oracle", OUTSIDE)
    assert code == 65
    assert "--max-domain" in err
    code, out, _ = run(capsys, "oracle", OUTSIDE, "--max-domain", "2")
    assert code == 1


def test_corpus_bundled_run(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "6 formulas, 6 ok, 0 failing" in out


def test_corpus_reads_a_file(tmp_path, capsys):
    path = tmp_path / "sample.corpus"
    path.write_text(
        "# a comment line\n"
        "P(a) -> P(a)  # expect: valid\n"
        "\n"
        "P(a) -> Q(a)  # expect: invalid\n"
    )
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0
    assert "2 formulas, 2 ok, 0 failing" in out


def test_corpus_flags_a_wrong_expectation(tmp_path, capsys):
    path = tmp_path / "bad.corpus"
    path.write_text("P(a) -> P(a)  # expect: invalid\n")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 1
    assert "FAIL" in out
    assert "1 failing" in out


@pytest.mark.parametrize(
    "text,verdict,reason",
    [
        ("P(a) -> Q(a)", Valid([], None), "oracle refutes with 1 individuals"),
        ("P(a) -> P(a)", Invalid(Interpretation(("a",)), None), "oracle finds no countermodel at the model's size"),
        ("P(a) -> Q(a)", NoCountermodelUpTo(2, None), "oracle refutes within the search budget"),
    ],
    ids=["valid", "invalid", "bounded"],
)
def test_corpus_fails_a_verdict_the_oracle_contradicts(tmp_path, capsys, monkeypatch, text, verdict, reason):
    # no verdict of the engine disagrees with the oracle, so a wrong one is
    # put in its place, with the state of the tree decide searches, from
    # which corpus reads the oracle's bound
    def wrong(f, cfg):
        verdict.state = MarkingState(build_initial_tree(f))
        return verdict

    monkeypatch.setattr("semforce.cli.decide", wrong)
    path = tmp_path / "wrong.corpus"
    path.write_text(text + "\n")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == EXIT_INVALID
    line, summary = out.splitlines()
    assert line.startswith("FAIL") and line.endswith(f"{text} ({reason})")
    assert summary == "1 formulas, 0 ok, 1 failing"


def test_corpus_generated_agrees_with_the_oracle(capsys):
    code, out, _ = run(
        capsys, "corpus", "--gen", "count=25", "--gen", "depth=4", "--seed", "11"
    )
    assert code == 0
    assert "25 formulas, 25 ok, 0 failing" in out


@pytest.mark.parametrize("item, named", [
    ("n=-1", "'n'"),
    ("count", "'count'"),
    ("count=x", "count"),
    ("count=-1", "count"),
    ("depth=-2", "depth"),
    ("preds=", "preds"),
    ("preds=P,,Q", "preds"),
    ("preds=P,forall", "preds"),
    ("preds=P Q", "preds"),
    ("preds=P(a)", "preds"),
])
def test_corpus_gen_rejects_a_malformed_option_by_its_key(capsys, item, named):
    code, out, err = run(capsys, "corpus", "--gen", "count=2", "--gen", item)
    assert code == EXIT_DATA
    assert named in err and "--gen" in err
    assert "formulas" not in out


def test_corpus_gen_accepts_zero_and_any_predicate_names(capsys):
    code, out, _ = run(capsys, "corpus", "--gen", "count=3", "--gen", "preds=Foo,bar_2", "--gen", "depth=0")
    assert code == 0
    assert "3 formulas, 3 ok, 0 failing" in out
    # complexity 0 leaves one atom per formula
    assert {line.split(None, 2)[2] for line in out.splitlines()[:3]} <= {"Foo(c)", "bar_2(c)"}
    code, out, _ = run(capsys, "corpus", "--gen", "count=0")
    assert code == 0 and "0 formulas" in out


def test_corpus_gen_defaults_draw_the_same_stream(capsys):
    rng = random.Random(3)
    want = [str(random_monadic(rng, preds=("P", "Q"), max_complexity=6)) for _ in range(4)]
    code, out, _ = run(capsys, "corpus", "--gen", "count=4", "--seed", "3")
    assert code == 0
    assert [line.split(None, 2)[2] for line in out.splitlines()[:4]] == want


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
