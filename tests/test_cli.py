"""Command-line interface: exit codes, output shapes, corpus runs."""

import json

import pytest

from conftest import ILLUSTRATIONS

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


def test_fragment_error_exit_code(capsys):
    code, _, err = run(capsys, "check", OUTSIDE)
    assert code == EXIT_DATA == 65
    assert err


def test_resource_limit_exit_code(capsys):
    code, _, err = run(capsys, "check", ILLUSTRATIONS[6], "--branch-limit", "1")
    assert code == EXIT_INTERNAL == 70
    assert err


def test_search_depth_limit_exit_code(capsys, monkeypatch):
    from semforce.decide import _Search

    def too_deep(self):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(_Search, "explore", too_deep)
    code, _, err = run(capsys, "check", ILLUSTRATIONS[6])
    assert code == EXIT_INTERNAL == 70
    assert "recursion limit" in err


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


def test_corpus_generated_agrees_with_the_oracle(capsys):
    code, out, _ = run(
        capsys, "corpus", "--gen", "count=25", "--gen", "depth=4", "--seed", "11"
    )
    assert code == 0
    assert "25 formulas, 25 ok, 0 failing" in out


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
