"""Command line interface.

Subcommands: check (decide validity), render (saturated tree as text or DOT),
oracle (exhaustive model search), corpus (batch decide/oracle agreement over a
formula file or a generated batch).

Exit codes: 0 valid/success, 1 invalid/disagreement, 2 no countermodel found
within the bound, 64 parse error, 65 data or fragment error, 70 internal or
resource failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from .decide import EngineConfig, Invalid, NoCountermodelUpTo, Valid, decide, domain_bound, fragment_bounds
from .errors import FragmentError, ParseError, ResourceLimitError, SemforceError
from .formulas import Formula, classify_fragment, format_formula, is_name, parse_formula
from .gen import random_monadic
from .marking import init_marking, saturate
from .models import Interpretation, OracleLimitError, Refuted, ValidUpTo, oracle_validity
from .render import render_ascii, render_dot, render_trace
from .tree import build_initial_tree

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_NO_COUNTERMODEL = 2
EXIT_PARSE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70


def model_json(i: Interpretation) -> dict:
    return {
        "domain": sorted(i.domain),
        "constants": dict(sorted(i.constants.items())),
        "monadic": {p: sorted(m) for p, m in sorted(i.monadic.items())},
        "dyadic": {p: sorted(list(pair) for pair in ext) for p, ext in sorted(i.dyadic.items())},
    }


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    kwargs = {}
    if getattr(args, "branch_limit", None) is not None:
        kwargs["branch_limit"] = args.branch_limit
    return EngineConfig(
        max_individuals=getattr(args, "max_individuals", None),
        allow_direct=getattr(args, "direct", False),
        **kwargs,
    )


def _cmd_check(args: argparse.Namespace) -> int:
    f = parse_formula(args.formula)
    verdict = decide(f, _engine_config(args))
    if isinstance(verdict, NoCountermodelUpTo):
        payload: dict = {"verdict": "no_countermodel_up_to", "bound": verdict.bound}
        headline = f"no countermodel found up to {verdict.bound} individuals"
    else:
        payload = {"verdict": _verdict_word(verdict)}
        headline = payload["verdict"]
    if isinstance(verdict, Invalid):
        payload["countermodel"] = model_json(verdict.model)
    if args.trace:
        searched = verdict.state.tree.node_formula(verdict.state.tree.root)
        if searched != f:
            payload["decided"] = format_formula(searched)
        payload["trace"] = render_trace(verdict.state.trace).splitlines()
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(headline)
        if "countermodel" in payload:
            print(json.dumps(payload["countermodel"], indent=2))
        if "decided" in payload:
            print(f"decided as: {payload['decided']}")
        if args.trace:
            print("\n".join(payload["trace"]))
    if isinstance(verdict, NoCountermodelUpTo):
        return EXIT_NO_COUNTERMODEL
    return EXIT_VALID if isinstance(verdict, Valid) else EXIT_INVALID


def _cmd_render(args: argparse.Namespace) -> int:
    f = parse_formula(args.formula)
    cfg = _engine_config(args)
    budget = domain_bound(classify_fragment(f), cfg)
    # the tree decide searches: each vacuous binder would add an individual.
    # One saturation at the full budget, decide's last level, and no search
    s = init_marking(build_initial_tree(f, drop_vacuous=True))
    searched = s.tree.node_formula(s.tree.root)
    s.open_supposition(s.tree.root, 0, kind="RR")
    saturate(s, budget)
    if s.dm is None and not s.unmarked_relevant_ground():
        s.commit_frames()
    dot = args.format == "dot"
    if searched != f:
        print(f"{'// ' if dot else ''}decided as: {format_formula(searched)}")
    print(render_dot(s) if dot else render_ascii(s))
    return EXIT_VALID


def _oracle_bound(f: Formula, flag: Optional[int]) -> Optional[int]:
    if flag is not None:
        return flag
    bounds = fragment_bounds(classify_fragment(f))
    return None if bounds is None else bounds[1]


def _cmd_oracle(args: argparse.Namespace) -> int:
    f = parse_formula(args.formula)
    bound = _oracle_bound(f, args.max_domain)
    if bound is None:
        print("an explicit --max-domain is required outside the decidable fragments", file=sys.stderr)
        return EXIT_DATA
    result = oracle_validity(f, bound)
    if isinstance(result, ValidUpTo):
        print(f"valid up to domain size {result.bound}")
        return EXIT_VALID
    print("invalid")
    print(json.dumps(model_json(result.interpretation), indent=2))
    return EXIT_INVALID


def _parse_corpus(text: str) -> list[tuple[str, Optional[str]]]:
    entries = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        expect = None
        if "#" in line:
            line, _, note = line.partition("#")
            line = line.strip()
            note = note.strip()
            if note.startswith("expect:"):
                expect = note.removeprefix("expect:").strip()
        entries.append((line, expect))
    return entries


def _verdict_word(verdict) -> str:
    if isinstance(verdict, Valid):
        return "valid"
    if isinstance(verdict, Invalid):
        return "invalid"
    return f"no-countermodel<={verdict.bound}"


def _check_entry(text: str, expect: Optional[str], cfg: EngineConfig, max_domain: Optional[int]) -> tuple[str, str]:
    """The entry's status (ok, FAIL or refused, when the oracle refuses its
    domain size) and its line."""
    f = parse_formula(text)
    verdict = decide(f, cfg)
    word = _verdict_word(verdict)
    problems = []
    if expect is not None and word != expect:
        problems.append(f"expected {expect}")
    bound = _oracle_bound(f, max_domain)
    if bound is not None:
        try:
            oracle = oracle_validity(f, bound)
        except OracleLimitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return "refused", f"refused {word:<22} {text} (the oracle refused its domain size)"
        if isinstance(verdict, Valid) and isinstance(oracle, Refuted):
            problems.append(f"oracle refutes with {len(oracle.interpretation.domain)} individuals")
        elif isinstance(verdict, Invalid) and isinstance(oracle, ValidUpTo):
            if len(verdict.model.domain) <= oracle.bound:
                problems.append("oracle finds no countermodel at the model's size")
        elif isinstance(verdict, NoCountermodelUpTo) and isinstance(oracle, Refuted):
            if len(oracle.interpretation.domain) <= verdict.bound:
                problems.append("oracle refutes within the search budget")
    status = "FAIL" if problems else "ok"
    note = " (" + "; ".join(problems) + ")" if problems else ""
    return status, f"{status:<4} {word:<22} {text}{note}"


def _gen_options(items: list[str]) -> tuple[int, tuple[str, ...], int]:
    """count, preds and depth from `--gen KEY=VAL` items, defaults where
    unset; raises ValueError naming the key of a malformed item."""
    opts = {"count": "100", "preds": "P,Q", "depth": "6"}
    for item in items:
        key, eq, val = item.partition("=")
        if not eq:
            raise ValueError(f"--gen expects KEY=VAL, got {item!r}")
        if key not in opts:
            raise ValueError(f"--gen: unknown key {key!r}; the keys are count, preds and depth")
        opts[key] = val
    for key in ("count", "depth"):
        if not (opts[key].isascii() and opts[key].isdigit()):
            raise ValueError(f"--gen {key} must be an integer >= 0, got {opts[key]!r}")
    preds = tuple(opts["preds"].split(","))
    for pred in preds:
        if not is_name(pred):
            raise ValueError(f"--gen preds: {pred!r} is not a predicate name")
    return int(opts["count"]), preds, int(opts["depth"])


def _cmd_corpus(args: argparse.Namespace) -> int:
    cfg = _engine_config(args)
    entries: list[tuple[str, Optional[str]]]
    if args.gen:
        # a malformed option is a ValueError, so main exits with EXIT_DATA
        count, preds, depth = _gen_options(args.gen)
        rng = random.Random(args.seed)
        entries = [
            (str(random_monadic(rng, preds=preds, max_complexity=depth)), None)
            for _ in range(count)
        ]
    else:
        if args.path is None:
            from importlib import resources  # only here: on 3.12+ it loads inspect

            text = resources.files("semforce").joinpath("data/illustrations.corpus").read_text()
        else:
            try:
                with open(args.path, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"cannot read corpus: {exc}", file=sys.stderr)
                return EXIT_DATA
        entries = _parse_corpus(text)
    counts = {"ok": 0, "FAIL": 0, "refused": 0}
    for text, expect in entries:
        status, line = _check_entry(text, expect, cfg, args.max_domain)
        counts[status] += 1
        print(line)
    refused = f", {counts['refused']} refused by the oracle" if counts["refused"] else ""
    print(f"{len(entries)} formulas, {counts['ok']} ok, {counts['FAIL']} failing{refused}")
    # a refusal is a data error, as it is for the oracle command
    return EXIT_DATA if counts["refused"] else EXIT_INVALID if counts["FAIL"] else EXIT_VALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semforce",
        description="Decide validity of predicate-logic formulas by forcing-tree marking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a formula and report verdict or countermodel")
    check.add_argument("formula")
    check.add_argument("--direct", action="store_true", help="try direct forcing of the root first")
    check.add_argument("--max-individuals", type=int, default=None)
    check.add_argument("--branch-limit", type=int, default=None, help="abort after this many search branches")
    check.add_argument("--trace", action="store_true", help="print the marking steps")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(fn=_cmd_check)

    render = sub.add_parser("render", help="render the forcing tree saturated once at the full budget, without search")
    render.add_argument("formula")
    render.add_argument("--format", choices=("ascii", "dot"), default="ascii")
    render.add_argument("--max-individuals", type=int, default=None)
    render.set_defaults(fn=_cmd_render)

    oracle = sub.add_parser("oracle", help="exhaustive countermodel search over small domains")
    oracle.add_argument("formula")
    oracle.add_argument("--max-domain", type=int, default=None)
    oracle.set_defaults(fn=_cmd_oracle)

    corpus = sub.add_parser("corpus", help="run decider and oracle over a formula corpus")
    corpus.add_argument("path", nargs="?", default=None, help="corpus file; bundled examples when omitted")
    corpus.add_argument("--gen", action="append", metavar="KEY=VAL",
                        help="generate formulas instead: count, preds, depth")
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--max-domain", type=int, default=None)
    corpus.add_argument("--max-individuals", type=int, default=None)
    corpus.set_defaults(fn=_cmd_corpus)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (FragmentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RecursionError:
        # a formula the parser accepts can still be too deep for evaluate, in
        # decide's re-check of a countermodel or in the oracle: a long flat chain
        print("resource limit: formula nested too deeply for the interpreter's recursion limit", file=sys.stderr)
        return EXIT_INTERNAL
    except SemforceError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
