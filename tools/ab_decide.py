"""Time `decide` from two checkouts in one process, formula by formula.

    python3 tools/ab_decide.py PARENT_DIR [CHANGE_DIR] --workload monadic-batch \
        --rounds 9 --seed 424242

Each directory's `src/semforce` is imported as a package of its own
(`semforce_a`, `semforce_b`); with one directory it is imported twice, an
A/A run whose ratios show the noise. The workload's formulas come from this
checkout's `perfbench/workloads.py`, imported by path, and each side parses
them with its own parser. One untimed decision per formula and side comes
first: a formula that fails to parse, raises or outlasts the 10 s alarm on
either side is left out, and verdict classes that differ between the sides
are counted. Then each round decides every formula once with each side, the
side that goes first alternating by formula and by round, so that drift in
the machine's speed falls on both alike. A formula's time per side is the
median of its rounds. The report gives, as B over A: the ratio of the summed
per-formula medians, of the median formula's (p50) and of the tail's, the
formula with ten slower ones beyond it, as `perfbench/run.py` ranks it. The
last line is the same as one JSON object.

This is a sizing aid for a noisy shared machine, where two separate
benchmark runs differ by more than a small change: it is not a gain claim,
which only `tools/bench_pairs.py` over `perfbench/run.py` makes.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ALARM_S = 10.0
TAIL_BEYOND = 10


class Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise Alarm()


def load_package(directory: Path, name: str):
    """directory's src/semforce, imported under name."""
    pkg = directory / "src" / "semforce"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def first_verdicts(sides, texts: list[str]) -> tuple[list[tuple], int, int]:
    """Per text that both sides parse and decide within the alarm, its two
    formulas; with the numbers of texts left out and of verdict classes that
    differ."""
    kept, left_out, disagree = [], 0, 0
    signal.signal(signal.SIGALRM, _on_alarm)
    for text in texts:
        try:
            pair = tuple(sf.parse_formula(text) for sf in sides)
            signal.setitimer(signal.ITIMER_REAL, ALARM_S)
            try:
                names = [type(sf.decide(f)).__name__ for sf, f in zip(sides, pair)]
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception:  # Alarm too: every failure leaves the text out
            left_out += 1
            continue
        disagree += names[0] != names[1]
        kept.append(pair)
    return kept, left_out, disagree


def time_rounds(sides, pairs: list[tuple], rounds: int) -> list[list[list[float]]]:
    """times[side][formula] lists one decide time per round."""
    times = [[[] for _ in pairs] for _ in sides]
    gc.collect()
    for r in range(rounds):
        for i, pair in enumerate(pairs):
            for k in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                decide, f = sides[k].decide, pair[k]
                start = perf_counter()
                decide(f)
                times[k][i].append(perf_counter() - start)
    return times


def summary(times: list[list[list[float]]]) -> dict:
    """Per side the summed per-formula medians (s) and the p50 and tail
    formula's median (ms), and their ratios B over A."""
    out: dict = {}
    for side, per_formula in zip("AB", times):
        medians = sorted(statistics.median(t) for t in per_formula)
        n = len(medians)
        out[side] = {
            "sum_s": sum(medians),
            "p50_ms": medians[math.ceil(n / 2) - 1] * 1e3,
            "tail_ms": medians[max(n - TAIL_BEYOND - 1, 0)] * 1e3,
        }
    out["ratio"] = {key: out["B"][key] / out["A"][key] for key in out["A"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path, nargs="?")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=424242)
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    b = args.b if args.b is not None else args.a
    sides = (load_package(args.a, "semforce_a"), load_package(b, "semforce_b"))
    gen = importlib.import_module("semforce_a.gen")
    items = load_workloads().generate(args.workload, args.seed, sys.modules["semforce_a.formulas"], gen)
    pairs, left_out, disagree = first_verdicts(sides, [item.text for item in items])
    if not pairs:
        sys.exit("no formula was decided by both sides")
    result = summary(time_rounds(sides, pairs, args.rounds))
    rounds = f"{args.rounds} round{'s' if args.rounds > 1 else ''}"
    print(f"{args.workload}, seed {args.seed}, {rounds}, {len(pairs)} formulas "
          f"({left_out} left out, {disagree} verdicts differ)")
    print(f"A: {args.a}")
    print(f"B: {b}{' (A/A)' if args.b is None else ''}")
    print(f"{'':<18} {'A':>10} {'B':>10} {'B/A':>7}")
    for key, label, unit in (("sum_s", "sum of medians", "s"), ("p50_ms", "p50", "ms"), ("tail_ms", "tail", "ms")):
        print(f"{label + ' (' + unit + ')':<18} {result['A'][key]:>10.4g} {result['B'][key]:>10.4g} "
              f"{result['ratio'][key]:>7.4f}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": args.rounds, "formulas": len(pairs),
                      "left_out": left_out, "disagree": disagree, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
