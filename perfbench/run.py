"""Benchmark of semforce's `decide` and its oracle on three seeded workloads.

    python3 perfbench/run.py --workload monadic-batch --seed 7 --seconds 30 --trace 0

Run it from the repository root; it imports the engine from `src/`. The load
is closed-loop: one caller in one thread decides formula after formula, and
each call gets the same deadline on every workload.

With `--trace 0` the engine runs untraced. Passes over the workload repeat,
each after a fresh set-up, until `--seconds` have gone by, at least
`MIN_PASSES` of them. A formula's latency is the median of its passes, each
scaled to reference speed (see `calibrate.py`). Every verdict is checked
against the oracle at the bound `semforce corpus` uses, by re-evaluating its
countermodel, and against the expected verdict where the workload fixes one.

With `--trace 1` one untraced pass is followed by traced passes, which give
the per-layer counts and self times, the tracing overhead and the slowest
formulas with their counts. Counts must repeat exactly between traced passes.

The human-readable report goes to standard output and, with the failures and
slowest formulas in full, to `perfbench/out/`. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracer import ANCHOR, CAPPED, Tracer  # noqa: E402

DEADLINE_S = 10.0
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10
SLOWEST = 5
# large-formula has no oracle check: its chains carry up to 101 constants
ORACLE_WORKLOADS = ("monadic-batch", "fo2-batch")

# the end-to-end metrics BENCHMARK.json gates
GATED = ("setup_s", "decide_per_s", "decide_p50_ms", "decide_tail_ms", "peak_rss_mb")
# per-layer metrics: span self times, call counts and counts from the state
SELF_TIMES = {
    "formulas.parse_s": "formulas.parse",
    "formulas.alpha_normalize_s": "formulas.alpha_normalize",
    "tree.build_s": "tree.build",
    "marking.anchor_s": ANCHOR,
    "marking.relevant_s": "marking.relevant",
    "marking.checkpoint_s": "marking.checkpoint",
    "marking.rollback_s": "marking.rollback",
    "marking.capped_obligations_s": CAPPED,
    "marking.saturate_s": "marking.saturate",
    "decide.self_s": "decide",
    "models.extract_s": "models.extract",
    "models.recheck_s": "models.recheck",
    "models.oracle_s": "models.oracle",
}
CALLS = {
    "formulas.alpha_normalize_calls": "formulas.alpha_normalize",
    "tree.instantiate_calls": "tree.instantiate",
    "marking.anchor_visits": ANCHOR,
    "marking.relevant_calls": "marking.relevant",
    "marking.checkpoint_calls": "marking.checkpoint",
    "decide.branches": "marking.saturate",
    "models.evaluate_calls": "models.recheck",
}
COUNTS = {
    "tree.nodes_final": "tree.nodes_final",
    "marking.firings": "marking.firings",
    "marking.firings_iteration": "marking.firings_iteration",
    "marking.individuals": "marking.individuals",
    "decide.capping_hits": CAPPED + ".hits",
    "models.oracle_interpretations": "models.oracle_interpretations",
}


class DeadlineHit(BaseException):
    """Raised by the alarm; a BaseException so that no handler in the engine
    can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineHit()


def call_with_deadline(fn, *args):
    """(result, error, seconds); error is None, "deadline" or the type name
    of the exception fn raised."""
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineHit:
        return None, "deadline", perf_counter() - start
    except Exception as exc:  # every exception type is a counted failure
        return None, type(exc).__name__, perf_counter() - start
    return result, None, perf_counter() - start


# ---------------------------------------------------------------- set-up


@dataclass
class Entry:
    item: workloads.Item
    formula: object = None
    parse_error: Optional[str] = None


def load_engine() -> SimpleNamespace:
    """Import semforce afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "semforce" or m.startswith("semforce.")]:
        del sys.modules[name]
    sf = importlib.import_module("semforce")
    if not Path(sf.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"semforce was imported from {sf.__file__}, not from {ROOT / 'src'}")
    return SimpleNamespace(
        sf=sf,
        fm=sys.modules["semforce.formulas"],
        gen=importlib.import_module("semforce.gen"),
        # taken before any patching: the checks never run traced code
        decide=sf.decide,
        parse=sf.parse_formula,
        oracle=sf.oracle_validity,
        evaluate=sf.evaluate,
    )


def set_up(workload: str, seed: int) -> tuple[float, SimpleNamespace, list[Entry]]:
    start = perf_counter()
    api = load_engine()
    entries = []
    for item in workloads.generate(workload, seed, api.fm, api.gen):
        entry = Entry(item)
        try:
            entry.formula = api.parse(item.text)
        except Exception as exc:  # a parse failure is a counted failure
            entry.parse_error = type(exc).__name__
        entries.append(entry)
    return perf_counter() - start, api, entries


# ---------------------------------------------------------------- checks


def verdict_word(api, verdict) -> str:
    if isinstance(verdict, api.sf.Valid):
        return "valid"
    if isinstance(verdict, api.sf.Invalid):
        return "invalid"
    return "inconclusive"


def oracle_bound(api, f) -> Optional[int]:
    """The bound `semforce corpus` uses: 2^n for monadic input, 2 for dyadic."""
    fragment = api.sf.classify_fragment(f)
    if isinstance(fragment, api.sf.Monadic):
        return 2 ** fragment.n
    if isinstance(fragment, api.sf.Dyadic2Var):
        return 2
    return None


def check_verdict(api, entry: Entry, verdict, oracle) -> list[str]:
    """The rules of `semforce corpus`, plus a re-evaluation of every
    countermodel. Each returned string is one problem."""
    sf = api.sf
    problems = []
    word = verdict_word(api, verdict)
    if entry.item.expect is not None and word != entry.item.expect:
        problems.append(f"expected {entry.item.expect}, got {word}")
    if isinstance(verdict, sf.Invalid):
        value, error, _ = call_with_deadline(api.evaluate, verdict.model, entry.formula, {})
        if error is not None:
            problems.append(f"countermodel re-check failed: {error}")
        elif value != 0:
            problems.append(f"countermodel evaluates to {value}")
    if isinstance(oracle, str):
        problems.append(f"oracle failed: {oracle}")
    elif isinstance(verdict, sf.Valid) and isinstance(oracle, sf.Refuted):
        problems.append(f"oracle refutes with {len(oracle.interpretation.domain)} individuals")
    elif isinstance(verdict, sf.Invalid) and isinstance(oracle, sf.ValidUpTo):
        if len(verdict.model.domain) <= oracle.bound:
            problems.append("oracle finds no countermodel at the model's size")
    elif isinstance(verdict, sf.NoCountermodelUpTo) and isinstance(oracle, sf.Refuted):
        if len(oracle.interpretation.domain) <= verdict.bound:
            problems.append("oracle refutes within the search budget")
    return problems


# ------------------------------------------------------------- measuring


@dataclass
class Record:
    times: list[float] = field(default_factory=list)
    # per time, the calibration sample taken just before it
    ticks: list[int] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    word: Optional[str] = None
    error: Optional[str] = None
    problems: list[str] = field(default_factory=list)
    nodes_final: Optional[int] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    @property
    def latency(self) -> float:
        return statistics.median(self.scaled)

    @property
    def wall_latency(self) -> float:
        return statistics.median(self.times)


def new_records(entries: list[Entry]) -> list[Record]:
    return [Record(error=None if e.parse_error is None else f"parse:{e.parse_error}") for e in entries]


def decide_pass(api, entries: list[Entry], records: list[Record], cal: Calibrator,
                check: bool, oracle: Optional[list]) -> None:
    """Decide every parsed formula once. A formula that failed is not run
    again; later passes charge it the time of its failure. With
    `check`, verdicts are checked, and each oracle cross-check appends its
    time and calibration sample to `oracle` unless that is None."""
    for entry, rec in zip(entries, records):
        if entry.formula is None:
            continue
        if rec.error is not None:
            rec.times.append(rec.times[-1])
            rec.ticks.append(rec.ticks[-1])
            continue
        rec.ticks.append(cal.tick())
        verdict, error, seconds = call_with_deadline(api.decide, entry.formula)
        rec.times.append(seconds)
        if error is not None:
            rec.error = error
            continue
        word = verdict_word(api, verdict)
        if rec.word is None:
            rec.word = word
            rec.nodes_final = len(verdict.state.tree.nodes)
        elif word != rec.word:
            rec.problems.append(f"verdict changed between passes: {rec.word} then {word}")
        if not check:
            continue
        result = None
        if oracle is not None:
            bound = oracle_bound(api, entry.formula)
            if bound is not None:
                tick = cal.tick()
                result, error, seconds = call_with_deadline(api.oracle, entry.formula, bound)
                oracle.append((seconds, tick))
                result = error if error is not None else result
        for problem in check_verdict(api, entry, verdict, result):
            if problem not in rec.problems:
                rec.problems.append(problem)


def latency_metrics(records: list[Record], latency, suffix: str = "") -> dict:
    """Throughput, median and tail over the formulas that reached decide,
    fastest first; a failed formula ranks slower than any completed one."""
    order = sorted((r for r in records if r.times), key=lambda r: (r.failed, latency(r)))
    n = len(order)
    correct = sum(1 for r in records if not r.failed)
    tail_at = max(n - TAIL_BEYOND - 1, 0)
    return {
        "decide_per_s" + suffix: (correct / sum(latency(r) for r in order), "1/s"),
        "decide_p50_ms" + suffix: (latency(order[math.ceil(n / 2) - 1]) * 1e3, "ms"),
        "decide_tail_ms" + suffix: (latency(order[tail_at]) * 1e3, "ms"),
    }


def tail_rank(records: list[Record]) -> dict:
    n = sum(1 for r in records if r.times)
    tail_at = max(n - TAIL_BEYOND - 1, 0)
    return {"percentile": 100 * (tail_at + 1) / n, "samples": n, "beyond": n - 1 - tail_at}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Passes until `seconds` are up, each after a fresh set-up, so that the
    set-up times spread over the run as the decide times do."""
    cal = Calibrator()
    oracle: Optional[list] = [] if workload in ORACLE_WORKLOADS else None
    setups: list[tuple[float, int]] = []
    records: list[Record] = []
    start = perf_counter()
    while len(setups) < MIN_PASSES or perf_counter() - start < seconds:
        gc.collect()
        tick = cal.tick()
        setup_s, api, entries = set_up(workload, seed)
        setups.append((setup_s, tick))
        records = records or new_records(entries)
        decide_pass(api, entries, records, cal, check=len(setups) == 1, oracle=oracle)
    for rec in records:
        # a deadline is a wall-clock budget: what it costs does not scale
        if rec.error == "deadline":
            rec.scaled = list(rec.times)
        else:
            rec.scaled = [t * cal.scale(k) for t, k in zip(rec.times, rec.ticks)]
    attempted = len(records)
    metrics = {"setup_s": (statistics.median(s * cal.scale(k) for s, k in setups), "s")}
    metrics.update(latency_metrics(records, lambda r: r.latency))
    metrics["failed_share"] = (sum(r.failed for r in records) / attempted, "share")
    metrics["inconclusive_share"] = (sum(r.word == "inconclusive" for r in records) / attempted, "share")
    if oracle:
        metrics["oracle_per_s"] = (len(oracle) / sum(s * cal.scale(k) for s, k in oracle), "1/s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["setup_s_wall"] = (statistics.median(s for s, _ in setups), "s")
    metrics.update(latency_metrics(records, lambda r: r.wall_latency, "_wall"))
    if oracle:
        metrics["oracle_per_s_wall"] = (len(oracle) / sum(s for s, _ in oracle), "1/s")
    metrics["reference_ms"] = (cal.reference_ms(), "ms")
    order = sorted((i for i, r in enumerate(records) if r.times), key=lambda i: -records[i].latency)
    slowest = [{
        "formula": entries[i].item.text,
        "verdict": records[i].error or records[i].word,
        "time_ms": records[i].latency * 1e3,
        "tree.nodes_final": records[i].nodes_final,
    } for i in order[:SLOWEST]]
    return {
        "entries": entries, "records": records, "metrics": metrics,
        "tail": tail_rank(records), "passes": len(setups), "slowest": slowest,
    }


# --------------------------------------------------------------- tracing


def traced_pass(api, tr: Tracer, entries: list[Entry], records: list[Record], oracle: bool) -> list[dict]:
    """Parse and decide every formula once under the tracer; returns the
    per-formula counts."""
    rows = []
    for i, (entry, rec) in enumerate(zip(entries, records)):
        tr.request = i
        tr.enter("formulas.parse")
        try:
            api.parse(entry.item.text)
        except Exception:  # the untraced set-up already counted it
            pass
        finally:
            tr.unwind(0)
        # a formula that hit the deadline would cut its counts at random
        if entry.formula is None or rec.error == "deadline":
            rows.append({})
            continue
        branches = tr.calls["marking.saturate"]
        tr.last_state = None
        tr.enter("decide")
        call_with_deadline(api.decide, entry.formula)
        tr.unwind(0)
        state = tr.last_state
        row = {"branches": tr.calls["marking.saturate"] - branches, "nodes_final": 0}
        if state is not None:
            row["nodes_final"] = len(state.tree.nodes)
            tr.counts["tree.nodes_final"] += row["nodes_final"]
            tr.counts["marking.firings"] += len(state.trace)
            tr.counts["marking.firings_iteration"] += sum(1 for st in state.trace if st.rule in ("IA", "IR"))
        rows.append(row)
        if oracle:
            bound = oracle_bound(api, entry.formula)
            if bound is not None:
                tr.enter("models.oracle")
                call_with_deadline(api.oracle, entry.formula, bound)
                tr.unwind(0)
    tr.last_state = None
    return rows


def untraced_decide_s(records: list[Record]) -> float:
    """Decide time of the latest pass, over the formulas a traced pass runs."""
    return sum(r.times[-1] for r in records if r.times and r.error != "deadline")


def trace(workload: str, seed: int, seconds: float, spans_path: Path) -> dict:
    """Untraced and traced passes in turn while `seconds` last, at least
    MIN_TRACED_PASSES of each; the first untraced pass checks the verdicts
    and finds the deadline hits. Self times are wall-clock seconds, not
    scaled."""
    _, api, entries = set_up(workload, seed)
    records = new_records(entries)
    cal = Calibrator()
    oracle: Optional[list] = [] if workload in ORACLE_WORKLOADS else None
    tr = Tracer()
    untraced: list[float] = []
    passes: list[dict] = []
    rows: list[dict] = []
    start = perf_counter()
    while len(passes) < MIN_TRACED_PASSES or perf_counter() - start < seconds:
        gc.collect()
        decide_pass(api, entries, records, cal, check=not passes, oracle=oracle)
        untraced.append(untraced_decide_s(records))
        gc.collect()
        tr.reset_totals()
        tr.recording = not passes
        tr.install()
        try:
            pass_rows = traced_pass(api, tr, entries, records, oracle is not None)
        finally:
            tr.uninstall()
        rows = rows or pass_rows
        passes.append({
            "calls": dict(tr.calls),
            "counts": dict(tr.counts),
            "self_s": dict(tr.self_s),
            "decide_s": tr.total_s["decide"],
        })
    spans = tr.write_spans(spans_path)
    first = passes[0]
    repeat = all(p["calls"] == first["calls"] and p["counts"] == first["counts"] for p in passes[1:])
    metrics = {}
    for name, span in SELF_TIMES.items():
        metrics[name] = (statistics.median(p["self_s"].get(span, 0.0) for p in passes), "s")
    for name, span in CALLS.items():
        metrics[name] = (first["calls"].get(span, 0), "count")
    for name, key in COUNTS.items():
        metrics[name] = (first["counts"].get(key, 0), "count")
    visits = first["calls"].get(ANCHOR, 0)
    useful = first["counts"].get(ANCHOR + ".hits", 0)
    metrics["marking.anchor_useful_ratio"] = (useful / visits if visits else 0.0, "ratio")
    traced_s = statistics.median(p["decide_s"] for p in passes)
    untraced_s = statistics.median(untraced)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    slowest = []
    for i in sorted(range(len(records)), key=lambda k: -(records[k].times or [0.0])[0])[:SLOWEST]:
        rec, row = records[i], rows[i]
        slowest.append({
            "formula": entries[i].item.text,
            "verdict": rec.error or rec.word,
            "time_ms": rec.times[0] * 1e3 if rec.times else None,
            "decide.branches": row.get("branches"),
            "tree.nodes_final": row.get("nodes_final"),
        })
    return {
        "entries": entries,
        "records": records,
        "metrics": metrics,
        "counts_repeat": repeat,
        "traced_passes": len(passes),
        "untraced_decide_s": untraced_s,
        "traced_decide_s": traced_s,
        "spans": spans,
        "slowest": slowest,
    }


# ---------------------------------------------------------------- report


def environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "deadline_s": DEADLINE_S,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def short(text: str, width: int = 90) -> str:
    return text if len(text) <= width else f"{text[:width - 20]}… ({len(text)} chars)"


def failures(entries: list[Entry], records: list[Record]) -> list[dict]:
    out = []
    for entry, rec in zip(entries, records):
        reasons = []
        if rec.error == "deadline":
            reasons.append(f"deadline of {DEADLINE_S:g} s")
        elif rec.error and rec.error.startswith("parse:"):
            reasons.append(f"parse raised {rec.error.removeprefix('parse:')}")
        elif rec.error:
            reasons.append(f"decide raised {rec.error}")
        reasons += rec.problems
        if reasons:
            out.append({"formula": entry.item.text, "reasons": reasons})
    return out


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"semforce bench: {env['workload']} seed={env['seed']} trace={report['trace']}")
    print(f"  python {env['python']} on {env['platform']}, nproc {env['nproc']}, {env['cpu']}")
    print(f"  commit {env['commit']}, deadline {env['deadline_s']:g} s per formula")
    print(f"  {report['attempted']} formulas, {report['failed']} failed, {report['passes']} passes")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    if "tail" in report:
        t = report["tail"]
        print(f"  decide_tail_ms is p{t['percentile']:.4g} of {t['samples']} formulas ({t['beyond']} beyond it)")
    for key in ("counts_repeat", "traced_passes", "untraced_decide_s", "traced_decide_s", "spans"):
        if key in report:
            print(f"  {key}: {report[key]}")
    print("  failures:" if report["failures"] else "  failures: none")
    for fail in report["failures"]:
        print(f"    {short(fail['formula'])}: {'; '.join(fail['reasons'])}")
    print(f"  slowest {SLOWEST}:")
    for row in report["slowest"]:
        cells = [f"{row['time_ms']:.2f} ms" if row["time_ms"] is not None else "-", str(row["verdict"])]
        for key in ("decide.branches", "tree.nodes_final"):
            if key in row:
                cells.append(f"{key}={row[key]}")
        print(f"    {'  '.join(cells)}  {short(row['formula'], 70)}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.BASE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "semforce" / "__init__.py").is_file():
        print(f"no engine source at {ROOT / 'src' / 'semforce'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    report: dict = {"environment": environment(args.workload, args.seed), "trace": args.trace}
    if args.trace == 0:
        result = measure(args.workload, args.seed, args.seconds)
        emitted = {k: result["metrics"][k] for k in GATED}
    else:
        result = trace(args.workload, args.seed, args.seconds, OUT_DIR / f"{stem}-spans.tsv.gz")
        result["passes"] = 2 * result["traced_passes"]
        emitted = result["metrics"]
    entries = result.pop("entries")
    records = result.pop("records")
    report.update(result)
    correct = result.get("counts_repeat", True) and not any(r.problems for r in records)
    report["attempted"] = len(records)
    report["failed"] = sum(r.failed for r in records)
    report["failures"] = failures(entries, records)
    report["correct"] = correct
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()}},
                  fh, indent=1)
    print_report(report)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in emitted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
