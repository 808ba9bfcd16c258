"""Compare two checkouts on one benchmark workload, in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload large-formula \
        --pairs 10 --seconds 30 --seed 7 [--layer formulas.parse_s tree.build_s ...]

Each pair runs `python3 perfbench/run.py --workload W --seed K --seconds S
--trace 0` once in each directory, the parent first on odd pairs and the
change first on even ones, and prints each run's last line, its JSON summary,
as it completes. Then, for each end-to-end metric that the change
directory's BENCHMARK.json lists, it prints the parent's median and
interquartile range, the change's median, their ratio, and the number of
pairs the change won (a tie counts for neither side). A gain passes when the
change won at least nine tenths of the pairs and its median beats the
parent's by more than the parent's interquartile range. A run that is not
correct, or fails more formulas than the other side's first run, is
reported below the table. With --layer, each pair also makes one traced
run per side (`--trace 1 --seconds 0`, at the same seed, in the pair's
order), and for each named per-layer metric of BENCHMARK.json the table
gives each side's lower quartile, median and upper quartile over those runs
and the ratio of the medians: a layer's self time moves between two traced
runs by more than a change of a few percent, so one run per side cannot
show where a saving sits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(directory: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in directory, untraced unless trace is 1; its JSON
    summary line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=directory, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, the median and the upper quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(end_to_end: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """One row per end-to-end metric, from the summary lines of the two sides'
    runs; parent[i] and change[i] are the runs of pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent run and one change run per pair, and at least one pair")
    rows = []
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        q1, base, q3 = quartiles(before)
        median = statistics.median(after)
        wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        rows.append({
            "name": name,
            "unit": spec["unit"],
            "better": spec["better"],
            "parent_median": base,
            "parent_iqr": q3 - q1,
            "change_median": median,
            "ratio": median / base if base else float("nan"),
            "wins": wins,
            "pairs": len(before),
            "gain": 10 * wins >= 9 * len(before) and sign * (median - base) > q3 - q1,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    head = f"{'metric':<16} {'unit':<4} {'parent median':>14} {'parent IQR':>11} {'change median':>14} " \
           f"{'ratio':>7} {'won':>6}  gain"
    lines = [head]
    for r in rows:
        lines.append(
            f"{r['name']:<16} {r['unit']:<4} {r['parent_median']:>14.6g} {r['parent_iqr']:>11.4g} "
            f"{r['change_median']:>14.6g} {r['ratio']:>7.4f} {r['wins']:>3}/{r['pairs']:<2}  "
            f"{'passes' if r['gain'] else 'no'} ({r['better']} is better)"
        )
    return "\n".join(lines)


def format_layers(names: list[str], units: dict[str, str], parent: list[dict], change: list[dict]) -> str:
    """The quartiles of the named per-layer metrics over each side's traced
    runs, side by side; a metric no run of a side reports reads "-"."""
    head = f"{'per-layer metric':<32} {'unit':<5} {'parent q1':>10} {'median':>10} {'q3':>10} " \
           f"{'change q1':>10} {'median':>10} {'q3':>10} {'ratio':>7}"
    lines = [head]
    for name in names:
        cells, medians = [], []
        for runs in (parent, change):
            values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
            q = quartiles(values) if values else None
            cells += ["-"] * 3 if q is None else [f"{v:.6g}" for v in q]
            medians.append(None if q is None else q[1])
        before, after = medians
        ratio = "-" if before is None or after is None or not before else f"{after / before:.4f}"
        lines.append(f"{name:<32} {units[name]:<5} " + " ".join(f"{c:>10}" for c in cells) + f" {ratio:>7}")
    return "\n".join(lines)


def problems(parent: list[dict], change: list[dict]) -> list[str]:
    """Runs that are not correct, or that fail more formulas than the first run."""
    out = []
    baseline = parent[0]["failed"]
    for side, runs in (("parent", parent), ("change", change)):
        for i, run in enumerate(runs, 1):
            if not run["correct"]:
                out.append(f"pair {i} {side}: not correct")
            if run["failed"] > baseline:
                out.append(f"pair {i} {side}: {run['failed']} failed, against {baseline} in the parent's first run")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=424242)
    parser.add_argument("--layer", nargs="+", default=[], metavar="NAME",
                        help="per-layer metrics to compare over one traced run per side and pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {layer["name"]: layer["unit"] for layer in spec["per_layer"]}
    unknown = [name for name in args.layer if name not in units]
    if unknown:
        parser.error(f"--layer: not a per-layer metric of BENCHMARK.json: {', '.join(unknown)}")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    traced: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            summary = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(summary)
            print(f"pair {i} {side}: {json.dumps(summary)}", flush=True)
        if args.layer:
            for side in order:
                traced[side].append(run_once(getattr(args, side), args.workload, args.seed, 0, trace=1))
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(format_rows(summarize(spec["end_to_end"], runs["parent"], runs["change"])))
    for line in problems(runs["parent"], runs["change"]):
        print(line)
    if args.layer:
        print(f"one traced run per side and pair (--trace 1 --seconds 0, seed {args.seed})")
        print(format_layers(args.layer, units, traced["parent"], traced["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
