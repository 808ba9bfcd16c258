"""tools/bench_pairs.py: the pair summary, on canned benchmark summary lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def line(per_s, p50, failed=2, correct=True):
    """A run's last line, as perfbench/run.py prints it."""
    metrics = {"setup_s": 0.06, "decide_per_s": per_s, "decide_p50_ms": p50, "decide_tail_ms": 3.0,
               "peak_rss_mb": 22.0}
    units = {spec["name"]: spec["unit"] for spec in END_TO_END}
    return json.dumps({"correct": correct, "attempted": 30, "failed": failed,
                       "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}})


def test_the_summary_counts_wins_and_applies_the_gain_rule():
    parent = [json.loads(line(400 + k, 2.0 + k / 100)) for k in range(10)]
    # decide_per_s: the change wins 9 of 10 and its median beats the parent's
    # by 40/s, against a parent IQR of 4.5/s; decide_p50_ms: it wins 5, loses 5
    change = [json.loads(line(440 + k if k else 300, 2.0 + k / 100 + (0.05 if k % 2 else -0.05)))
              for k in range(10)]
    rows = {r["name"]: r for r in bench_pairs.summarize(END_TO_END, parent, change)}
    assert list(rows) == [spec["name"] for spec in END_TO_END]
    per_s = rows["decide_per_s"]
    assert (per_s["parent_median"], per_s["parent_iqr"], per_s["change_median"]) == (404.5, 4.5, 444.5)
    assert per_s["ratio"] == 444.5 / 404.5
    assert (per_s["wins"], per_s["pairs"], per_s["gain"]) == (9, 10, True)
    p50 = rows["decide_p50_ms"]
    assert (p50["wins"], p50["gain"]) == (5, False)
    # equal values tie, and a tie counts for neither side
    assert (rows["setup_s"]["wins"], rows["setup_s"]["gain"]) == (0, False)
    table = bench_pairs.format_rows(list(rows.values()))
    assert "decide_per_s" in table and " 9/10" in table and "passes" in table
    assert bench_pairs.problems(parent, change) == []


def test_eight_wins_of_ten_or_a_gap_inside_the_iqr_is_no_gain():
    parent = [json.loads(line(400 + 10 * k, 2.0)) for k in range(10)]
    eight = [json.loads(line(500 + 10 * k if k > 1 else 300, 2.0)) for k in range(10)]
    assert bench_pairs.summarize(END_TO_END, parent, eight)[1]["gain"] is False
    # every pair won, but by less than the parent's IQR of 45/s
    close = [json.loads(line(401 + 10 * k, 2.0)) for k in range(10)]
    row = bench_pairs.summarize(END_TO_END, parent, close)[1]
    assert (row["wins"], row["parent_iqr"], row["gain"]) == (10, 45.0, False)


def test_runs_that_are_wrong_or_fail_more_are_named():
    parent = [json.loads(line(400, 2.0)), json.loads(line(400, 2.0))]
    change = [json.loads(line(410, 2.0, failed=3)), json.loads(line(410, 2.0, correct=False))]
    assert bench_pairs.problems(parent, change) == [
        "pair 1 change: 3 failed, against 2 in the parent's first run",
        "pair 2 change: not correct",
    ]


PER_LAYER = {spec["name"]: spec["unit"]
             for spec in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}


def traced_line(parse_s, visits):
    """A traced run's last line, with two of its per-layer metrics."""
    metrics = {"formulas.parse_s": parse_s, "marking.anchor_visits": visits}
    return json.dumps({"correct": True, "attempted": 30, "failed": 2,
                       "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()}})


def test_the_named_layers_print_each_sides_quartiles_over_its_traced_runs():
    # five traced runs per side; the parent's parse times are listed out of order
    parent = [json.loads(traced_line(p, 7150)) for p in (0.0170, 0.0150, 0.0167, 0.0190, 0.0160)]
    change = [json.loads(traced_line(p, 5940)) for p in (0.0110, 0.0112, 0.0130, 0.0100, 0.0115)]
    names = ["formulas.parse_s", "marking.anchor_visits", "tree.build_s"]
    table = bench_pairs.format_layers(names, PER_LAYER, parent, change).splitlines()
    assert len(table) == 4 and table[0].split() == [
        "per-layer", "metric", "unit", "parent", "q1", "median", "q3", "change", "q1", "median", "q3", "ratio"]
    # inclusive quartiles of five values: the second, third and fourth in order
    assert table[1].split() == ["formulas.parse_s", "s", "0.016", "0.0167", "0.017",
                                "0.011", "0.0112", "0.0115", f"{0.0112 / 0.0167:.4f}"]
    assert table[2].split() == ["marking.anchor_visits", "count", "7150", "7150", "7150",
                                "5940", "5940", "5940", f"{5940 / 7150:.4f}"]
    # a metric no run reports reads "-", and so does its ratio
    assert table[3].split() == ["tree.build_s", "s"] + ["-"] * 7


def test_the_layers_come_from_one_traced_run_per_side_and_pair_in_the_pairs_order(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_run(directory, workload, seed, seconds, trace=0):
        calls.append((directory.name, seconds, trace))
        return json.loads(line(400, 2.0) if not trace else traced_line(0.0167, 7150))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8")
    assert bench_pairs.main([str(parent), str(change), "--workload", "fo2-batch", "--pairs", "2",
                             "--seconds", "30", "--layer", "formulas.parse_s"]) == 0
    assert calls == [("parent", 30.0, 0), ("change", 30.0, 0), ("parent", 0, 1), ("change", 0, 1),
                     ("change", 30.0, 0), ("parent", 30.0, 0), ("change", 0, 1), ("parent", 0, 1)]
    out = capsys.readouterr().out
    assert "one traced run per side and pair" in out
    assert out.splitlines()[-1].split()[:5] == ["formulas.parse_s", "s", "0.0167", "0.0167", "0.0167"]


def test_a_layer_that_is_no_per_layer_metric_is_refused(capsys):
    # refused before any run starts
    with pytest.raises(SystemExit) as refused:
        bench_pairs.main([str(ROOT), str(ROOT), "--workload", "large-formula", "--layer", "formulas.parse"])
    assert refused.value.code == 2
    assert "not a per-layer metric of BENCHMARK.json: formulas.parse" in capsys.readouterr().err
