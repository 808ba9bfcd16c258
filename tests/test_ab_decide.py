"""tools/ab_decide.py: the shape of its report, on one A/A round of fo2-batch."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_an_a_a_round_reports_the_three_ratios_over_every_formula():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_decide.py"), str(ROOT), "--workload", "fo2-batch", "--rounds", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout.splitlines()
    assert out[0] == "fo2-batch, seed 424242, 1 round, 120 formulas (0 left out, 0 verdicts differ)"
    assert out[1] == f"A: {ROOT}" and out[2] == f"B: {ROOT} (A/A)"
    assert out[3].split() == ["A", "B", "B/A"]
    assert [line.split(" (")[0] for line in out[4:7]] == ["sum of medians", "p50", "tail"]
    assert len(out) == 8
    report = json.loads(out[7])
    assert (report["workload"], report["rounds"], report["formulas"], report["left_out"], report["disagree"]) == (
        "fo2-batch", 1, 120, 0, 0)
    for side in ("A", "B"):
        assert set(report[side]) == {"sum_s", "p50_ms", "tail_ms"}
        assert 0 < report[side]["p50_ms"] <= report[side]["tail_ms"]
    for key, ratio in report["ratio"].items():
        assert ratio == report["B"][key] / report["A"][key]
        assert f"{ratio:.4f}" in out[4 + list(report["ratio"]).index(key)]
