"""The README's library examples run as written."""

import contextlib
import io
import re
from pathlib import Path

from semforce import DoubleMark

README = Path(__file__).resolve().parent.parent / "README.md"


def _run_python_blocks():
    """Each ```python block of the README, executed in a fresh namespace:
    (its namespace, what it printed)."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    out = []
    for k, block in enumerate(blocks):
        printed, namespace = io.StringIO(), {}
        with contextlib.redirect_stdout(printed):
            exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
        out.append((namespace, printed.getvalue()))
    return out


def test_the_readme_examples_run_and_show_what_they_say():
    # every block runs; the first two are checked against what they say
    decided, stepped = _run_python_blocks()[:2]
    # reference formula 6 is invalid, so the first block prints its countermodel
    assert decided[1].strip()
    # the second block's comments: the budget, the double mark, a valid discharge
    namespace, printed = stepped
    assert namespace["budget"] == 2 and namespace["dm"] == DoubleMark(4, 5)
    assert printed.splitlines()[-1].split(". ", 1)[1].startswith("RR-DM")
