"""Behaviour dump: what every decision shows, one digest per formula.

For each formula of the three benchmark workloads (at one seed) and of the
bundled corpus, the record holds:

- the verdict class, or the exception `parse_formula` or `decide` raised;
- every trace step with its absorbed flag;
- the countermodel as `cli.model_json` prints it, or the
  `NoCountermodelUpTo` bound;
- the final node count of the decision's tree;
- for conditional and disjunction roots, the `direct_force` trace.

Each call runs under a 10 s alarm, so a runaway search shows as
`alarm` instead of stalling the dump. One line per formula gives its source,
its index, a 12-digit digest of its record, its verdict class (or the
exception) and the start of its text; the last line is the sha256 over every
full record. A diff of two dumps names the formulas whose behaviour changed.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 tools/behaviour_dump.py > dump.txt

The seed (424242) and the alarm are fixed, so any two dumps compare line by
line. The workloads come from `perfbench/workloads.py`, imported by path;
nothing under `perfbench/` is changed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import signal
import sys
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 424242
ALARM_S = 10.0


class Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise Alarm()


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def under_alarm(fn, *args):
    """fn(*args), or ("raise", name) when it raises or outlasts the alarm."""
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        return fn(*args)
    except Alarm:
        return ("raise", "alarm")
    except Exception as exc:
        return ("raise", type(exc).__name__)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def behaviour(sf, text: str) -> list:
    from semforce.cli import model_json

    f = under_alarm(sf.parse_formula, text)
    if isinstance(f, tuple):
        return [("raise", "parse", f[1])]

    def decided():
        v = sf.decide(f)
        shown = model_json(v.model) if isinstance(v, sf.Invalid) else getattr(v, "bound", None)
        return [
            type(v).__name__,
            [(t.step, t.node, t.value, t.rule, t.premises, t.absorbed) for t in v.state.trace],
            shown,
            len(v.state.tree.nodes),
        ]

    out = [under_alarm(decided)]
    if isinstance(f, (sf.Imp, sf.Or)):

        def direct():
            d = sf.direct_force(f)
            return None if d is None else [(t.step, t.node, t.value, t.rule, t.premises) for t in d.trace]

        out.append(under_alarm(direct))
    return out


def sources(sf) -> list[tuple[str, list[str]]]:
    from semforce.cli import _parse_corpus

    wl = load_workloads()
    fm, gen = sys.modules["semforce.formulas"], sys.modules["semforce.gen"]
    out = [(name, [item.text for item in wl.generate(name, SEED, fm, gen)]) for name in wl.WORKLOADS]
    corpus = resources.files("semforce").joinpath("data/illustrations.corpus").read_text()
    out.append(("corpus", [text for text, _ in _parse_corpus(corpus)]))
    return out


def main() -> int:
    import semforce as sf
    import semforce.gen  # noqa: F401  (the workloads read semforce.gen)

    signal.signal(signal.SIGALRM, _on_alarm)
    total = hashlib.sha256()
    for name, texts in sources(sf):
        for k, text in enumerate(texts):
            got = behaviour(sf, text)
            record = repr(got).encode()
            total.update(record)
            digest = hashlib.sha256(record).hexdigest()[:12]
            outcome = ":".join(got[0]) if got[0][0] == "raise" else got[0][0]
            shown = text if len(text) <= 60 else text[:57] + "..."
            print(f"{name} {k} {digest} {outcome} {shown}", flush=True)
    print(f"total sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
