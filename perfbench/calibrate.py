"""Machine-speed calibration for the timed metrics.

On a shared machine the speed of one core swings by a quarter within seconds
and drifts further over minutes, with other tenants' load. A wall-clock
median of one run then spreads by 10–30 % from run to run, with the engine
unchanged. So the benchmark runs a fixed piece of reference work at most
every `SAMPLE_EVERY_S` between timed calls. Each timed call is scaled by
`REFERENCE_S` over the median of the five reference samples nearest to it.
A scaled time reads as the time the call would take on a core that does the
reference work in `REFERENCE_S`. The reference work never changes with the
engine, so an engine change moves the scaled times one for one.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 2.0e-3
SAMPLE_EVERY_S = 0.05
_WINDOW = 2  # samples on each side of a call's own


@dataclass(frozen=True)
class _Node:
    op: int
    kids: tuple


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(0, (i % 7,))
    return _Node(1 + i % 3, (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1)))


def reference_work() -> int:
    """Interpreter-bound work shaped like the engine's: frozen dataclasses
    built and hashed recursively, a dict cache and a list walk. It uses no
    strings, so string-hash randomization cannot change its speed."""
    memo: dict = {}
    out: list = []
    stack = [_tree(8, 1)]
    while stack:
        n = stack.pop()
        if n in memo:
            continue
        memo[n] = len(out)
        out.append(n.op)
        if n.op:
            stack.extend(n.kids)
    return len(out)


class Calibrator:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> int:
        """Sample the reference work when the last sample is older than
        SAMPLE_EVERY_S; returns the index of the latest sample."""
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            start = perf_counter()
            reference_work()
            self._last = perf_counter()
            self.samples.append(self._last - start)
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Factor that turns a time measured right after sample k into
        reference-speed time."""
        window = self.samples[max(0, k - _WINDOW):k + _WINDOW + 1]
        return REFERENCE_S / statistics.median(window)

    def reference_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
