"""Span tracing of semforce's layers from outside the package.

`Tracer.install` replaces public functions and methods with wrappers that
open a span around each call; `uninstall` puts the originals back. A span has
a name, a start, an end, its parent span and the formula (request) it served.
Self time is computed as spans close: a span's duration minus the time its
child spans covered. Recording keeps the spans in memory in flat arrays until
`write_spans` is called at the end of the run.

`semforce.decide` resolves to the function, not the module, and that module
binds `saturate`, `build_initial_tree`, `capped_obligations`,
`extract_model`, `evaluate` and `init_marking` by name, so they are patched
in `sys.modules["semforce.decide"]`.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# spans whose calls are counted by a result test as well
ANCHOR = "marking.anchor"
CAPPED = "marking.capped_obligations"


class Tracer:
    def __init__(self) -> None:
        self.recording = False
        self.request = -1
        # plain defaultdicts: Counter's __missing__ is Python code, which can
        # fail while a RecursionError unwinds
        self.calls: defaultdict = defaultdict(int)
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(int)
        self.last_state = None
        self._stack: list = []
        self._names: dict[str, int] = {}
        self._span_name = array("H")
        self._span_request = array("l")
        self._span_parent = array("l")
        self._span_start = array("d")
        self._span_end = array("d")
        self._patches: list = []

    # ------------------------------------------------------------- spans

    def enter(self, name: str) -> None:
        idx = -1
        if self.recording:
            idx = len(self._span_start)
            nid = self._names.setdefault(name, len(self._names))
            self._span_name.append(nid)
            self._span_request.append(self.request)
            self._span_parent.append(self._stack[-1][3] if self._stack else -1)
            self._span_end.append(0.0)
            start = perf_counter()
            self._span_start.append(start)
        else:
            start = perf_counter()
        self._stack.append([name, start, 0.0, idx])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, idx = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self._span_end[idx] = end

    def unwind(self, depth: int = 0) -> None:
        """Close spans left open when an exception skipped their exits (a
        RecursionError can fail inside a wrapper's own clean-up)."""
        while len(self._stack) > depth:
            self.exit()

    def reset_totals(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()

    def write_spans(self, path) -> int:
        """Write the recorded spans as gzipped tab-separated lines; returns
        the number written."""
        names = {v: k for k, v in self._names.items()}
        n = len(self._span_start)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\trequest\tparent\tname\tstart_s\tend_s\n")
            for i in range(n):
                out.write(
                    f"{i}\t{self._span_request[i]}\t{self._span_parent[i]}\t{names[self._span_name[i]]}\t"
                    f"{self._span_start[i]:.9f}\t{self._span_end[i]:.9f}\n"
                )
        return n

    # ---------------------------------------------------------- wrappers

    def _span(self, name: str, fn):
        tr = self

        def wrapper(*args, **kwargs):
            tr.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.exit()

        return wrapper

    def _span_hit(self, name: str, fn):
        """A span that also counts the calls returning a non-empty result."""
        tr = self
        hits = name + ".hits"

        def wrapper(*args, **kwargs):
            tr.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.exit()
            if out:
                tr.counts[hits] += 1
            return out

        return wrapper

    def _count(self, name: str, fn):
        tr = self

        def wrapper(*args, **kwargs):
            tr.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _keep_state(self, fn):
        tr = self

        def wrapper(*args, **kwargs):
            state = fn(*args, **kwargs)
            tr.last_state = state
            return state

        return wrapper

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        decide_mod = sys.modules["semforce.decide"]
        marking = sys.modules["semforce.marking"]
        models = sys.modules["semforce.models"]
        tree = sys.modules["semforce.tree"]
        state_cls = marking.MarkingState
        p = self._patch
        p(decide_mod, "saturate", self._span("marking.saturate", decide_mod.saturate))
        p(decide_mod, "build_initial_tree", self._span("tree.build", decide_mod.build_initial_tree))
        p(decide_mod, "capped_obligations", self._span_hit(CAPPED, decide_mod.capped_obligations))
        p(decide_mod, "extract_model", self._span("models.extract", decide_mod.extract_model))
        p(decide_mod, "evaluate", self._span("models.recheck", decide_mod.evaluate))
        p(decide_mod, "init_marking", self._keep_state(decide_mod.init_marking))
        p(state_cls, "forced_for_anchor", self._span_hit(ANCHOR, state_cls.forced_for_anchor))
        p(state_cls, "relevant", self._span("marking.relevant", state_cls.relevant))
        p(state_cls, "checkpoint", self._span("marking.checkpoint", state_cls.checkpoint))
        p(state_cls, "rollback", self._span("marking.rollback", state_cls.rollback))
        p(state_cls, "fresh_witness", self._count("marking.individuals", state_cls.fresh_witness))
        p(state_cls, "introduce_generic", self._count("marking.individuals", state_cls.introduce_generic))
        p(tree.ForcingTree, "instantiate", self._span("tree.instantiate", tree.ForcingTree.instantiate))
        alpha = self._span("formulas.alpha_normalize", marking.alpha_normalize)
        p(marking, "alpha_normalize", alpha)
        p(models, "alpha_normalize", alpha)
        # inside oracle_validity one evaluate call is one interpretation tried
        p(models, "evaluate", self._count("models.oracle_interpretations", models.evaluate))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
