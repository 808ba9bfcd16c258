"""Validity decision over forcing trees.

The indirect procedure rejects the root, saturates, and searches the remaining
freedom: unmarked ground nodes get 0-then-1 option marks, and quantifier
obligations suppressed by the individual budget get realized with existing
individuals. Every failed option discharges into the certainty of its
opposite. If every completion double-marks, rejecting the root is absurd; a
quiescent consistent total marking is read back as a countermodel and checked
against the model semantics before it is reported.

The direct procedure supposes one side of a conditional or disjunction root
and tries to force the other side's discharge mark without options.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import FragmentError, ResourceLimitError, StateError
from .formulas import (
    KIND_OF,
    Dyadic2Var,
    Formula,
    FragmentClass,
    Imp,
    Monadic,
    Or,
    classify_fragment,
)
from .marking import (
    DoubleMark,
    MarkingState,
    TraceStep,
    capped_obligations,
    init_marking,
    missing_instances,
    saturate,
)
from .models import Interpretation, evaluate, extract_model
from .rules import DISCHARGE, PERMISSION
from .tree import build_initial_tree

DEFAULT_DYADIC_BOUND = 8
DEFAULT_DYADIC_ORACLE_BOUND = 2


@dataclass
class EngineConfig:
    max_individuals: Optional[int] = None
    branch_limit: int = 10000
    allow_direct: bool = False

    def __post_init__(self) -> None:
        if self.max_individuals is not None and self.max_individuals < 1:
            raise ValueError("max_individuals must be positive: models are nonempty")
        if self.branch_limit < 1:
            raise ValueError("branch_limit must be positive")


@dataclass
class Valid:
    trace: list[TraceStep]
    state: MarkingState


@dataclass
class Invalid:
    model: Interpretation
    state: MarkingState


@dataclass
class NoCountermodelUpTo:
    bound: int
    state: MarkingState


Verdict = Valid | Invalid | NoCountermodelUpTo


def fragment_bounds(fragment: FragmentClass) -> Optional[tuple[int, int]]:
    """Default (search individuals, oracle domain size) of a fragment; None
    outside the monadic and dyadic two-variable fragments.

    Monadic formulas with n predicates need at most 2**n individuals for a
    countermodel, so that default makes closure conclusive. The dyadic
    two-variable defaults are working caps, not guarantees.
    """
    if isinstance(fragment, Monadic):
        conclusive = 2 ** fragment.n
        return conclusive, conclusive
    if isinstance(fragment, Dyadic2Var):
        return DEFAULT_DYADIC_BOUND, DEFAULT_DYADIC_ORACLE_BOUND
    return None


def domain_bound(fragment: FragmentClass, cfg: Optional[EngineConfig] = None) -> int:
    """Individuals the search may generate: configured, or the fragment default."""
    configured = cfg.max_individuals if cfg is not None else None
    if configured is not None:
        return configured
    bounds = fragment_bounds(fragment)
    if bounds is None:
        raise FragmentError(
            "outside the monadic and dyadic two-variable fragments an explicit "
            "max_individuals bound is required"
        )
    return bounds[0]


class _Search:
    def __init__(self, s: MarkingState, budget: int, branch_limit: int):
        self.s = s
        self.budget = budget
        self.branch_limit = branch_limit
        self.branches = 0
        self.capping_hit = False

    def _bump(self) -> None:
        self.branches += 1
        if self.branches > self.branch_limit:
            raise ResourceLimitError(f"branch limit {self.branch_limit} exceeded")

    def explore(self) -> bool:
        """Exhaust the current state's freedom. True means every completion
        double-marked; False means an open total marking stands in s."""
        self._bump()
        s = self.s
        res = saturate(s, self.budget)
        if isinstance(res, DoubleMark):
            return True
        pending = capped_obligations(s, self.budget)
        if pending:
            self.capping_hit = True
        unmarked = s.unmarked_relevant_ground()
        if not pending and not unmarked:
            return False
        target = min(pending + unmarked)
        if target in pending:
            return self._try_instances(target)
        return self._try_values(target)

    def _close(self, frame) -> None:
        """Discharge a frame whose scope closed: by the double mark when one
        stands, by alternative exhaustion otherwise."""
        s = self.s
        s.discharge(frame, "contradiction" if s.dm is not None else "exhausted")

    def _try_values(self, n: int) -> bool:
        s = self.s
        frame = s.open_supposition(n, 0)
        if not self.explore():
            return False
        self._close(frame)
        if s.dm is not None:
            return True
        return self.explore()

    def _try_instances(self, qnid: int) -> bool:
        """Budget-capped quantifier obligation: some existing individual must
        realize it. Try each; failures become certainties of the opposite."""
        s = self.s
        want = s.marked(qnid)
        rule = PERMISSION[s.tree.nodes[qnid].kind]
        for term in list(s.domain_registry):
            # capped_obligations left out quantifiers with an instance marked
            # want, so a marked instance here carries the opposite value
            terms = s.tree.instance_terms(qnid)
            if term in terms:
                child = s.tree.instance_children(qnid)[terms.index(term)]
                if s.marked(child) is not None:
                    continue
            else:
                child = s.instantiate(qnid, term, rule)
            frame = s.open_supposition(child, want)
            if not self.explore():
                return False
            self._close(frame)
            if s.dm is not None:
                return True
        return True


def decide(f: Formula, cfg: Optional[EngineConfig] = None) -> Verdict:
    """Decide A-validity of closed formula f.

    Valid carries the closing trace. Invalid carries a countermodel extracted
    from the open marking and verified against the model semantics.
    NoCountermodelUpTo reports closure that leaned on the individual budget
    where closure is not conclusive for the fragment.
    """
    cfg = cfg or EngineConfig()
    fragment = classify_fragment(f)
    budget = domain_bound(fragment, cfg)
    if cfg.allow_direct and isinstance(f, (Imp, Or)):
        direct = direct_force(f, cfg)
        if direct is not None:
            return direct
    tree = build_initial_tree(f)
    s = init_marking(tree)
    search = _Search(s, budget, cfg.branch_limit)
    frame = s.open_supposition(tree.root, 0, kind="RR")
    try:
        closed = search.explore()
    except RecursionError:
        # each nested supposition costs a few interpreter frames
        raise ResourceLimitError("search nesting exceeds the interpreter's recursion limit") from None
    if not closed:
        s.commit_frames()
        model = extract_model(s)
        if evaluate(model, f, {}) != 0:
            raise StateError("internal check failed: extracted model does not refute the formula")
        return Invalid(model, s)
    search._close(frame)
    genuine = not search.capping_hit or (
        isinstance(fragment, Monadic) and budget >= fragment_bounds(fragment)[0]
    )
    if genuine:
        return Valid(list(s.trace), s)
    return NoCountermodelUpTo(budget, s)


def _permission_pass(s: MarkingState) -> bool:
    """Materialize every missing registry instance of unmarked ground
    quantifiers so sweeps can reach marks inside them."""
    changed = False
    for nid, missing in missing_instances(s):
        for term in missing:
            s.instantiate(nid, term, PERMISSION[s.tree.nodes[nid].kind])
            changed = True
    return changed


def direct_force(f: Formula, cfg: Optional[EngineConfig] = None) -> Optional[Valid]:
    """Try to accept a conditional or disjunction root directly: suppose one
    side, saturate (no options), and discharge when the other side's mark is
    forced. Returns None when no supposition strategy reaches its goal."""
    if not isinstance(f, (Imp, Or)):
        raise ValueError("direct forcing applies to conditional or disjunction roots only")
    cfg = cfg or EngineConfig()
    budget = domain_bound(classify_fragment(f), cfg)
    for connective, sup_kind, sup_idx, goal_val in DISCHARGE:
        if connective != KIND_OF[type(f)]:
            continue
        tree = build_initial_tree(f)
        s = init_marking(tree)
        s.introduce_generic()
        root = tree.nodes[tree.root]
        sup, goal = root.children[sup_idx], root.children[1 - sup_idx]
        frame = s.open_supposition(sup, 1 if sup_kind == "OA" else 0)
        while not isinstance(saturate(s, budget), DoubleMark):
            if s.marked(goal) == goal_val:
                s.discharge(frame, (goal, goal_val))
                return Valid(list(s.trace), s)
            if not _permission_pass(s):
                break
    return None
