"""Validity decision over forcing trees.

The indirect procedure rejects the root, saturates, and searches the remaining
freedom: unmarked ground nodes get 0-then-1 option marks, and quantifier
obligations suppressed by the individual budget get realized with existing
individuals. Every failed option discharges into the certainty of its
opposite. If every completion double-marks, rejecting the root is absurd; a
quiescent consistent total marking is read back as a countermodel and checked
against the model semantics before it is reported. The search is one loop
over a list of open choice points, so the interpreter's stack does not bound
how deep its suppositions nest.

The search runs at individual budgets 1, 2, 4, ... and last at the full
budget, each level afresh on the same initial tree, so a countermodel comes
from the smallest level that has one (as MACE and Paradox try domain sizes in
increasing order). A closure is `Valid` at any level when it never leaned on
the level's budget (no capping hit). A capping closure is no verdict, and the
next level redoes the search; at the full budget it is `NoCountermodelUpTo`.
That verdict does not rule out a countermodel within the budget: each
quantifier node gets a fresh witness of its own and no two individuals
denote one element, so redundant witnesses can fill the budget before the
one a countermodel needs is tried. A verdict carries the state of the level
that gave it.

The direct procedure supposes one side of a conditional or disjunction root
and tries to force the other side's discharge mark without options. Both run
on f's one tree, which leaves out f's vacuous binders, and at one budget,
read from that tree's fragment; a failed direct attempt rolls the tree back
to its initial nodes, as a closed level does.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import FragmentError, FreeVariableError, ResourceLimitError, StateError
from .formulas import (
    Dyadic2Var,
    Formula,
    FragmentClass,
    Imp,
    Monadic,
    Or,
    Record,
    Term,
    classify_arities,
    classify_fragment,
)
from .marking import (
    Frame,
    MarkingState,
    TraceStep,
    # decide makes its states through this name, which perfbench/tracer.py
    # patches by attribute to keep the state of the last decision
    MarkingState as init_marking,
    capped_obligations,
    saturate,
)
from .models import Interpretation, evaluate, extract_model
from .rules import DISCHARGE, PERMISSION
from .tree import ForcingTree, build_initial_tree

DEFAULT_DYADIC_BOUND = 8
DEFAULT_DYADIC_ORACLE_BOUND = 2


class EngineConfig(Record):
    __match_args__ = __slots__ = ("max_individuals", "branch_limit", "allow_direct")

    def __init__(
        self, max_individuals: Optional[int] = None, branch_limit: int = 10000, allow_direct: bool = False
    ) -> None:
        if max_individuals is not None and max_individuals < 1:
            raise ValueError("max_individuals must be positive: models are nonempty")
        if branch_limit < 1:
            raise ValueError("branch_limit must be positive")
        self.max_individuals = max_individuals
        self.branch_limit = branch_limit
        self.allow_direct = allow_direct


class Valid(Record):
    __match_args__ = __slots__ = ("trace", "state")

    def __init__(self, trace: list[TraceStep], state: MarkingState) -> None:
        self.trace = trace
        self.state = state


class Invalid(Record):
    __match_args__ = __slots__ = ("model", "state")

    def __init__(self, model: Interpretation, state: MarkingState) -> None:
        self.model = model
        self.state = state


class NoCountermodelUpTo(Record):
    __match_args__ = __slots__ = ("bound", "state")

    def __init__(self, bound: int, state: MarkingState) -> None:
        self.bound = bound
        self.state = state


Verdict = Valid | Invalid | NoCountermodelUpTo


def fragment_bounds(fragment: FragmentClass) -> Optional[tuple[int, int]]:
    """Default (search individuals, oracle domain size) of a fragment; None
    outside the monadic and dyadic two-variable fragments.

    Monadic formulas with n predicates need at most 2**n individuals for a
    countermodel, so that is the oracle's exact bound; for the search it is
    a working cap, since witnesses can fill it redundantly (module
    docstring). The dyadic two-variable defaults are working caps for both.
    """
    if isinstance(fragment, Monadic):
        bound = 2 ** fragment.n
        return bound, bound
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


def _suppose_instance(s: MarkingState, qnid: int, untried: Iterator[Term]) -> Optional[Frame]:
    """Suppose that the next untried individual realizes the budget-capped
    obligation qnid, instantiating it where needed; None when none is left."""
    want = s.marked(qnid)
    rule = PERMISSION[s.tree.nodes[qnid].kind]
    for term in untried:
        # capped_obligations left out quantifiers with an instance marked
        # want, so a marked instance here carries the opposite value
        terms = s.tree.instance_terms(qnid)
        if term in terms:
            child = s.tree.instance_children(qnid)[terms.index(term)]
            if s.marked(child) is not None:
                continue
        else:
            child = s.instantiate(qnid, term, rule)
        return s.open_supposition(child, want)
    return None


def _search(s: MarkingState, budget: int, branch_limit: int) -> tuple[bool, bool]:
    """Exhaust s's freedom: (closed, capping_hit). Closed means every
    completion double-marked; otherwise an open total marking stands in s.

    The depth-first case split is one loop over the open choice points,
    innermost last: a node supposed 0, or a capped obligation with its
    untried individuals. When a pass closes, the points are discharged
    innermost first. A failed 0 leaves the opposite mark and the loop goes
    on without its point, a failed individual gives way to the next one,
    and a discharge that leaves a double mark closes the enclosing point.
    """
    points: list[tuple[Frame, Optional[tuple[int, Iterator[Term]]]]] = []
    branches = 0
    capping_hit = False
    while True:
        branches += 1
        if branches > branch_limit:
            raise ResourceLimitError(f"branch limit {branch_limit} exceeded")
        if saturate(s, budget) is None:
            pending = capped_obligations(s, budget)
            capping_hit = capping_hit or bool(pending)
            unmarked = s.unmarked_relevant_ground()
            if not pending and not unmarked:
                return False, capping_hit
            target = min(pending + unmarked)
            if target not in pending:
                points.append((s.open_supposition(target, 0), None))
                continue
            untried = iter(list(s.domain_registry))
            frame = _suppose_instance(s, target, untried)
            if frame is not None:
                points.append((frame, (target, untried)))
                continue
        # the pass closed: by a double mark, or with no individual to try
        while points:
            frame, obligation = points.pop()
            s.discharge(frame, "contradiction" if s.dm is not None else "exhausted")
            if s.dm is not None:
                continue
            if obligation is None:
                break
            frame = _suppose_instance(s, *obligation)
            if frame is not None:
                points.append((frame, obligation))
                break
        else:
            return True, capping_hit


def _levels(budget: int) -> list[int]:
    """Individual budgets the search tries in turn: 1, 2, 4, ... below
    budget, then budget itself."""
    levels = [1]
    while levels[-1] < budget:
        levels.append(min(2 * levels[-1], budget))
    return levels


def initial_tree(f: Formula, cfg: EngineConfig) -> tuple[ForcingTree, int]:
    """f's initial tree (`build_initial_tree`), without f's vacuous binders,
    and the individual budget read from that tree's fragment: the tree build
    gathered the arities and the width, so f is not walked again. An open or
    ill-typed f has no tree: the fragment checks speak first (an arity
    clash, then FragmentError when no bound applies), and only then the
    build's own error."""
    try:
        tree = build_initial_tree(f)
    except FreeVariableError:
        domain_bound(classify_fragment(f), cfg)
        raise
    return tree, domain_bound(classify_arities(tree.arities, tree.width), cfg)


def decide(f: Formula, cfg: Optional[EngineConfig] = None) -> Verdict:
    """Decide A-validity of closed formula f.

    Both procedures run on the tree `initial_tree(f, cfg)` builds, the tree
    of f without its vacuous binders (each marked for a witness would
    add an individual, and every universal an instance for it), at the
    budget read from it; a verdict's state numbers that tree's nodes. Direct
    forcing (`allow_direct`) goes first, and a failed attempt leaves the
    tree as built. The search runs at individual budget 1, 2, 4, ... and
    then at the full budget (`_levels`), each level with a fresh marking and
    the full `branch_limit`, and stops at the first level with a verdict:

    - Invalid, at any level: a countermodel extracted from the open marking
      and verified against f under the model semantics, so the smallest
      level that has one gives it;
    - Valid, at any level, when the closure had no capping hit;
    - NoCountermodelUpTo(budget), at the full budget only: every
      completion closed, but some closure leaned on the individual budget,
      so a countermodel within it may still exist.

    Any other closure with a capping hit below the full budget is no
    verdict, and the next level redoes it. The levels share one tree, which
    each closed level's discharge rolls back to its initial nodes. The
    verdict carries the state, and so the trace, of the level that gave it.
    """
    cfg = cfg or EngineConfig()
    tree, budget = initial_tree(f, cfg)
    if cfg.allow_direct and tree.nodes[tree.root].kind in ("imp", "or"):
        direct = _direct(tree, budget)
        if direct is not None:
            return direct
    for level in _levels(budget):
        s = init_marking(tree)
        frame = s.open_supposition(tree.root, 0, kind="RR")
        closed, capping_hit = _search(s, level, cfg.branch_limit)
        if not closed:
            s.commit_frames()
            model = extract_model(s)
            if evaluate(model, f, {}) != 0:
                raise StateError("internal check failed: extracted model does not refute the formula")
            return Invalid(model, s)
        s.discharge(frame, "contradiction" if s.dm is not None else "exhausted")
        if not capping_hit:
            return Valid(list(s.trace), s)
    return NoCountermodelUpTo(budget, s)


def _permission_pass(s: MarkingState) -> bool:
    """Materialize every missing registry instance of unmarked ground
    quantifiers so saturation can reach marks inside them."""
    changed = False
    for nid in s.classify_quantifiers()[2]:
        for term in s.missing_terms(nid):
            s.instantiate(nid, term, PERMISSION[s.tree.nodes[nid].kind])
            changed = True
    return changed


def _direct(tree: ForcingTree, budget: int) -> Optional[Valid]:
    """Direct forcing of tree's conditional or disjunction root, one
    `DISCHARGE` strategy at a time, each with a fresh marking: suppose one
    side, saturate (no options), and discharge when the other side's mark is
    forced. A failed attempt rolls back to its frame's checkpoint, so the
    tree keeps only its initial nodes. None when no strategy reaches its
    goal."""
    root = tree.nodes[tree.root]
    for connective, sup_kind, sup_idx, goal_val in DISCHARGE:
        if connective != root.kind:
            continue
        s = init_marking(tree)
        s.introduce_generic()
        sup, goal = root.children[sup_idx], root.children[1 - sup_idx]
        frame = s.open_supposition(sup, 1 if sup_kind == "OA" else 0)
        while saturate(s, budget) is None:
            if s.marked(goal) == goal_val:
                s.discharge(frame, (goal, goal_val))
                return Valid(list(s.trace), s)
            if not _permission_pass(s):
                break
        s.rollback(frame.checkpoint)
    return None


def direct_force(f: Formula, cfg: Optional[EngineConfig] = None) -> Optional[Valid]:
    """Try to accept a conditional or disjunction root directly, on f's
    initial tree at the budget read from it (`_direct`): the tree and the
    budget of `decide`'s direct attempt, so both give one trace. Returns
    None when no supposition strategy reaches its goal."""
    if not isinstance(f, (Imp, Or)):
        raise ValueError("direct forcing applies to conditional or disjunction roots only")
    return _direct(*initial_tree(f, cfg or EngineConfig()))
