"""Validity by semantic forcing: tableau-style 0/1 marking of syntax trees for
monadic and two-variable dyadic predicate logic, with countermodel extraction
and an exhaustive model-search oracle.

The names imported here are the package's interface. Each engine operation is
a method of the `MarkingState` or the `ForcingTree` it acts on."""

from .decide import (
    EngineConfig,
    Invalid,
    NoCountermodelUpTo,
    Valid,
    decide,
    direct_force,
    domain_bound,
)
from .errors import (
    FragmentError,
    FreeVariableError,
    ParseError,
    PremiseError,
    ResourceLimitError,
    SemforceError,
    StateError,
)
from .formulas import (
    And,
    Atom,
    Const,
    Dyadic2Var,
    Exists,
    Forall,
    Formula,
    Iff,
    Imp,
    Monadic,
    Not,
    Or,
    Outside,
    Var,
    alpha_normalize,
    classify_fragment,
    complexity,
    drop_vacuous,
    format_formula,
    parse_formula,
)
from .marking import DoubleMark, MarkingState, TraceStep, saturate
from .models import (
    Interpretation,
    Refuted,
    Signature,
    ValidUpTo,
    enumerate_interpretations,
    evaluate,
    extract_model,
    marks_from_model,
    oracle_validity,
    signature_of,
)
from .render import render_ascii, render_dot, render_trace
from .rules import RuleSpec, verify_derived_rule
from .tree import ForcingTree, build_initial_tree

__version__ = "0.1.0"
