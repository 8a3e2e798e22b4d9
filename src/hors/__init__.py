"""Higher-order recursion schemes: evaluation policies and transformations.

This package exports the documented library surface, with the types and
errors it takes, returns or raises.  Everything else is imported from the
submodules: `hors.core`, `hors.scheme`, `hors.engine`, `hors.oi2io`,
`hors.typesys` and `hors.io2oi`.
"""

from .core import (
    ArityOrTypeMismatch,
    HorsError,
    IncompatibleLabels,
    InvalidPosition,
    PartialTree,
    Symbol,
    Term,
)
from .engine import (
    EvalBudget,
    NotARedex,
    PolicyViolation,
    derive,
    redexes,
    step,
    value_tree,
    value_tree_report,
)
from .io2oi import label_scheme, self_correct_report
from .oi2io import bar_scheme
from .scheme import (
    InvalidScheme,
    Scheme,
    SchemeParseError,
    parse,
    render,
    scheme_order,
    validate,
    with_start,
)
from .typesys import Analysis, AnalysisInfeasible, UnboundSymbol, judge, sem_apply

__version__ = "0.1.0"
