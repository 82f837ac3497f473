"""Term language + bounded solver (the repository's Z3 substitute).

See ``src/repro/smt/README.md`` for the solver architecture: hash-consed
terms (interning), memoized simplification, a CDCL DPLL(T) core with a
theory propagator stack (congruence closure for equality atoms,
an incremental difference-logic constraint graph for integer order
atoms), compiled bounded enumeration, incremental solver sessions, and
a cross-call in-memory validity cache.
The seed's unoptimized algorithms are retained in
:mod:`repro.smt.reference` as a correctness oracle and benchmark
baseline.
"""

from .arith import (
    DifferenceLogicPropagator,
    PropagatorStack,
    is_difference_atom,
    is_order_atom,
    mixed_consistent,
    normalize_order_atom,
)
from .cache import (
    ValidityCache,
    get_default,
    set_default,
    using_cache,
)
from .cnf import AtomTable, TseitinConverter, cnf_of, is_atom, to_nnf, tseitin
from .compile import compile_term
from .dpll import WatchedSolver
from .intern import clear_all_caches
from .intern import stats as intern_stats
from .euf import (
    CongruenceClosure,
    EqualityPropagator,
    congruence_closure_consistent,
    is_equality_atom,
)
from .session import SolverSession, in_euf_fragment, in_mixed_fragment
from .simplify import is_literally_true, simplify
from .solver import Result, Verdict, check_validity, find_model
from .sorts import (
    BOOL,
    INT,
    BoolSort,
    IntSort,
    MapSort,
    MultisetSort,
    PairSort,
    Scope,
    SeqSort,
    SetSort,
    Sort,
)
from .terms import (
    App,
    Const,
    SymVar,
    Term,
    conj,
    disj,
    eq,
    evaluate_term,
    free_symvars,
    from_expr,
    implies,
    int_constants,
    negate,
    substitute,
)

__all__ = [
    "App",
    "AtomTable",
    "CongruenceClosure",
    "DifferenceLogicPropagator",
    "EqualityPropagator",
    "PropagatorStack",
    "SolverSession",
    "TseitinConverter",
    "ValidityCache",
    "WatchedSolver",
    "clear_all_caches",
    "compile_term",
    "intern_stats",
    "BOOL",
    "BoolSort",
    "Const",
    "INT",
    "IntSort",
    "MapSort",
    "MultisetSort",
    "PairSort",
    "Result",
    "Scope",
    "SeqSort",
    "SetSort",
    "Sort",
    "SymVar",
    "Term",
    "Verdict",
    "check_validity",
    "cnf_of",
    "congruence_closure_consistent",
    "conj",
    "disj",
    "eq",
    "evaluate_term",
    "find_model",
    "free_symvars",
    "from_expr",
    "implies",
    "in_euf_fragment",
    "in_mixed_fragment",
    "int_constants",
    "is_atom",
    "is_difference_atom",
    "is_equality_atom",
    "is_order_atom",
    "mixed_consistent",
    "normalize_order_atom",
    "get_default",
    "set_default",
    "using_cache",
    "is_literally_true",
    "negate",
    "simplify",
    "substitute",
    "to_nnf",
    "tseitin",
]
