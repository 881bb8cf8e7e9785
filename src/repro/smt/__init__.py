"""SMT substrate: terms, CDCL SAT, linear integer arithmetic, interpolation.

This package replaces the Simplify/Vampyre provers used by BLAST in the
original paper.  All queries issued by the CIRC verifier live inside
quantifier-free linear integer arithmetic, for which this solver is sound
and complete.
"""

from .linear import LinEq, LinExpr, LinLe, NonLinearError, linearize, normalize_atom
from .profile import PROFILER, stage
from .qcache import LruCache, QueryCache, SAT_CACHE
from .session import Session, default_session, reset_default_session
from .solver import (
    SmtResult,
    clear_conjunction_cache,
    entails,
    equivalent,
    get_model,
    is_sat,
    is_sat_conjunction,
    is_valid,
)
from .interpolate import binary_interpolant, sequence_interpolants
from .terms import (
    And,
    BoolConst,
    Cmp,
    FALSE,
    Iff,
    Implies,
    IntConst,
    Neg,
    Not,
    Or,
    TRUE,
    Term,
    Var,
    add,
    and_,
    atoms,
    eq,
    evaluate,
    free_vars,
    ge,
    gt,
    iff,
    implies,
    le,
    lt,
    mul,
    ne,
    neg,
    not_,
    num,
    or_,
    pretty,
    rename,
    sub,
    substitute,
    var,
)
