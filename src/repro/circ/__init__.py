"""The CIRC race-checking algorithm: reachability, refinement, main loop."""

from .circ import CircError, circ
from .multi import MultiSafe, MultiUnsafe, circ_multi
from .omega import omega_check
from ..reach import (
    AbstractRaceFound,
    ArgBuilder,
    ReachBudgetExceeded,
    ReachResult,
    reach_and_build,
)
from .refine import (
    ConcretizedTrace,
    RealRace,
    Refinement,
    RefinementFailure,
    build_trace_formula,
    refine,
)
from .result import CircSafe, CircStats, CircUnknown, CircUnsafe, IterationRecord
