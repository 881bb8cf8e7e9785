"""Incremental abstract reachability: ARG data layer, the persistent
cross-iteration store, and the exploration loop itself.

Import surface::

    from repro.reach import reach_and_build, ArgStore
"""

from .arg import (
    AbstractRaceFound,
    ArgBuilder,
    ReachBudgetExceeded,
    ReachResult,
    ThreadState,
)
from .explore import reach_and_build
from .store import ArgStore, acfa_signature

__all__ = [
    "AbstractRaceFound",
    "ReachBudgetExceeded",
    "ReachResult",
    "ArgBuilder",
    "ThreadState",
    "reach_and_build",
    "ArgStore",
    "acfa_signature",
]
