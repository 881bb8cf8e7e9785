"""Sound static pre-analysis: classify shared variables before CIRC runs.

CIRC pays the full CEGAR price -- predicate discovery, ARG construction,
simulation checks -- for every variable it is pointed at, including ones
that trivially cannot race.  This package is the cheap sound pass in front
of it:

* :mod:`protect` -- monitor inference (tagged ``lock()`` mutexes and
  atomic test-and-set flags), must-held locks and the ``ATOMIC_LOCK``
  pseudo-lock of atomic sections;
* :mod:`mhp` -- the phase-1 facts record :class:`MhpReport` (reachable
  and atomic locations, held locks, monitors) and the
  may-happen-in-parallel relation over location pairs it implies;
* :mod:`classify` -- the per-variable verdict lattice
  ``{local, read-shared, protected, must-check}``;
* :mod:`prefilter` -- the driver that feeds only ``must-check`` variables
  into :func:`repro.circ.circ`.

The portfolio's two-phase racer and abstract interpreter read the same
:class:`MhpReport`; this package imports nothing from
:mod:`repro.baselines` or :mod:`repro.portfolio`.

Entry points: :func:`classify` for a whole-program report,
:func:`prefilter_check` (or ``check_race(..., prefilter=True)``) for one
variable, and ``repro-race static FILE`` on the command line.
"""

from .classify import StaticReport, VariableVerdict, Verdict, classify
from .mhp import MhpReport, mhp_analysis
from .prefilter import StaticSafe, prefilter_check
from .protect import (
    ATOMIC_LOCK,
    Monitor,
    held_locks,
    infer_monitors,
    reachable_locations,
)

__all__ = [
    "StaticReport",
    "VariableVerdict",
    "Verdict",
    "classify",
    "MhpReport",
    "mhp_analysis",
    "StaticSafe",
    "prefilter_check",
    "ATOMIC_LOCK",
    "Monitor",
    "held_locks",
    "infer_monitors",
    "reachable_locations",
]
