"""Portfolio race analysis: fast witness-producing detectors ahead of CIRC.

Three analyses of complementary strength run against one query:

* :mod:`repro.portfolio.racer` -- a RacerF-style two-phase static
  detector: may-escape / must-lockset / MHP pruning over the phase-1
  facts of :class:`repro.static.mhp.MhpReport`, then a per-pair search
  on the interpreter's breadth-first search that emits either a
  replayable interleaving witness or a per-pair impossibility proof,
  never a bare warning;
* :mod:`repro.portfolio.absint` -- a digest-keyed abstract-interpretation
  pass (interval + lock domain) whose semantic reachability refutes
  conflicting pairs the graph-level MHP cannot, cached in the artifact
  store for warm reuse;
* CIRC itself -- the only analysis that can decide *every* instance.

The racer and absint read the same phase-1 facts, which
:mod:`repro.portfolio.driver` builds at most once per query.  The driver
runs the analyses one after another with cancellation (after a
confident verdict the rest do not run), reconciles verdicts (any
confident disagreement is a hard error), and feeds per-analysis win
rates back into the scheduling order through
:mod:`repro.portfolio.winrate`.
"""

from .absint import AbsintReport, absint_check
from .driver import (
    AnalysisOutcome,
    PortfolioConflict,
    PortfolioReport,
    run_portfolio,
)
from .racer import PairStatus, RacerReport, racer_check
from .winrate import WinRateBook, shape_class

__all__ = [
    "AbsintReport",
    "absint_check",
    "AnalysisOutcome",
    "PortfolioConflict",
    "PortfolioReport",
    "run_portfolio",
    "PairStatus",
    "RacerReport",
    "racer_check",
    "WinRateBook",
    "shape_class",
]
