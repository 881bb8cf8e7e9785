"""The portfolio driver: cheap baselines short-cut CIRC with cancellation.

One query, several analyses of complementary strength (see the package
docstring), one verdict.  The analyses run one after another in the
win-rate book's order, and the driver enforces three contracts:

* **Cancellation** -- the first *confident* verdict (a safety proof or
  a replayed race witness) cancels every analysis after it: those are
  recorded ``cancelled`` and never run, so a baseline win skips CIRC.
* **Reconciliation** -- confident verdicts may only agree.  Two
  confident analyses disagreeing, or a race verdict whose witness fails
  interpreter replay, raises :class:`PortfolioConflict`: one of the
  analyses is unsound, and serving either answer would be a lie.  An
  ``unknown`` never conflicts with anything -- abstention is not a
  claim.
* **Win-rate learning** -- every outcome is recorded in the
  :class:`~repro.portfolio.winrate.WinRateBook` per workload shape and
  emitted to the JSONL telemetry, and the book's learned order decides
  which analysis runs first next time.  The driver only records; the
  caller that created the book saves it.

Why cancellation preserves the CIRC-only verdict: a baseline is only
allowed to cancel CIRC on a *confident* verdict, confident safety claims
are sound for unboundedly many threads (racer phase-1 kill rules,
interval/lock refutation), and confident race claims carry a witness the
explicit-state interpreter replayed.  Either way the verdict CIRC would
have computed is the same one the baseline already proved -- see
docs/ALGORITHM.md section 12 for the full argument.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Optional

from ..acfa.acfa import empty_acfa
from ..cfa.cfa import CFA, Edge
from ..circ.circ import circ
from ..circ.result import (
    CircResult,
    CircSafe,
    CircStats,
    CircUnknown,
    CircUnsafe,
)
from ..engine.cache import ArtifactCache
from ..engine.events import EventLog
from ..exec.interp import MultiProgram, replay
from ..static.mhp import mhp_analysis
from .absint import absint_check
from .racer import racer_check
from .winrate import DEFAULT_ORDER, WinRateBook, shape_class

__all__ = [
    "AnalysisOutcome",
    "PortfolioConflict",
    "PortfolioReport",
    "run_portfolio",
]

#: Verdicts strong enough to cancel the rest of the portfolio.
_CONFIDENT = ("safe", "race")


class PortfolioConflict(RuntimeError):
    """Two confident analyses disagreed (or a witness failed replay).

    This is a *hard error*, never a verdict: it means one of the
    portfolio's analyses is unsound on this input, and the only honest
    response is to refuse to answer and surface the evidence.
    """

    def __init__(self, variable: str, detail: str, outcomes=()):
        super().__init__(
            f"portfolio verdict conflict on {variable!r}: {detail}"
        )
        self.variable = variable
        self.detail = detail
        self.outcomes = tuple(outcomes)


@dataclass
class AnalysisOutcome:
    """One analysis's contribution to a portfolio run."""

    analysis: str  # 'racer' | 'absint' | 'circ'
    verdict: str  # 'safe' | 'race' | 'unknown' | 'cancelled'
    time_ms: float
    detail: str = ""
    n_threads: int = 0
    witness: tuple[tuple[int, Edge], ...] = ()
    cancelled: bool = False
    #: The raw verifier result, populated only for the ``circ`` analysis
    #: (so ``to_circ_result`` can pass it through untouched).
    result: Optional[CircResult] = None

    @property
    def confident(self) -> bool:
        return not self.cancelled and self.verdict in _CONFIDENT


@dataclass
class PortfolioReport:
    """The reconciled outcome of one portfolio run."""

    variable: str
    verdict: str  # 'safe' | 'race' | 'unknown'
    winner: str  # analysis name, or '' when nothing was confident
    shape: str
    outcomes: list[AnalysisOutcome] = field(default_factory=list)
    total_ms: float = 0.0

    @property
    def cancelled(self) -> tuple[str, ...]:
        return tuple(
            o.analysis for o in self.outcomes if o.cancelled
        )

    @property
    def witness(self) -> tuple[tuple[int, Edge], ...]:
        for o in self.outcomes:
            if o.analysis == self.winner and o.verdict == "race":
                return o.witness
        return ()

    @property
    def n_threads(self) -> int:
        for o in self.outcomes:
            if o.analysis == self.winner and o.verdict == "race":
                return o.n_threads
        return 0

    def outcome(self, analysis: str) -> Optional[AnalysisOutcome]:
        for o in self.outcomes:
            if o.analysis == analysis:
                return o
        return None

    def to_circ_result(self) -> CircResult:
        """The portfolio verdict in the engine's result vocabulary.

        Baseline proofs become an (honest) empty-context ``CircSafe``,
        witnesses a ``CircUnsafe`` carrying the replayed interleaving;
        when CIRC itself won, its own result passes through untouched.
        """
        win = self.outcome(self.winner) if self.winner else None
        if win is not None and win.analysis == "circ" and win.result is not None:
            return win.result
        stats = CircStats(elapsed_seconds=self.total_ms / 1000.0)
        if self.verdict == "safe":
            return CircSafe(
                variable=self.variable,
                predicates=(),
                context=empty_acfa(),
                stats=stats,
            )
        if self.verdict == "race":
            return CircUnsafe(
                variable=self.variable,
                steps=list(self.witness),
                n_threads=self.n_threads,
                predicates=(),
                stats=stats,
            )
        detail = "; ".join(
            f"{o.analysis}: {o.detail or o.verdict}" for o in self.outcomes
        )
        return CircUnknown(
            variable=self.variable,
            reason=f"no analysis was confident ({detail})",
            predicates=(),
            stats=stats,
        )


def _validate_witness(
    cfa: CFA, variable: str, outcome: AnalysisOutcome
) -> None:
    """Replay a race verdict's witness; a failure is a hard conflict.

    An *empty* trace is a legitimate witness (the initial state can
    already be a race state); :func:`repro.exec.interp.replay` still
    validates it, because the race-state check applies to the final --
    here initial -- state.
    """
    if outcome.verdict != "race":
        return
    program = MultiProgram.symmetric(cfa, max(2, outcome.n_threads))
    ok, _ = replay(program, list(outcome.witness), race_on=variable)
    if not ok:
        raise PortfolioConflict(
            variable,
            f"{outcome.analysis} witness does not replay in the interpreter",
            [outcome],
        )


def _reconcile(
    variable: str, outcomes: list[AnalysisOutcome]
) -> tuple[str, str]:
    """Derive (verdict, winner); raise on any confident disagreement."""
    confident = [o for o in outcomes if o.confident]
    verdicts = {o.verdict for o in confident}
    if len(verdicts) > 1:
        detail = ", ".join(
            f"{o.analysis}={o.verdict}" for o in confident
        )
        raise PortfolioConflict(variable, detail, outcomes)
    if confident:
        return confident[0].verdict, confident[0].analysis
    return "unknown", ""


def _circ_outcome(result: CircResult, time_ms: float) -> AnalysisOutcome:
    if result.unknown:
        return AnalysisOutcome(
            analysis="circ",
            verdict="unknown",
            time_ms=time_ms,
            detail=result.reason,
        )
    if result.safe:
        out = AnalysisOutcome(
            analysis="circ",
            verdict="safe",
            time_ms=time_ms,
            detail=f"{len(result.predicates)} predicates",
        )
    else:
        out = AnalysisOutcome(
            analysis="circ",
            verdict="race",
            time_ms=time_ms,
            detail=f"witness with {result.n_threads} threads",
            n_threads=result.n_threads,
            witness=tuple(result.steps),
        )
    out.result = result
    return out


def run_portfolio(
    cfa: CFA,
    variable: str,
    cancel: bool = True,
    cache: ArtifactCache | None = None,
    events: EventLog | None = None,
    winrates: WinRateBook | None = None,
    **circ_options,
) -> PortfolioReport:
    """Run the portfolio's analyses on one (template, variable) query.

    The analyses run one after another, in the win-rate book's order for
    the query's shape (:data:`~repro.portfolio.winrate.DEFAULT_ORDER`
    without a book).  With ``cancel`` (the default), every analysis after
    the first confident verdict is recorded ``cancelled`` and not run;
    ``cancel=False`` runs every analysis to completion (the
    reconciliation test uses this to force maximal disagreement
    surface).  Every analysis that ran is recorded in ``winrates``;
    saving the book is its creator's job.  Keyword options are
    forwarded to :func:`repro.circ.circ`.
    """
    cfa.require_global(variable)
    events = events or EventLog()
    start = time.perf_counter()
    shape = shape_class(cfa, variable)
    order = winrates.order(shape) if winrates is not None else DEFAULT_ORDER
    events.emit(
        "portfolio_started", variable=variable, shape=shape, order=list(order)
    )
    outcomes: list[AnalysisOutcome] = []
    # The phase-1 facts both baselines read, built by the first to run.
    facts = functools.cache(functools.partial(mhp_analysis, cfa))
    decided = False
    for name in order:
        if decided and cancel:
            outcomes.append(
                AnalysisOutcome(
                    analysis=name,
                    verdict="cancelled",
                    time_ms=0.0,
                    detail="cancelled by a confident verdict",
                    cancelled=True,
                )
            )
            events.emit(
                "portfolio_cancelled", variable=variable, analysis=name
            )
            continue
        events.emit(
            "portfolio_analysis_started", variable=variable, analysis=name
        )
        started = time.perf_counter()
        if name == "circ":
            result = circ(cfa, race_on=variable, **circ_options)
            outcome = _circ_outcome(
                result, (time.perf_counter() - started) * 1000.0
            )
        elif name == "racer":
            r = racer_check(cfa, variable, facts=facts())
            outcome = AnalysisOutcome(
                analysis="racer",
                verdict=r.verdict,
                time_ms=(time.perf_counter() - started) * 1000.0,
                detail=r.reason,
                n_threads=r.n_threads,
                witness=r.witness,
            )
        else:  # absint
            a = absint_check(
                cfa, variable, cache=cache, events=events, facts=facts()
            )
            outcome = AnalysisOutcome(
                analysis="absint",
                verdict=a.verdict,
                time_ms=(time.perf_counter() - started) * 1000.0,
                detail=a.reason + (" [cached]" if a.cached else ""),
            )
        outcomes.append(outcome)
        events.emit(
            "portfolio_analysis_finished",
            variable=variable,
            analysis=name,
            verdict=outcome.verdict,
            ms=round(outcome.time_ms, 3),
        )
        if outcome.confident:
            decided = True

    for outcome in outcomes:
        if outcome.confident:
            _validate_witness(cfa, variable, outcome)
    verdict, winner = _reconcile(variable, outcomes)
    total_ms = (time.perf_counter() - start) * 1000.0
    report = PortfolioReport(
        variable=variable,
        verdict=verdict,
        winner=winner,
        shape=shape,
        outcomes=outcomes,
        total_ms=total_ms,
    )
    if winrates is not None:
        for o in outcomes:
            if not o.cancelled:
                winrates.record(
                    shape, o.analysis, o.analysis == winner, o.time_ms
                )
        events.emit(
            "portfolio_winrates",
            shape=shape,
            book=winrates.to_obj()["shapes"].get(shape, {}),
        )
    events.emit(
        "portfolio_verdict",
        variable=variable,
        verdict=verdict,
        winner=winner,
        cancelled=list(report.cancelled),
        total_ms=round(total_ms, 3),
    )
    return report
