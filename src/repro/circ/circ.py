"""The CIRC inference algorithm (Algorithm 5) and the infinity-check
optimization (Section 5, called omega-CIRC here).

CIRC's outer loop owns the abstraction parameters -- the predicate set P and
the counter bound k.  Its inner loop performs the circular assume-guarantee
argument: starting from the empty (do-nothing) context, it alternates

* **assume** -- ReachAndBuild explores the main thread against the current
  context ACFA and produces an ARG;
* **guarantee** -- CheckSim tests whether the context simulates the ARG;
  on success the program is safe (Theorem 1), otherwise the ARG's weak
  bisimulation quotient becomes the next (weaker) context.

An abstract race aborts the inner loop into Refine, which either produces a
validated concrete counterexample or refines (P, k) and restarts.

omega-CIRC replaces the unbounded (OMEGA-counted) context of the assume step
with *exactly k* context threads, then discharges the unbounded case with
the per-location closure check ``omega_check``: every environment transition
enabled in the context-only reachability must preserve every ARG location's
region.  Failure of the check bumps k and reruns.  omega-CIRC is the
default (``variant="omega"``); ``variant="circ"`` runs plain CIRC.
"""

from __future__ import annotations

import time
from typing import Iterable, Literal, Optional

from ..acfa.acfa import Acfa, empty_acfa
from ..acfa.collapse import project_acfa
from ..acfa.simulate import simulates
from ..cfa.cfa import CFA
from ..context.state import AbstractProgram
from ..exec.interp import MultiProgram, replay
from ..predabs.region import PredicateSet
from ..reach import ArgStore
from ..smt import terms as T
from .omega import omega_check
from ..reach import (
    AbstractRaceFound,
    ReachBudgetExceeded,
    ReachResult,
    reach_and_build,
)
from .refine import MiningStrategy, RealRace, Refinement, RefinementFailure, refine
from .result import CircSafe, CircStats, CircUnknown, CircUnsafe, IterationRecord

__all__ = [
    "CircError",
    "circ",
    "omega_check",
]

Variant = Literal["circ", "omega"]


class CircError(RuntimeError):
    """Internal failure: CIRC broke one of its own invariants (a
    counterexample that fails concrete replay).  Giving up is not a
    failure -- :func:`circ` returns :class:`CircUnknown` for that."""


def circ(
    cfa: CFA,
    race_on: str | None = None,
    check_errors: bool = False,
    initial_predicates: Iterable[T.Term] = (),
    k: int = 1,
    variant: Variant = "omega",
    strategy: MiningStrategy = "wp-atoms",
    abstraction: str = "cartesian",
    max_outer: int = 40,
    max_inner: int = 40,
    max_states: int = 500_000,
    max_iterations: int | None = None,
    timeout_s: float | None = None,
    keep_history: bool = False,
    store: ArgStore | None = None,
) -> CircSafe | CircUnsafe | CircUnknown:
    """Check the symmetric multithreaded program ``cfa``^infinity for races
    on ``race_on`` (or assertion failures when ``check_errors``).

    Returns :class:`CircSafe`, :class:`CircUnsafe`, or -- the problem is
    undecidable in general, and Theorem 1 gives soundness only on
    termination -- :class:`CircUnknown` when CIRC gives up.  It gives up
    when ``max_outer`` or ``max_inner`` runs out, when one reachability
    pass exceeds ``max_states``, when ``max_iterations`` or ``timeout_s``
    runs out, or when a refinement stalls and the bounded concrete
    fallback finds no witness.  The :class:`CircUnknown` carries the
    reason, the predicates discovered so far, and the run's statistics.
    :class:`CircError` is raised only for an internal failure.

    ``variant="omega"`` (the default) runs omega-CIRC: exactly ``k``
    context threads, discharged by the infinity-check of Section 5.
    ``variant="circ"`` runs plain CIRC against an OMEGA-counted context.

    ``max_iterations`` caps the *total* number of inner iterations across
    all restarts and ``timeout_s`` caps wall-clock time.  Both default to
    ``None`` (no budget beyond ``max_outer``/``max_inner``/``max_states``).

    Every run keeps one :class:`~repro.reach.store.ArgStore` across inner
    iterations and refinement restarts, reusing abstract posts, omega
    checks, and collapse quotients whose inputs did not change.  Pass a
    ``store`` to share that reuse across several calls on the same
    program.  In the boolean domain a predicate refinement rebuilds the
    store's abstractor and drops its post memos
    (:meth:`~repro.reach.store.ArgStore.abstractor_for`).
    """
    if race_on is None and not check_errors:
        raise ValueError("nothing to check: give race_on or check_errors")
    if race_on is not None:
        cfa.require_global(race_on)
    if variant not in ("circ", "omega"):
        raise ValueError(f"unknown variant {variant!r} (expected circ or omega)")
    start_time = time.perf_counter()
    deadline = start_time + timeout_s if timeout_s is not None else None
    stats = CircStats(final_k=k)
    preds = PredicateSet(initial_predicates)
    omega_start = variant == "circ"
    arg_store = store if store is not None else ArgStore()
    arg_store.bind_cfa(cfa)

    def finalize_stats() -> None:
        stats.n_predicates = len(preds)
        stats.final_k = k
        stats.elapsed_seconds = time.perf_counter() - start_time
        stats.reuse = arg_store.reuse_stats()
        stats.store_digest = arg_store.digest()

    def record(rec: IterationRecord) -> None:
        if keep_history:
            rec.elapsed_s = time.perf_counter() - start_time
            stats.history.append(rec)

    def budget_reason() -> str | None:
        """Why an explicit budget has run out, or None while it has not."""
        elapsed = time.perf_counter() - start_time
        if timeout_s is not None and elapsed > timeout_s:
            return f"wall-clock budget of {timeout_s:g}s exceeded"
        if max_iterations is not None and stats.inner_iterations >= max_iterations:
            return f"iteration budget of {max_iterations} exceeded"
        return None

    def give_up(reason: str) -> CircUnknown:
        finalize_stats()
        return CircUnknown(
            variable=race_on,
            reason=reason,
            predicates=tuple(preds),
            stats=stats,
        )

    for outer in range(1, max_outer + 1):
        stats.outer_iterations = outer
        context: Acfa = empty_acfa()
        mu: dict[int, int] = {}
        prev_reach: Optional[ReachResult] = None
        abstractor = arg_store.abstractor_for(preds, abstraction)
        refined = False

        for inner in range(1, max_inner + 1):
            reason = budget_reason()
            if reason is not None:
                return give_up(reason)
            stats.inner_iterations += 1
            program = AbstractProgram(cfa, abstractor, context, k)
            try:
                reach = reach_and_build(
                    program,
                    race_on=race_on,
                    check_errors=check_errors,
                    omega_start=omega_start,
                    max_states=max_states,
                    deadline=deadline,
                    store=arg_store,
                )
            except AbstractRaceFound as exc:
                record(
                    IterationRecord(
                        outer,
                        inner,
                        tuple(preds),
                        k,
                        acfa=context,
                        event="race",
                    )
                )
                try:
                    outcome = refine(
                        cfa,
                        race_on,
                        exc.trace,
                        exc.state,
                        context,
                        prev_reach,
                        mu,
                        k,
                        preds,
                        strategy=strategy,
                    )
                except RefinementFailure:
                    # The abstract race may be realizable only through an
                    # interleaving of silent steps that the trace-placement
                    # heuristic cannot express.  Fall back to a bounded
                    # explicit-state search, which is sound (it reports
                    # only genuine races); if that is inconclusive too,
                    # give up rather than leaking the internal
                    # RefinementFailure to callers.  The fallback respects
                    # the remaining wall-clock budget, and a search it cut
                    # short gives up with the budget's reason.
                    reason = budget_reason()
                    if reason is not None:
                        return give_up(reason)
                    try:
                        outcome = _concrete_fallback(
                            cfa, race_on, check_errors, deadline
                        )
                    except RefinementFailure as stalled:
                        return give_up(budget_reason() or str(stalled))
                if isinstance(outcome, RealRace):
                    program_c = MultiProgram.symmetric(cfa, outcome.n_threads)
                    ok, _ = replay(program_c, outcome.steps, race_on=race_on)
                    if not ok:
                        raise CircError("counterexample failed concrete replay")
                    finalize_stats()
                    return CircUnsafe(
                        variable=race_on,
                        steps=outcome.steps,
                        n_threads=outcome.n_threads,
                        predicates=tuple(preds),
                        stats=stats,
                    )
                assert isinstance(outcome, Refinement)
                record(
                    IterationRecord(
                        outer,
                        inner,
                        tuple(preds),
                        k,
                        event="refine",
                        refinement_reason=outcome.reason,
                        new_predicates=tuple(outcome.new_predicates),
                    )
                )
                preds = preds.extended(outcome.new_predicates)
                k = outcome.new_k
                refined = True
                break
            except ReachBudgetExceeded as exc:
                # The wall-clock deadline or the abstract state budget
                # ran out inside one reachability pass.
                return give_up(budget_reason() or str(exc))

            stats.abstract_states += reach.states_explored
            record(
                IterationRecord(
                    outer,
                    inner,
                    tuple(preds),
                    k,
                    arg=reach.arg,
                    acfa=context,
                    states_explored=reach.states_explored,
                    event="reach",
                )
            )

            if simulates(project_acfa(reach.arg, cfa.locals), context):
                if variant == "omega" and not omega_check(
                    reach, context, cfa, k, store=arg_store
                ):
                    k += 1
                    refined = True
                    record(
                        IterationRecord(
                            outer,
                            inner,
                            tuple(preds),
                            k,
                            event="omega-bump",
                        )
                    )
                    break
                finalize_stats()
                stats.final_acfa_size = context.size
                record(
                    IterationRecord(
                        outer,
                        inner,
                        tuple(preds),
                        k,
                        arg=reach.arg,
                        acfa=context,
                        event="converged",
                    )
                )
                return CircSafe(
                    variable=race_on,
                    predicates=tuple(preds),
                    context=context,
                    stats=stats,
                )

            context, mu = arg_store.collapse_quotient(reach.arg, cfa.locals)
            prev_reach = reach
        else:
            return give_up(
                f"inner loop did not converge in {max_inner} iterations"
            )
        if not refined:
            raise CircError("inner loop exited without refinement")
    return give_up(f"no verdict after {max_outer} outer iterations")


def _concrete_fallback(
    cfa: CFA,
    race_on: str | None,
    check_errors: bool,
    deadline: float | None = None,
) -> RealRace:
    """Bounded explicit-state search for a genuine race witness.

    Used when Refine can neither realize nor refute an abstract trace (its
    silent-step placement is a heuristic).  Tries 2..4 symmetric threads
    with a growing state budget; raises RefinementFailure when inconclusive.
    ``deadline`` (an absolute ``perf_counter`` instant, from the caller's
    ``timeout_s``) bounds the search in wall-clock time as well.
    """
    from ..exec.interp import explore

    for n in (2, 3, 4):
        program = MultiProgram.symmetric(cfa, n)
        result = explore(
            program,
            race_on=race_on,
            check_errors=check_errors,
            max_states=60_000 * n,
            deadline=deadline,
        )
        if result.found:
            return RealRace(steps=result.witness.steps, n_threads=n)
    raise RefinementFailure(
        "abstract race could not be realized or refuted "
        "(refinement found no new predicates; bounded concrete search "
        "found no witness)"
    )
