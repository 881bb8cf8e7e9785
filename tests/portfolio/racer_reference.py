"""Test-only reference: the racer's phase 2 before the depth bound and
the thread-symmetry reduction.

:func:`racer_check` here is :func:`repro.portfolio.racer.racer_check` with
its former round loop, kept verbatim: every thread-count round searches
to its state budget, whatever witnesses earlier rounds found.  Its rounds
run the unreduced search of ``tests/exec/interp_reference.py``, which
stores every ordering of the same thread states.  The parity suite
(``test_racer_parity.py``) runs both and checks that the depth bound and
the reduction change no answer, only the per-pair statuses it documents
and the state count.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.cfa.cfa import CFA, Edge
from repro.exec.interp import ConcreteState, MultiProgram, replay
from repro.portfolio.racer import PairStatus, RacerReport, _pair_proof
from repro.static.mhp import MhpReport, mhp_analysis

from ..exec.interp_reference import breadth_first_search


def _pair_hit(state: ConcreteState, pair: tuple[int, int]) -> bool:
    """Do two distinct threads of ``state`` occupy ``pair``?

    Asked of race states only, and the pair came from the access-pair
    enumeration, so the access/write side conditions and the absence of
    an atomic occupant already hold; what remains is co-occupation.
    """
    pcs = [pc for pc, _ in state.threads]
    q1, q2 = pair
    return pcs.count(q1) >= 2 if q1 == q2 else q1 in pcs and q2 in pcs


def _search_witnesses(
    cfa: CFA,
    variable: str,
    targets: list[tuple[int, int]],
    n_threads: int,
    max_states: int,
    should_stop: Optional[Callable[[], bool]],
) -> tuple[dict[tuple[int, int], tuple[tuple[int, Edge], ...]], int, bool]:
    """One BFS over ``n_threads`` symmetric copies, watching every target.

    Returns (replayed witnesses, states visited, stopped-early).  Unlike
    :func:`repro.exec.interp.explore` the search does not stop at the
    first race state: it keeps going until every target pair has a
    witness or the budget runs out, so one pass serves all pairs.
    """
    program = MultiProgram.symmetric(cfa, n_threads)
    hits: dict[tuple[int, int], ConcreteState] = {}
    remaining = set(targets)

    def all_hit(state: ConcreteState) -> bool:
        if program.is_race_state(state, variable):
            for pair in list(remaining):
                if _pair_hit(state, pair):
                    hits[pair] = state
                    remaining.discard(pair)
        return not remaining

    search = breadth_first_search(
        program, all_hit, max_states, should_stop=should_stop
    )
    found = {}
    for pair, state in hits.items():
        steps = search.witness(state).steps
        ok, _ = replay(program, steps, race_on=variable)
        if ok:  # forged evidence is worse than none: drop it
            found[pair] = tuple(steps)
    return found, search.visited, search.ended == "cancelled"


def racer_check(
    cfa: CFA,
    variable: str,
    max_threads: int = 3,
    max_states: int = 20_000,
    facts: MhpReport | None = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> RacerReport:
    """Run both phases for one shared variable.

    ``facts`` lets callers share one :func:`~repro.static.mhp.mhp_analysis`
    run across analyses of the same CFA.  ``should_stop`` is polled
    between exploration rounds so the portfolio driver can cancel a
    search once another analysis has produced a confident verdict; a
    cancelled report is always ``unknown`` and flagged ``cancelled``.
    """
    cfa.require_global(variable)
    start = time.perf_counter()
    if facts is None:
        facts = mhp_analysis(cfa)

    # Phase 1: escape + locksets + MHP, with a proof per killed pair.
    if not any(variable in cfa.accesses_at(q) for q in facts.reachable):
        phase1_ms = (time.perf_counter() - start) * 1000.0
        return RacerReport(
            variable=variable,
            verdict="safe",
            reason="does not escape: no reachable access site",
            pairs=(),
            phase1_ms=phase1_ms,
        )
    candidates = facts.access_pairs(cfa, variable)
    statuses: list[PairStatus] = []
    surviving: list[tuple[int, int]] = []
    for pair in candidates:
        if facts.race_pair(*pair):
            surviving.append(pair)
        else:
            statuses.append(
                PairStatus(
                    pair=pair,
                    status="proved",
                    reason=_pair_proof(facts, *pair),
                )
            )
    phase1_ms = (time.perf_counter() - start) * 1000.0
    if not candidates:
        return RacerReport(
            variable=variable,
            verdict="safe",
            reason="no write at any access pair (read-only or unwritten)",
            pairs=tuple(statuses),
            phase1_ms=phase1_ms,
        )
    if not surviving:
        held = sorted(
            frozenset.intersection(
                *(facts.held[q] for pair in candidates for q in pair)
            )
        )
        what = (
            "common " + ", ".join(held) if held else "pairwise exclusion"
        )
        return RacerReport(
            variable=variable,
            verdict="safe",
            reason=f"every conflicting pair proved impossible ({what})",
            pairs=tuple(statuses),
            phase1_ms=phase1_ms,
        )

    # Phase 2: pair-targeted bounded witness search, smallest bound first.
    p2_start = time.perf_counter()
    pending = surviving
    witnesses: dict[tuple[int, int], tuple[tuple[int, Edge], ...]] = {}
    thread_count: dict[tuple[int, int], int] = {}
    states_total = 0
    stopped = False
    for n in range(2, max_threads + 1):
        if not pending or stopped:
            break
        found, visited, stopped = _search_witnesses(
            cfa, variable, pending, n, max_states, should_stop
        )
        states_total += visited
        for pair, steps in found.items():
            witnesses[pair] = steps
            thread_count[pair] = n
        pending = [p for p in pending if p not in witnesses]

    for pair in surviving:
        if pair in witnesses:
            statuses.append(
                PairStatus(
                    pair=pair,
                    status="witnessed",
                    reason="interleaving replayed in the interpreter",
                    witness=witnesses[pair],
                    n_threads=thread_count[pair],
                )
            )
        else:
            statuses.append(
                PairStatus(
                    pair=pair,
                    status="undecided",
                    reason=(
                        "cancelled before a verdict"
                        if stopped
                        else f"no witness within {max_threads} threads / "
                        f"{max_states} states"
                    ),
                )
            )
    statuses.sort(key=lambda s: s.pair)
    phase2_ms = (time.perf_counter() - p2_start) * 1000.0

    if witnesses:
        best = min(witnesses, key=lambda p: len(witnesses[p]))
        return RacerReport(
            variable=variable,
            verdict="race",
            reason=f"pair {best} has a replayed interleaving witness",
            pairs=tuple(statuses),
            witness=witnesses[best],
            n_threads=thread_count[best],
            phase1_ms=phase1_ms,
            phase2_ms=phase2_ms,
            states_explored=states_total,
        )
    return RacerReport(
        variable=variable,
        verdict="unknown",
        reason=(
            f"{len(pending)} pair(s) undecided: survived phase 1, "
            "no bounded witness"
        ),
        pairs=tuple(statuses),
        phase1_ms=phase1_ms,
        phase2_ms=phase2_ms,
        states_explored=states_total,
    )
