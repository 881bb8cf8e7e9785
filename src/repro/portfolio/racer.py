"""RacerF-style two-phase static race detection with concrete witnesses.

Phase 1 (cheap, whole-template) reads the phase-1 facts of
:class:`repro.static.mhp.MhpReport` -- reachable locations (may-escape),
monitor-aware must-locksets and the MHP relation -- and records a
*per-pair proof* for every access pair of
:meth:`~repro.static.mhp.MhpReport.access_pairs` one of the kill rules
refutes (unreachable site, atomic exclusion, common monitor).

Phase 2 (per surviving pair) runs the interpreter's
:func:`~repro.exec.interp.breadth_first_search` over bounded symmetric
interleavings for a concrete schedule that co-locates the pair in a race
state, one round per thread count from 2 up; the threads are
interchangeable, so each round stores one state per orbit under thread
permutations.  Every hit is replayed through the interpreter before it
is believed; a witness that fails replay is discarded, never reported.
Once some pair has an ``L``-step witness, a later round can change the
answer only with a shorter one, so it searches no deeper than ``L - 1``
steps (none at all when ``L`` is 0); the verdict, witness and thread
count are those of the unbounded rounds (docs/ALGORITHM.md section 12).

The verdict discipline is the point of the exercise -- never a bare
warning:

* ``race``   -- some pair has a **replayed** interleaving witness;
* ``safe``   -- *every* conflicting pair carries a phase-1 proof (this
  is the same sound, unbounded-thread-count argument the static
  classifier makes: no conflicting pair, no race state);
* ``unknown`` -- some pair survived phase 1 but the bounded search found
  no witness.  The pair is explicitly *undecided*, and the caller (the
  portfolio driver) hands it to CIRC rather than alarming a human.

Safety claims are therefore exactly as strong as CIRC's (unbounded), and
race claims carry evidence the interpreter accepts -- which is what lets
the portfolio driver skip CIRC on either verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..cfa.cfa import CFA, Edge
from ..exec.interp import (
    ConcreteState,
    MultiProgram,
    breadth_first_search,
    replay,
)
from ..static.mhp import MhpReport, mhp_analysis
from ..static.protect import describe_locks

__all__ = ["PairStatus", "RacerReport", "racer_check"]


@dataclass(frozen=True)
class PairStatus:
    """What phase 1 or phase 2 established about one conflicting pair.

    ``status`` is ``proved`` (phase-1 kill rule, ``reason`` names it),
    ``witnessed`` (``witness`` replays in the interpreter), or
    ``undecided``: it survived phase 1 and has no witness, because the
    search ran out of budget or stopped at the depth bound another
    pair's witness set (``reason`` says which).
    """

    pair: tuple[int, int]
    status: str  # 'proved' | 'witnessed' | 'undecided'
    reason: str = ""
    witness: tuple[tuple[int, Edge], ...] = ()
    n_threads: int = 0


@dataclass
class RacerReport:
    """The two-phase detector's answer for one (template, variable) query."""

    variable: str
    verdict: str  # 'safe' | 'race' | 'unknown'
    reason: str
    pairs: tuple[PairStatus, ...]
    #: The replayed witness backing a ``race`` verdict (else empty).
    witness: tuple[tuple[int, Edge], ...] = ()
    n_threads: int = 0
    phase1_ms: float = 0.0
    phase2_ms: float = 0.0
    #: States phase 2 stored over all its rounds: the threads are
    #: interchangeable, so one per orbit under thread permutations.
    states_explored: int = 0

    @property
    def undecided_pairs(self) -> tuple[PairStatus, ...]:
        return tuple(p for p in self.pairs if p.status == "undecided")


def _pair_proof(facts: MhpReport, q1: int, q2: int) -> str:
    """Name the phase-1 kill rule that refutes co-occupation of a pair."""
    if q1 not in facts.reachable or q2 not in facts.reachable:
        return "unreachable access site"
    if q1 in facts.atomic or q2 in facts.atomic:
        return "atomic exclusion (no race state has an atomic occupant)"
    common = sorted(facts.excluded_by(q1, q2))
    if common:
        return f"mutual exclusion via {describe_locks(common)}"
    return "excluded by MHP"


def _pair_hit(pcs: list[int], pair: tuple[int, int]) -> bool:
    """Do two distinct threads at locations ``pcs`` occupy ``pair``?

    Asked of race states only, and the pair came from the access-pair
    enumeration, so the access/write side conditions and the absence of
    an atomic occupant already hold; what remains is co-occupation.
    """
    q1, q2 = pair
    return pcs.count(q1) >= 2 if q1 == q2 else q1 in pcs and q2 in pcs


def _search_witnesses(
    cfa: CFA,
    variable: str,
    targets: list[tuple[int, int]],
    n_threads: int,
    max_states: int,
    max_depth: int | None,
) -> tuple[dict[tuple[int, int], tuple[tuple[int, Edge], ...]], int, str]:
    """One BFS over ``n_threads`` symmetric copies, watching every target.

    Returns (replayed witnesses, states visited, how the search ended).
    Unlike :func:`repro.exec.interp.explore` the search does not stop at
    the first race state: it keeps going until every target pair has a
    witness, the budget runs out, or every state within ``max_depth``
    steps is discovered, so one pass serves all pairs.
    """
    program = MultiProgram.symmetric(cfa, n_threads)
    hits: dict[tuple[int, int], ConcreteState] = {}
    remaining = set(targets)

    def all_hit(state: ConcreteState) -> bool:
        if program.is_race_state(state, variable):
            pcs = [pc for pc, _ in state.threads]
            for pair in list(remaining):
                if _pair_hit(pcs, pair):
                    hits[pair] = state
                    remaining.discard(pair)
        return not remaining

    search = breadth_first_search(
        program, all_hit, max_states, max_depth=max_depth
    )
    found = {}
    for pair, state in hits.items():
        steps = search.witness(state).steps
        ok, _ = replay(program, steps, race_on=variable)
        if ok:  # forged evidence is worse than none: drop it
            found[pair] = tuple(steps)
    return found, search.visited, search.ended


def racer_check(
    cfa: CFA,
    variable: str,
    max_threads: int = 3,
    max_states: int = 20_000,
    facts: MhpReport | None = None,
) -> RacerReport:
    """Run both phases for one shared variable.

    ``facts`` lets callers share one :func:`~repro.static.mhp.mhp_analysis`
    run across analyses of the same CFA.  ``max_states`` bounds each
    round, counting one state per orbit under thread permutations, as
    ``states_explored`` does.
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
    # BFS witnesses each pair first at its depth, and the verdict keeps the
    # first of the shortest witnesses, so a later round can change the
    # answer only with a witness shorter than every one in hand: it
    # searches no deeper than that (docs/ALGORITHM.md section 12).
    p2_start = time.perf_counter()
    pending = surviving
    witnesses: dict[tuple[int, int], tuple[tuple[int, Edge], ...]] = {}
    thread_count: dict[tuple[int, int], int] = {}
    states_total = 0
    cut = ""  # why the depth bound left the pending pairs unsearched
    for n in range(2, max_threads + 1):
        if not pending:
            break
        shortest = min(map(len, witnesses.values()), default=None)
        if shortest == 0:
            cut = (
                f"not searched at {n} threads: "
                "a witness of length 0 is in hand"
            )
            break
        depth = None if shortest is None else shortest - 1
        found, visited, ended = _search_witnesses(
            cfa, variable, pending, n, max_states, depth
        )
        if ended == "depth":
            cut = (
                f"not searched past depth {depth} at {n} threads: "
                f"a witness of length {shortest} is in hand"
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
                        cut
                        or f"no witness within {max_threads} threads / "
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
