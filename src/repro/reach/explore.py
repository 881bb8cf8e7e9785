"""ReachAndBuild: abstract reachability plus ARG construction
(Algorithms 1-4 of the paper) over an incremental store.

The worklist reachability of the abstract multithreaded program
``((C, P), (A, k))`` simultaneously builds the ARG (see
:mod:`repro.reach.arg`).  This module owns the loop itself:

* the worklist is a FIFO queue, so states expand in breadth-first order;
* every exploration runs through an :class:`~repro.reach.store.ArgStore`
  (a fresh one when the caller passes none): abstract posts are served
  from its context-independent memos, and whole runs whose input
  signature was seen before return without exploring;
* the wall-clock ``deadline`` is honored on every worklist pop, including
  runs resumed over a warm store -- an expired deadline raises before any
  memo can answer.
"""

from __future__ import annotations

import time
from collections import deque

from ..context.counters import OMEGA, ContextState
from ..context.state import AbsState, AbstractProgram, Move
from .arg import (
    AbstractRaceFound,
    ArgBuilder,
    ReachBudgetExceeded,
    ReachResult,
)
from .store import ArgStore, acfa_signature

__all__ = ["reach_and_build"]


def _run_signature(
    program: AbstractProgram,
    race_on: str | None,
    check_errors: bool,
    omega_start: bool,
    max_states: int,
    arg_name: str,
) -> tuple:
    """The complete input signature of one reachability run.

    Two runs with equal signatures explore identical abstract state
    spaces in identical order and therefore produce identical results --
    the deadline is deliberately excluded: serving a memoized result
    never takes longer than recomputing it, so a cached answer is always
    within any budget the exploration would have met.
    """
    return (
        program.abstractor.mode,
        tuple(program.abstractor.preds),
        program.k,
        acfa_signature(program.acfa),
        race_on,
        check_errors,
        omega_start,
        max_states,
        arg_name,
    )


def reach_and_build(
    program: AbstractProgram,
    race_on: str | None = None,
    check_errors: bool = False,
    omega_start: bool = True,
    max_states: int = 500_000,
    deadline: float | None = None,
    arg_name: str = "arg",
    store: ArgStore | None = None,
) -> ReachResult:
    """Compute abstract reachability; build the ARG (Algorithm 1).

    Raises :class:`AbstractRaceFound` with the abstract counterexample when
    an error state is reachable, :class:`ReachBudgetExceeded` when the
    state budget -- or the optional ``deadline``, an absolute
    :func:`time.perf_counter` instant -- runs out.

    ``store`` carries reuse across calls; without one the exploration
    runs through a fresh store.
    """
    if deadline is not None and time.perf_counter() > deadline:
        raise ReachBudgetExceeded("wall-clock deadline exceeded")

    if store is None:
        store = ArgStore()
    store.bind_cfa(program.cfa)
    sig = _run_signature(
        program,
        race_on,
        check_errors,
        omega_start,
        max_states,
        arg_name,
    )
    hit = store.lookup_result(sig)
    if hit is not None:
        if hit[0] == "race":
            _, trace, state = hit
            raise AbstractRaceFound(list(trace), state)
        return hit[1]

    cfa = program.cfa
    builder = ArgBuilder(cfa, program.abstractor.preds)

    def is_bad(s: AbsState) -> bool:
        if race_on is not None and program.is_race_state(s, race_on):
            return True
        if check_errors and s.pc in cfa.error_locations:
            return True
        return False

    init = program.initial(omega_start=omega_start)
    builder.set_initial(init.thread_state())

    parent: dict[AbsState, tuple[AbsState, Move] | None] = {init: None}

    # Covering-based pruning: for a fixed (pc, region), a context state with
    # pointwise-larger counts and the same occupied atomic locations enables
    # a superset of moves, reaches a superset of races, and produces
    # identical thread-state successors -- so states covered by an explored
    # state can be skipped (WSTS-style).  `covering` maps (pc, region,
    # occupied atomic locations) to the maximal count vectors seen.
    acfa_atomic = program.acfa.atomic

    def counts_geq(a, b) -> bool:
        for x, y in zip(a, b):
            if x is OMEGA:
                continue
            if y is OMEGA or x < y:
                return False
        return True

    covering: dict[tuple, list] = {}

    def is_covered(state: AbsState) -> bool:
        context = state.context
        if acfa_atomic:
            pattern = tuple(q for q in context.occupied() if q in acfa_atomic)
        else:
            pattern = ()
        key = (state.pc, state.region, pattern)
        counts = context.counts
        kept = covering.get(key)
        if kept is None:
            covering[key] = [counts]
            return False
        for other in kept:
            if counts_geq(other, counts):
                return True
        covering[key] = [
            other for other in kept if not counts_geq(counts, other)
        ] + [counts]
        return False

    def trace_to(state: AbsState) -> list[Move]:
        moves: list[Move] = []
        cur = state
        while parent[cur] is not None:
            prev, move = parent[cur]
            moves.append(move)
            cur = prev
        moves.reverse()
        return moves

    def found_race(trace: list[Move], state: AbsState):
        store.store_result(sig, ("race", tuple(trace), state))
        return AbstractRaceFound(trace, state)

    if is_bad(init):
        raise found_race([], init)

    reachable_contexts: set[ContextState] = {init.context}
    worklist: deque[AbsState] = deque([init])
    explored = 1

    def admit(nxt: AbsState, state: AbsState, move: Move) -> None:
        """Queue a successor that is neither seen nor covered."""
        nonlocal explored
        parent[nxt] = (state, move)
        reachable_contexts.add(nxt.context)
        explored += 1
        if is_bad(nxt):
            raise found_race(trace_to(nxt), nxt)
        if explored > max_states:
            raise ReachBudgetExceeded(f"more than {max_states} abstract states")
        worklist.append(nxt)

    # Main moves connect ARG locations (Connect); context moves unify them
    # (Union).  The edge is recorded even when the successor was seen: the
    # edge itself may be new.
    program.begin(store)
    post_main, post_ctx = program.post_main, program.post_ctx
    while worklist:
        state = worklist.popleft()
        if deadline is not None and time.perf_counter() > deadline:
            raise ReachBudgetExceeded("wall-clock deadline exceeded")
        src = builder.find((state.pc, state.region))
        main_moves, ctx_moves = program.enabled(state)
        for move in main_moves:
            nxt = post_main(state, move, store)
            if nxt is None:
                continue
            builder.connect_main(src, move.edge, (nxt.pc, nxt.region))
            if nxt not in parent and not is_covered(nxt):
                admit(nxt, state, move)
        if not ctx_moves:
            continue
        builder.enable_ctx(src, [move.edge for move in ctx_moves])
        for move in ctx_moves:
            nxt = post_ctx(state, move, store)
            if nxt is None:
                continue
            builder.connect_ctx(src, (nxt.pc, nxt.region))
            if nxt not in parent and not is_covered(nxt):
                admit(nxt, state, move)

    arg, provenance, arg_pc, state_location, enabled_ctx = builder.export(
        arg_name
    )
    result = ReachResult(
        arg=arg,
        provenance=provenance,
        arg_pc=arg_pc,
        states_explored=explored,
        reachable_contexts=reachable_contexts,
        enabled_ctx_edges=enabled_ctx,
        state_location=state_location,
    )
    store.store_result(sig, ("ok", result))
    return result
