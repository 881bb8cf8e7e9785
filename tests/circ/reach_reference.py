"""Test-only reference: the ReachAndBuild loop before its kernel rewrite.

:func:`reach_and_build` and :class:`ReferenceProgram`'s
``atomic_locations``, ``enabled_moves``, ``post`` and ``is_race_state``
are the exploration as it was before moves were drawn from per-program
tables, successor regions from a per-program table, and the covering key
from the occupied atomic locations.  The parity suite
(``test_reach_parity.py``) runs both on the same inputs and checks that
they explore identically.

Three calls follow the current :class:`~repro.reach.arg.ArgBuilder`
interface: ``connect_main`` and ``connect_ctx`` take the source location
(``builder.find(src_ts)``, which they used to compute themselves), and
of what ``export`` returns this loop keeps the ACFA and provenance and
renumbers the rest itself through the builder's internals, as it did.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterator

from repro.acfa.acfa import AcfaEdge
from repro.context.counters import OMEGA, ContextState
from repro.context.state import (
    AbsState,
    AbstractProgram,
    CtxMove,
    MainMove,
    Move,
)
from repro.reach.arg import (
    AbstractRaceFound,
    ArgBuilder,
    ReachBudgetExceeded,
    ReachResult,
)
from repro.reach.store import ArgStore, acfa_signature


class ReferenceProgram(AbstractProgram):
    """:class:`AbstractProgram` with its former scheduler, post and race
    predicate: a new move object per enabled edge, every post through the
    store."""

    def atomic_locations(self, state: AbsState) -> list[tuple[str, int]]:
        """Occupied atomic locations, tagged 'main'/'ctx' (the set AL)."""
        out: list[tuple[str, int]] = []
        if self.cfa.is_atomic(state.pc):
            out.append(("main", state.pc))
        for q in state.context.occupied():
            if self.acfa.is_atomic(q):
                out.append(("ctx", q))
        return out

    def enabled_moves(self, state: AbsState) -> Iterator[Move]:
        al = self.atomic_locations(state)
        if len(al) > 1:
            return
        if len(al) == 1:
            kind, loc = al[0]
            if kind == "main":
                for e in self.cfa.out(state.pc):
                    yield MainMove(e)
            else:
                for e in self.acfa.out(loc):
                    yield CtxMove(e)
            return
        for e in self.cfa.out(state.pc):
            yield MainMove(e)
        for q in state.context.occupied():
            for e in self.acfa.out(q):
                yield CtxMove(e)

    def post(
        self, state: AbsState, move: Move, store: ArgStore
    ) -> AbsState | None:
        """Abstract successor; None when the successor region is empty.

        Location labels act at *move time*: a context move is guarded by
        its source label and constrains its successor with its target label
        (the ACFA transition relation of Section 3.3).  Labels of parked
        threads do not constrain other threads' moves -- soundness comes
        from the ARG's Union over environment edges, which makes the labels
        validated by the guarantee check interference-closed.

        Region posts go through ``store``'s memos, keyed independently of
        the context, so every exploration over one store shares them.
        """
        if isinstance(move, MainMove):
            edge = move.edge
            region = store.post_main(self.abstractor, state.region, edge.op)
            if region.is_bottom():
                return None
            return AbsState(edge.dst, region, state.context)
        if isinstance(move, CtxMove):
            edge = move.edge
            new_ctx = state.context.move(edge.src, edge.dst, self.k)
            region = store.post_havoc(
                self.abstractor,
                state.region,
                edge.havoc,
                self.acfa.label[edge.dst],
                self.acfa.label[edge.src],
            )
            if region.is_bottom():
                return None
            return AbsState(state.pc, region, new_ctx)
        raise TypeError(f"unknown move {move!r}")

    # -- the race predicate (Section 4.1, lifted to abstract states) ------------------

    def is_race_state(self, state: AbsState, x: str) -> bool:
        """Two distinct threads have enabled accesses to ``x``, at least one
        a write, and no occupied location is atomic.

        Abstract context threads only write (havoc); their reads are empty,
        so context-context races need two writers.
        """
        if self.atomic_locations(state):
            return False
        main_writes = self.cfa.may_write(state.pc, x)
        main_accesses = self.cfa.may_access(state.pc, x)
        ctx_writers = [
            q for q in state.context.occupied() if self.acfa.may_write(q, x)
        ]
        # main writer + context writer (write-write)
        if main_writes and ctx_writers:
            return True
        # context writer + main reader/writer
        if ctx_writers and main_accesses:
            return True
        # two distinct context writers
        if len(ctx_writers) >= 2:
            return True
        if len(ctx_writers) == 1 and state.context.at_least_two(ctx_writers[0]):
            return True
        return False


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
    # pointwise-larger counts and the same occupied-atomic pattern enables a
    # superset of moves, reaches a superset of races, and produces identical
    # thread-state successors -- so states covered by an explored state can
    # be skipped (WSTS-style).  `covering` maps (pc, region, atomic
    # pattern) to the maximal count vectors seen.
    acfa_atomic = [
        q for q in sorted(program.acfa.locations) if program.acfa.is_atomic(q)
    ]

    def counts_geq(a, b) -> bool:
        for x, y in zip(a, b):
            if x is OMEGA:
                continue
            if y is OMEGA or x < y:
                return False
        return True

    covering: dict[tuple, list] = {}

    def is_covered(state: AbsState) -> bool:
        pattern = tuple(
            (state.context.count(q) is OMEGA or state.context.count(q) > 0)
            for q in acfa_atomic
        )
        key = (state.pc, state.region, pattern)
        counts = state.context.counts
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
    enabled_ctx: dict[int, set[AcfaEdge]] = {}

    worklist: deque[AbsState] = deque([init])
    explored = 1
    while worklist:
        state = worklist.popleft()
        if deadline is not None and time.perf_counter() > deadline:
            raise ReachBudgetExceeded("wall-clock deadline exceeded")
        src_ts = state.thread_state()
        src_loc = builder.find(src_ts)
        for move in program.enabled_moves(state):
            if isinstance(move, CtxMove):
                enabled_ctx.setdefault(src_loc, set()).add(move.edge)
            nxt = program.post(state, move, store)
            if nxt is None:
                continue
            # Connect regardless of whether the state was seen: the
            # edge itself may be new.
            if isinstance(move, MainMove):
                builder.connect_main(
                    builder.find(src_ts), move.edge, nxt.thread_state()
                )
            else:
                builder.connect_ctx(builder.find(src_ts), nxt.thread_state())
            if nxt in parent:
                continue
            if is_covered(nxt):
                continue
            parent[nxt] = (state, move)
            reachable_contexts.add(nxt.context)
            explored += 1
            if is_bad(nxt):
                raise found_race(trace_to(nxt), nxt)
            if explored > max_states:
                raise ReachBudgetExceeded(
                    f"more than {max_states} abstract states"
                )
            worklist.append(nxt)

    arg, provenance = builder.export(arg_name)[:2]
    # Recompute per-export-location data.
    roots = {
        builder._find_root(l) for l in range(len(builder._parent))
    }
    renum = {root: i for i, root in enumerate(sorted(roots))}
    arg_pc = {renum[r]: builder._pc[r] for r in roots}
    state_location = {
        ts: renum[builder._find_root(loc)]
        for ts, loc in builder._state_loc.items()
    }
    enabled_renumed: dict[int, set[AcfaEdge]] = {}
    for loc, edges in enabled_ctx.items():
        enabled_renumed.setdefault(
            renum[builder._find_root(loc)], set()
        ).update(edges)

    result = ReachResult(
        arg=arg,
        provenance=provenance,
        arg_pc=arg_pc,
        states_explored=explored,
        reachable_contexts=reachable_contexts,
        enabled_ctx_edges=enabled_renumed,
        state_location=state_location,
    )
    store.store_result(sig, ("ok", result))
    return result
