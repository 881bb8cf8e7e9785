"""Explicit-state interpreter for multithreaded CFA programs.

Implements the concrete semantics of Section 3.1/3.2 of the paper: a state
is a valuation of the globals plus, per thread, a program counter and a
valuation of that thread's locals.  Scheduling follows the atomic-location
rule: if some thread sits at an atomic location, only that thread runs.

This module serves three roles in the reproduction:

* a *test oracle* -- for programs with small finite reachable state spaces,
  exhaustive exploration decides race freedom exactly, which cross-checks
  the CIRC verifier's verdicts;
* a *counterexample validator* -- CIRC's concrete error traces are replayed
  step by step;
* the *ModelCheck* procedure of Appendix A builds on the same machinery.

:func:`breadth_first_search` is the one explicit-state search loop:
:func:`explore` runs it to the first bad state, and the portfolio racer's
phase 2 runs it until every watched location pair has a witness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..cfa.cfa import CFA, AssignOp, AssumeOp, Edge
from ..smt.terms import evaluate

__all__ = [
    "ConcreteState",
    "MultiProgram",
    "ExploreResult",
    "RaceWitness",
    "Search",
    "breadth_first_search",
    "explore",
    "replay",
]


@dataclass(frozen=True)
class ConcreteState:
    """An immutable, hashable concrete program state."""

    globals: tuple[tuple[str, int], ...]
    threads: tuple[tuple[int, tuple[tuple[str, int], ...]], ...]

    def global_env(self) -> dict[str, int]:
        return dict(self.globals)

    def thread_pc(self, i: int) -> int:
        return self.threads[i][0]

    def thread_env(self, i: int) -> dict[str, int]:
        return dict(self.threads[i][1])

    def full_env(self, i: int) -> dict[str, int]:
        """Environment visible to thread ``i`` (globals + its locals)."""
        env = self.global_env()
        env.update(self.thread_env(i))
        return env

    def __str__(self) -> str:
        gs = ", ".join(f"{k}={v}" for k, v in self.globals)
        ts = "; ".join(
            f"T{i}@{pc}[" + ", ".join(f"{k}={v}" for k, v in loc) + "]"
            for i, (pc, loc) in enumerate(self.threads)
        )
        return f"<{gs} | {ts}>"


class MultiProgram:
    """A multithreaded program: one CFA per thread (paper's C^n when all
    entries are the same CFA)."""

    def __init__(self, cfas: Sequence[CFA], init: Mapping[str, int] | None = None):
        if not cfas:
            raise ValueError("need at least one thread")
        self.cfas = tuple(cfas)
        g0 = dict(cfas[0].global_init)
        for c in cfas[1:]:
            if c.globals != cfas[0].globals:
                raise ValueError("threads disagree on the global variables")
        if init:
            g0.update(init)
        self._init_globals = g0

    @classmethod
    def symmetric(
        cls, cfa: CFA, n: int, init: Mapping[str, int] | None = None
    ) -> "MultiProgram":
        """``n`` copies of the same thread (the paper's C^infinity, truncated)."""
        return cls([cfa] * n, init)

    @property
    def n_threads(self) -> int:
        return len(self.cfas)

    def initial(self) -> ConcreteState:
        return ConcreteState(
            globals=tuple(sorted(self._init_globals.items())),
            threads=tuple(
                (
                    cfa.q0,
                    tuple(sorted((v, 0) for v in cfa.locals)),
                )
                for cfa in self.cfas
            ),
        )

    # -- scheduling ---------------------------------------------------------------

    def atomic_thread(self, state: ConcreteState) -> Optional[int]:
        """The unique thread at an atomic location, if any."""
        for i, (pc, _) in enumerate(state.threads):
            if self.cfas[i].is_atomic(pc):
                return i
        return None

    def schedulable(self, state: ConcreteState) -> list[int]:
        at = self.atomic_thread(state)
        if at is not None:
            return [at]
        return list(range(self.n_threads))

    # -- transitions ------------------------------------------------------------------

    def step(
        self, state: ConcreteState, thread: int, edge: Edge
    ) -> Optional[ConcreteState]:
        """Execute ``edge`` for ``thread``; None when not enabled."""
        pc, _ = state.threads[thread]
        if edge.src != pc:
            return None
        env = state.full_env(thread)
        op = edge.op
        if isinstance(op, AssumeOp):
            if not evaluate(op.pred, env):
                return None
            new_globals = state.globals
            new_locals = state.threads[thread][1]
        elif isinstance(op, AssignOp):
            value = evaluate(op.rhs, env)
            cfa = self.cfas[thread]
            if op.lhs in cfa.globals:
                g = state.global_env()
                g[op.lhs] = value
                new_globals = tuple(sorted(g.items()))
                new_locals = state.threads[thread][1]
            else:
                loc = state.thread_env(thread)
                loc[op.lhs] = value
                new_globals = state.globals
                new_locals = tuple(sorted(loc.items()))
        else:
            raise TypeError(f"unknown op {op!r}")
        threads = list(state.threads)
        threads[thread] = (edge.dst, new_locals)
        return ConcreteState(new_globals, tuple(threads))

    def successors(
        self, state: ConcreteState
    ) -> Iterator[tuple[int, Edge, ConcreteState]]:
        for i in self.schedulable(state):
            pc = state.thread_pc(i)
            for edge in self.cfas[i].out(pc):
                nxt = self.step(state, i, edge)
                if nxt is not None:
                    yield i, edge, nxt

    # -- race and error predicates (Section 4.1) -----------------------------------

    def is_race_state(self, state: ConcreteState, x: str) -> bool:
        """Two distinct threads have enabled accesses to ``x``, one a write,
        and no thread holds an atomic location."""
        if self.atomic_thread(state) is not None:
            return False
        writers = []
        accessors = []
        for i, (pc, _) in enumerate(state.threads):
            cfa = self.cfas[i]
            if cfa.may_write(pc, x):
                writers.append(i)
            if cfa.may_access(pc, x):
                accessors.append(i)
        for w in writers:
            for a in accessors:
                if a != w:
                    return True
        return False

    def is_error_state(self, state: ConcreteState) -> bool:
        """Some thread reached an assertion-failure location."""
        return any(
            pc in self.cfas[i].error_locations
            for i, (pc, _) in enumerate(state.threads)
        )

    def bad_state_test(
        self, race_on: str | None, check_errors: bool
    ) -> Callable[[ConcreteState], bool]:
        """Is a state a race on ``race_on`` (or, with ``check_errors``, an
        assertion failure)?  Rejects a ``race_on`` that is not a global."""
        if race_on is not None:
            self.cfas[0].require_global(race_on)

        def is_bad(state: ConcreteState) -> bool:
            return (
                race_on is not None and self.is_race_state(state, race_on)
            ) or (check_errors and self.is_error_state(state))

        return is_bad


@dataclass
class RaceWitness:
    """A concrete interleaved trace ending in a race (or error) state."""

    steps: list[tuple[int, Edge]]
    states: list[ConcreteState]

    def __str__(self) -> str:
        lines = []
        for (thread, edge), state in zip(self.steps, self.states[1:]):
            lines.append(f"T{thread}: {edge.op}   -->  {state}")
        return "\n".join(lines)


@dataclass
class ExploreResult:
    """Outcome of bounded exhaustive exploration."""

    visited: int
    complete: bool
    witness: Optional[RaceWitness]

    @property
    def found(self) -> bool:
        return self.witness is not None


@dataclass
class Search:
    """What one :func:`breadth_first_search` left behind.

    ``parent`` maps every discovered state to the state, thread and edge
    that first reached it (``None`` for the initial state).  ``ended`` says
    why the search ended: ``"stopped"`` (the stop test held at ``goal``),
    ``"exhausted"`` (no undiscovered state is left), ``"budget"``
    (``max_states`` states discovered), ``"deadline"`` or ``"cancelled"``.
    """

    parent: dict[ConcreteState, tuple[ConcreteState, int, Edge] | None]
    visited: int
    ended: str
    goal: Optional[ConcreteState] = None

    def witness(self, state: ConcreteState) -> RaceWitness:
        """The first-discovery path from the initial state to ``state``."""
        steps: list[tuple[int, Edge]] = []
        chain: list[ConcreteState] = [state]
        cur = state
        while self.parent[cur] is not None:
            prev, thread, edge = self.parent[cur]
            steps.append((thread, edge))
            chain.append(prev)
            cur = prev
        steps.reverse()
        chain.reverse()
        return RaceWitness(steps, chain)


def breadth_first_search(
    program: MultiProgram,
    stop: Callable[[ConcreteState], bool],
    max_states: int,
    deadline: float | None = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Search:
    """Breadth-first search of the reachable states until ``stop`` holds.

    ``stop`` sees every state once, in discovery order (the initial state
    first), and ends the search by returning True.  The search also ends
    after ``max_states`` discovered states, once the optional ``deadline``
    (an absolute :func:`time.perf_counter` instant, checked per expanded
    state) has passed, or when ``should_stop`` (polled once per BFS level)
    returns True.
    """
    init = program.initial()
    parent: dict[ConcreteState, tuple[ConcreteState, int, Edge] | None] = {
        init: None
    }
    if stop(init):
        return Search(parent, 1, "stopped", init)
    frontier = [init]
    visited = 1
    while frontier:
        if should_stop is not None and should_stop():
            return Search(parent, visited, "cancelled")
        next_frontier: list[ConcreteState] = []
        for state in frontier:
            if deadline is not None and time.perf_counter() > deadline:
                return Search(parent, visited, "deadline")
            for thread, edge, nxt in program.successors(state):
                if nxt in parent:
                    continue
                parent[nxt] = (state, thread, edge)
                visited += 1
                if stop(nxt):
                    return Search(parent, visited, "stopped", nxt)
                if visited >= max_states:
                    return Search(parent, visited, "budget")
                next_frontier.append(nxt)
        frontier = next_frontier
    return Search(parent, visited, "exhausted")


def explore(
    program: MultiProgram,
    race_on: str | None = None,
    check_errors: bool = False,
    max_states: int = 200_000,
    deadline: float | None = None,
) -> ExploreResult:
    """Breadth-first exploration of the reachable states.

    Stops at the first race on ``race_on`` (or assertion failure when
    ``check_errors``), returning a shortest witness.  ``complete`` is False
    when the ``max_states`` budget -- or the optional ``deadline``, an
    absolute :func:`time.perf_counter` instant -- was exhausted first, in
    which case the absence of a witness is inconclusive.
    """
    is_bad = program.bad_state_test(race_on, check_errors)
    search = breadth_first_search(program, is_bad, max_states, deadline)
    if search.ended == "stopped":
        return ExploreResult(search.visited, True, search.witness(search.goal))
    return ExploreResult(search.visited, search.ended == "exhausted", None)


def replay(
    program: MultiProgram,
    steps: Iterable[tuple[int, Edge]],
    race_on: str | None = None,
) -> tuple[bool, list[ConcreteState]]:
    """Replay an interleaved trace from the initial state.

    Returns (ok, states): ``ok`` is True when every step was schedulable and
    enabled, and -- if ``race_on`` is given -- the final state is a race
    state on that variable.
    """
    state = program.initial()
    states = [state]
    for thread, edge in steps:
        if thread not in program.schedulable(state):
            return False, states
        nxt = program.step(state, thread, edge)
        if nxt is None:
            return False, states
        state = nxt
        states.append(state)
    if race_on is not None and not program.is_race_state(state, race_on):
        return False, states
    return True, states
