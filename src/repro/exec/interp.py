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
phase 2 runs it until every watched location pair has a witness, in
later thread-count rounds only to a ``max_depth`` one step short of the
shortest witness in hand.  When every thread runs the same CFA it stores
one state per orbit under thread permutations, the first one found, so
it finds the same witnesses while storing fewer states.

Two evaluators share these semantics.  :meth:`MultiProgram.successors`,
which every search and :func:`~repro.exec.simulate.simulate` draw from,
fires *compiled successor tables*: the first visit of a location compiles
its out-edges into closures over fixed variable slots
(:mod:`repro.exec.kernel`), so no term is interpreted and no environment
dict is built per successor.  :meth:`MultiProgram.step` interprets one edge
through :func:`~repro.smt.terms.evaluate`; it is the reference evaluator
:func:`replay` uses, so every witness a search finds is checked by code
independent of the tables that found it.  A program that is only replayed
compiles nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from ..cfa.cfa import CFA, AssignOp, AssumeOp, Edge
from ..smt.terms import evaluate
from .kernel import Fire, compile_edge

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


class ConcreteState(NamedTuple):
    """An immutable, hashable concrete program state.

    The globals and each thread's locals are ``(name, value)`` pairs
    sorted by name.  Equality and hashing are the tuple's, over the two
    fields.
    """

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

    def __init__(self, cfas: Sequence[CFA]):
        if not cfas:
            raise ValueError("need at least one thread")
        self.cfas = tuple(cfas)
        for c in cfas[1:]:
            if c.globals != cfas[0].globals:
                raise ValueError("threads disagree on the global variables")
        self._init_globals = dict(cfas[0].global_init)
        self._global_names = tuple(sorted(self._init_globals))
        self._atomic = tuple(cfa.atomic for cfa in self.cfas)
        #: Every thread runs the same CFA, so permuting the threads of a
        #: state gives a state with the same behaviour (:meth:`orbit`).
        self.interchangeable = len(self.cfas) > 1 and all(
            cfa is self.cfas[0] for cfa in self.cfas
        )
        #: Per thread, location -> its compiled out-edges, filled in on the
        #: location's first visit; threads running one CFA share one table.
        shared: dict[int, dict[int, tuple[tuple[Edge, Fire], ...]]] = {}
        self._tables = [shared.setdefault(id(cfa), {}) for cfa in self.cfas]
        #: Race variable -> per thread (atomic, writing, accessing) locations.
        self._race_sets: dict[
            str, tuple[tuple[frozenset, frozenset, frozenset], ...]
        ] = {}

    @classmethod
    def symmetric(cls, cfa: CFA, n: int) -> "MultiProgram":
        """``n`` copies of the same thread (the paper's C^infinity, truncated)."""
        return cls([cfa] * n)

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

    def orbit(self, state: ConcreteState) -> tuple:
        """``state``'s orbit under permutations of interchangeable threads:
        its globals and its sorted thread states, or, when the threads run
        different CFAs, ``state`` itself."""
        if not self.interchangeable:
            return state
        g, threads = state
        return g, tuple(sorted(threads))

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
        """Execute ``edge`` for ``thread``; None when not enabled.

        The reference semantics: ``edge`` must be an out-edge of the
        thread's location in its own CFA (compared by value, so an edge
        rebuilt from a serialized witness still matches), and its terms
        are interpreted by :func:`~repro.smt.terms.evaluate`.
        """
        pc, _ = state.threads[thread]
        if edge not in self.cfas[thread].out(pc):
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
        """Every ``(thread, edge, state')`` one step away, by the compiled
        tables: threads in index order (only the atomic one, if a thread
        sits at an atomic location), each thread's edges in
        ``cfa.out(pc)`` order -- the order :meth:`step` would give."""
        tables = self._tables
        g, threads = state
        order: Iterable[int] = range(len(threads))
        for i, atomic in enumerate(self._atomic):
            if threads[i][0] in atomic:
                order = (i,)
                break
        for i in order:
            pc, loc = threads[i]
            edges = tables[i].get(pc)
            if edges is None:
                edges = self._compile_location(tables[i], self.cfas[i], pc)
            for edge, fire in edges:
                hit = fire(g, loc)
                if hit is not None:
                    yield i, edge, ConcreteState(
                        hit[0], threads[:i] + (hit[1],) + threads[i + 1 :]
                    )

    def _compile_location(
        self, table: dict, cfa: CFA, pc: int
    ) -> tuple[tuple[Edge, Fire], ...]:
        """Compile the out-edges of ``pc`` over the initial state's slot
        layout (globals, then ``cfa``'s locals, each sorted by name)."""
        local_names = tuple(sorted(cfa.locals))
        edges = tuple(
            (e, compile_edge(e, self._global_names, local_names))
            for e in cfa.out(pc)
        )
        table[pc] = edges
        return edges

    # -- race and error predicates (Section 4.1) -----------------------------------

    def is_race_state(self, state: ConcreteState, x: str) -> bool:
        """Two distinct threads have enabled accesses to ``x``, one a write,
        and no thread holds an atomic location."""
        sets = self._race_sets.get(x)
        if sets is None:
            sets = self._race_sets[x] = tuple(
                (
                    cfa.atomic,
                    frozenset(q for q in cfa.locations if cfa.may_write(q, x)),
                    frozenset(q for q in cfa.locations if cfa.may_access(q, x)),
                )
                for cfa in self.cfas
            )
        # Every write is an access, so a writer plus a second accessor
        # is a writer and an accessor in distinct threads.
        writer = False
        accessors = 0
        for i, (pc, _) in enumerate(state.threads):
            atomic, writing, accessing = sets[i]
            if pc in atomic:
                return False
            if pc in accessing:
                accessors += 1
                if pc in writing:
                    writer = True
        return writer and accessors >= 2

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
        assertion failure)?  Rejects a ``race_on`` that is not a global,
        and a test that would check nothing."""
        if race_on is None and not check_errors:
            raise ValueError("nothing to check: give race_on or check_errors")
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
        if not self.steps:
            return f"initial state: {self.states[0]}"
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

    ``parent`` maps every stored state to the state, thread and edge that
    first reached it (``None`` for the initial state).  With interchangeable
    threads the search stores one state per orbit, so ``parent``,
    ``visited`` and the ``max_states`` budget count orbits.  ``ended`` says
    why the search ended: ``"stopped"`` (the stop test held at ``goal``),
    ``"exhausted"`` (no undiscovered state is left), ``"budget"``
    (``max_states`` states stored), ``"depth"`` (every state within
    ``max_depth`` steps discovered, the deepest ones not expanded) or
    ``"deadline"``.
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
    max_depth: int | None = None,
) -> Search:
    """Breadth-first search of the reachable states until ``stop`` holds.

    When the program's threads are interchangeable (every thread runs one
    CFA, as :meth:`MultiProgram.symmetric` builds), the search stores one
    state per orbit (:meth:`MultiProgram.orbit`): the first one discovered,
    with its parent.  Successors commute with thread permutations, so
    these are exactly the states, parents and order the search would
    store first in each orbit without the reduction, and every goal and
    witness is the same (docs/ALGORITHM.md section 12); the budget and
    the count are per orbit.  ``stop`` must then not tell threads apart,
    as the race and assertion tests do not.

    ``stop`` sees every stored state once, in discovery order (the initial
    state first), and ends the search by returning True.  The search also
    ends after ``max_states`` stored states, once the optional ``deadline``
    (an absolute :func:`time.perf_counter` instant, checked per expanded
    state) has passed, or, given ``max_depth``, instead of expanding the
    states that many steps from the initial state.  The search is level
    by level, so a bounded search is a prefix of the unbounded one: the
    same states in the same order with the same parents, cut after depth
    ``max_depth``.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, not {max_depth}")
    orbit = program.orbit
    init = program.initial()
    parent: dict[ConcreteState, tuple[ConcreteState, int, Edge] | None] = {
        init: None
    }
    if stop(init):
        return Search(parent, 1, "stopped", init)
    seen = {orbit(init)}
    frontier = [init]
    visited = 1
    depth = 0  # of the states in ``frontier``
    while frontier:
        if depth == max_depth:
            return Search(parent, visited, "depth")
        depth += 1
        next_frontier: list[ConcreteState] = []
        for state in frontier:
            if deadline is not None and time.perf_counter() > deadline:
                return Search(parent, visited, "deadline")
            for thread, edge, nxt in program.successors(state):
                key = orbit(nxt)
                if key in seen:
                    continue
                seen.add(key)
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
    ``check_errors``), returning a shortest witness; raises ValueError when
    given neither.  ``complete`` is False when the ``max_states`` budget --
    or the optional ``deadline``, an absolute :func:`time.perf_counter`
    instant -- was exhausted first, in which case the absence of a witness
    is inconclusive.  For interchangeable threads the budget and
    ``visited`` count orbits, one state per permutation of the same thread
    states (:func:`breadth_first_search`).
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
