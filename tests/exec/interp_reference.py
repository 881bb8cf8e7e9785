"""Test-only references: the explicit-state search before its reductions.

:class:`ReferenceProgram` is :class:`~repro.exec.interp.MultiProgram` with
its former ``successors`` and ``is_race_state``: every successor is built
by the interpreted :meth:`~repro.exec.interp.MultiProgram.step`, which
evaluates each edge's terms over environment dicts, and the race test
asks the CFA's ``is_atomic``, ``may_write`` and ``may_access`` per thread
for every state.  The parity suite (``test_kernel_parity.py``) searches
with both and checks that they discover the same states in the same
order, with the same parents.

:func:`breadth_first_search` is :func:`repro.exec.interp.breadth_first_search`
before the thread-symmetry reduction, kept verbatim: it stores every
concrete state, so it keeps every ordering of the same thread states.
The symmetry suite (``test_symmetry_parity.py``) checks that the reduced
search stores exactly this search's first member of each orbit, with the
same parents in the same order.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, Optional

from repro.cfa.cfa import Edge
from repro.exec.interp import ConcreteState, MultiProgram, Search


class ReferenceProgram(MultiProgram):
    """:class:`MultiProgram` with its former successor loop and race test."""

    def successors(
        self, state: ConcreteState
    ) -> Iterator[tuple[int, Edge, ConcreteState]]:
        for i in self.schedulable(state):
            pc = state.thread_pc(i)
            for edge in self.cfas[i].out(pc):
                nxt = self.step(state, i, edge)
                if nxt is not None:
                    yield i, edge, nxt

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


def breadth_first_search(
    program: MultiProgram,
    stop: Callable[[ConcreteState], bool],
    max_states: int,
    deadline: float | None = None,
    should_stop: Optional[Callable[[], bool]] = None,
    max_depth: int | None = None,
) -> Search:
    """Breadth-first search of the reachable states until ``stop`` holds.

    ``stop`` sees every state once, in discovery order (the initial state
    first), and ends the search by returning True.  The search also ends
    after ``max_states`` discovered states, once the optional ``deadline``
    (an absolute :func:`time.perf_counter` instant, checked per expanded
    state) has passed, when ``should_stop`` (polled once per BFS level)
    returns True, or, given ``max_depth``, instead of expanding the states
    that many steps from the initial state.  The search is level by level,
    so a bounded search is a prefix of the unbounded one: the same states
    in the same order with the same parents, cut after depth ``max_depth``.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, not {max_depth}")
    init = program.initial()
    parent: dict[ConcreteState, tuple[ConcreteState, int, Edge] | None] = {
        init: None
    }
    if stop(init):
        return Search(parent, 1, "stopped", init)
    frontier = [init]
    visited = 1
    depth = 0  # of the states in ``frontier``
    while frontier:
        if should_stop is not None and should_stop():
            return Search(parent, visited, "cancelled")
        if depth == max_depth:
            return Search(parent, visited, "depth")
        depth += 1
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
