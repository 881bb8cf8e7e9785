"""Test-only reference: the explicit-state successor loop before its kernel.

:class:`ReferenceProgram` is :class:`~repro.exec.interp.MultiProgram` with
its former ``successors`` and ``is_race_state``: every successor is built
by the interpreted :meth:`~repro.exec.interp.MultiProgram.step`, which
evaluates each edge's terms over environment dicts, and the race test
asks the CFA's ``is_atomic``, ``may_write`` and ``may_access`` per thread
for every state.  The parity suite (``test_kernel_parity.py``) searches
with both and checks that they discover the same states in the same
order, with the same parents.
"""

from __future__ import annotations

from typing import Iterator

from repro.cfa.cfa import Edge
from repro.exec.interp import ConcreteState, MultiProgram


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
