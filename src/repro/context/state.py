"""Abstract program states and the abstract transition relation
(Section 3.4: abstract multithreaded programs).

An abstract state is ``((pc, region), G)``: the main thread's control
location and abstract data region, plus the counter-abstracted context
state.  The scheduler follows the paper exactly:

* if no occupied (abstract) location is atomic, every occupied location's
  operations are enabled;
* if exactly one is atomic, only its operations are enabled;
* more than one atomic location cannot become occupied from a non-atomic
  start.

``post`` implements both transition kinds: main CFA operations (strongest
postcondition + context invariant) and context ACFA havoc moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..acfa.acfa import Acfa, AcfaEdge
from ..cfa.cfa import CFA, Edge
from ..predabs.abstractor import Abstractor
from ..predabs.region import Region
from ..smt import terms as T
from .counters import ContextState

if TYPE_CHECKING:
    from ..reach.store import ArgStore

__all__ = ["AbsState", "MainMove", "CtxMove", "AbstractProgram"]


@dataclass(frozen=True)
class AbsState:
    """((pc, region), G) -- immutable and hashable."""

    pc: int
    region: Region
    context: ContextState

    def thread_state(self) -> tuple[int, Region]:
        return (self.pc, self.region)


@dataclass(frozen=True)
class MainMove:
    """The main thread takes a CFA edge."""

    edge: Edge


@dataclass(frozen=True)
class CtxMove:
    """A context thread takes an ACFA havoc edge."""

    edge: AcfaEdge


Move = MainMove | CtxMove


class AbstractProgram:
    """The abstract multithreaded program ((C, P), (A, k))."""

    def __init__(
        self,
        cfa: CFA,
        abstractor: Abstractor,
        acfa: Acfa,
        k: int,
    ):
        self.cfa = cfa
        self.abstractor = abstractor
        self.acfa = acfa
        self.k = k
        self._n_acfa_locs = max(self.acfa.locations) + 1

    # -- initial state -----------------------------------------------------------

    def initial(self, omega_start: bool = True) -> AbsState:
        region = self.abstractor.initial_region(
            self.cfa.global_init, self.cfa.variables
        )
        if omega_start:
            ctx = ContextState.initial_omega(
                self._n_acfa_locs, self.acfa.entries
            )
        else:
            ctx = ContextState.initial_exact(
                self._n_acfa_locs, self.acfa.entries, self.k
            )
        return AbsState(self.cfa.q0, region, ctx)

    # -- scheduling ----------------------------------------------------------------

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

    # -- context invariant ------------------------------------------------------------

    def context_invariant(self, ctx: ContextState) -> list[T.Term]:
        """The conjunction of labels of occupied ACFA locations."""
        inv: list[T.Term] = []
        for q in ctx.occupied():
            inv.extend(self.acfa.label[q])
        return inv

    # -- the abstract post operator -----------------------------------------------------

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
