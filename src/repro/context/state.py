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
postcondition) and context ACFA havoc moves.  Moves are drawn from
per-program tables and successor regions from a per-program table in
front of the :class:`~repro.reach.store.ArgStore`, so a move that recurs
costs dictionary lookups only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..acfa.acfa import Acfa, AcfaEdge
from ..cfa.cfa import CFA, Edge
from ..predabs.abstractor import Abstractor
from ..predabs.region import Region
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


@dataclass(frozen=True, eq=False)
class MainMove:
    """The main thread takes a CFA edge.

    An :class:`AbstractProgram` builds one move per edge and hands out
    the same object every time, so moves compare and hash by identity.
    """

    edge: Edge


@dataclass(frozen=True, eq=False)
class CtxMove:
    """A context thread takes an ACFA havoc edge (one object per edge)."""

    edge: AcfaEdge


Move = MainMove | CtxMove


class AbstractProgram:
    """The abstract multithreaded program ((C, P), (A, k)).

    A program is built for one ReachAndBuild run (one CIRC inner
    iteration) and holds its tables: the move objects of every CFA and
    ACFA location, and the successor region of every (region, move) pair
    computed so far.
    """

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
        # CFA location -> its main moves, built when first visited.
        self._main_moves: dict[int, tuple[MainMove, ...]] = {}
        # ACFA location -> its context moves.
        self._ctx_moves: dict[int, tuple[CtxMove, ...]] = {
            q: tuple(CtxMove(e) for e in acfa.out(q)) for q in acfa.locations
        }
        # (region, move) -> successor region.  A move fixes the CFA
        # operation, or the ACFA labels and havoc set, of the store's memo
        # key, so an entry is the store's value for that key.  Valid for
        # the store and predicate set of `begin`.
        self._successor: dict[tuple[Region, Move], Region] = {}
        self._store: ArgStore | None = None
        self._preds = abstractor.preds

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

    def main_moves(self, pc: int) -> tuple[MainMove, ...]:
        """The moves of the CFA edges leaving ``pc``."""
        moves = self._main_moves.get(pc)
        if moves is None:
            moves = tuple(MainMove(e) for e in self.cfa.out(pc))
            self._main_moves[pc] = moves
        return moves

    def enabled(
        self, state: AbsState
    ) -> tuple[tuple[MainMove, ...], tuple[CtxMove, ...]]:
        """The enabled main and context moves (the scheduler above).

        Exploration takes the main moves first, then the context moves
        of the occupied locations in increasing order.
        """
        occupied = state.context.occupied()
        atomic = self.acfa.atomic
        ctx_atomic = [q for q in occupied if q in atomic] if atomic else ()
        if state.pc in self.cfa.atomic:
            if ctx_atomic:
                return (), ()
            return self.main_moves(state.pc), ()
        if ctx_atomic:
            if len(ctx_atomic) > 1:
                return (), ()
            return (), self._ctx_moves[ctx_atomic[0]]
        ctx_moves = self._ctx_moves
        if len(occupied) == 1:
            return self.main_moves(state.pc), ctx_moves[occupied[0]]
        return self.main_moves(state.pc), tuple(
            move for q in occupied for move in ctx_moves[q]
        )

    def enabled_moves(self, state: AbsState) -> tuple[Move, ...]:
        """Every enabled move, in exploration order."""
        main, ctx = self.enabled(state)
        return main + ctx

    # -- the abstract post operator -----------------------------------------------------

    def begin(self, store: ArgStore) -> None:
        """Serve the following posts through ``store``.

        The successor table answers for one store, whose hit counters its
        hits stand in for, and for the abstractor's predicates: another
        store, or predicates the abstractor was extended to in place, start
        the table afresh.
        """
        if store is not self._store or self.abstractor.preds is not self._preds:
            self._successor = {}
            self._store = store
            self._preds = self.abstractor.preds

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
        self.begin(store)
        if isinstance(move, MainMove):
            return self.post_main(state, move, store)
        if isinstance(move, CtxMove):
            return self.post_ctx(state, move, store)
        raise TypeError(f"unknown move {move!r}")

    def post_main(
        self, state: AbsState, move: MainMove, store: ArgStore
    ) -> AbsState | None:
        """:meth:`post` of a main-thread move, after :meth:`begin`."""
        key = (state.region, move)
        region = self._successor.get(key)
        if region is None:
            region = store.post_main(self.abstractor, state.region, move.edge.op)
            self._successor[key] = region
        else:
            # The table answers what the store's memo would have.
            store.counters["main_post_hits"] += 1
        if region.bottom:
            return None
        return AbsState(move.edge.dst, region, state.context)

    def post_ctx(
        self, state: AbsState, move: CtxMove, store: ArgStore
    ) -> AbsState | None:
        """:meth:`post` of a context move, after :meth:`begin`."""
        key = (state.region, move)
        region = self._successor.get(key)
        if region is None:
            edge = move.edge
            region = store.post_havoc(
                self.abstractor,
                state.region,
                edge.havoc,
                self.acfa.label[edge.dst],
                self.acfa.label[edge.src],
            )
            self._successor[key] = region
        else:
            store.counters["ctx_post_hits"] += 1
        if region.bottom:
            return None
        edge = move.edge
        return AbsState(
            state.pc, region, state.context.move(edge.src, edge.dst, self.k)
        )

    # -- the race predicate (Section 4.1, lifted to abstract states) ------------------

    def is_race_state(self, state: AbsState, x: str) -> bool:
        """Two distinct threads have enabled accesses to ``x``, at least one
        a write, and no occupied location is atomic.

        Abstract context threads only write (havoc); their reads are empty,
        so every race needs a context writer: with a main-thread access,
        with a second writer location, or with two threads at one.
        """
        if state.pc in self.cfa.atomic:
            return False
        occupied = state.context.occupied()
        atomic = self.acfa.atomic
        if atomic and any(q in atomic for q in occupied):
            return False
        ctx_writers = [q for q in occupied if self.acfa.may_write(q, x)]
        if not ctx_writers:
            return False
        if len(ctx_writers) >= 2 or self.cfa.may_access(state.pc, x):
            return True
        return state.context.at_least_two(ctx_writers[0])
