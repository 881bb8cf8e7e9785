"""The abstract reachability graph under construction (Algorithms 2-4).

``ArgBuilder`` is the union-find-backed ARG the exploration loop grows:
procedure ``Connect`` adds an edge per main-thread operation and procedure
``Union`` unifies the endpoints of environment moves (condition (4) of the
ARG definition requires ``f(s) = f(s')`` across environment edges).
``export`` freezes the graph into an :class:`~repro.acfa.acfa.Acfa` plus
the provenance map the refinement procedure needs to concretize context
operations back into CFA paths.

This module holds the pure data layer of the incremental reachability
framework; the worklist itself lives in :mod:`repro.reach.explore` and the
cross-iteration persistence in :mod:`repro.reach.store`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..acfa.acfa import Acfa, AcfaEdge
from ..cfa.cfa import CFA, AssignOp, Edge
from ..context.counters import ContextState
from ..context.state import AbsState, Move
from ..predabs.region import PredicateSet, Region

__all__ = [
    "AbstractRaceFound",
    "ReachBudgetExceeded",
    "ReachResult",
    "ArgBuilder",
    "ThreadState",
]

#: A thread state of the main thread: (control location, region).
ThreadState = tuple[int, Region]


class AbstractRaceFound(Exception):
    """Raised by the exploration when an abstract error state is reached.

    ``trace`` is the interleaved abstract trace from the initial state:
    a list of moves, each a MainMove (CFA edge) or CtxMove (ACFA edge).
    """

    def __init__(self, trace: list[Move], state: AbsState):
        super().__init__(f"abstract race after {len(trace)} steps")
        self.trace = trace
        self.state = state


class ReachBudgetExceeded(RuntimeError):
    """The abstract state space exceeded the exploration budget."""


class ArgBuilder:
    """Incremental ARG with union-find location merging."""

    def __init__(self, cfa: CFA, preds: PredicateSet):
        self.cfa = cfa
        self.preds = preds
        self._parent: list[int] = []
        self._state_loc: dict[ThreadState, int] = {}
        self._members: dict[int, set[ThreadState]] = {}
        self._pc: dict[int, int] = {}
        # (src_root, dst_root) -> (havoc set, provenance CFA edges); roots
        # are canonicalized lazily at export.
        self._edges: dict[tuple[int, int], tuple[set[str], set[Edge]]] = {}
        # location -> context edges enabled there; canonicalized at export.
        self._enabled: dict[int, set[AcfaEdge]] = {}
        self.q0: Optional[int] = None

    # -- union-find --------------------------------------------------------------

    def _find_root(self, loc: int) -> int:
        root = loc
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[loc] != root:
            self._parent[loc], loc = root, self._parent[loc]
        return root

    # -- Algorithm Find ------------------------------------------------------------

    def find(self, ts: ThreadState) -> int:
        """Location containing the thread state, or a fresh one."""
        loc = self._state_loc.get(ts)
        if loc is not None:
            return self._find_root(loc)
        loc = len(self._parent)
        self._parent.append(loc)
        self._state_loc[ts] = loc
        self._members[loc] = {ts}
        self._pc[loc] = ts[0]
        return loc

    # -- Algorithm Union -------------------------------------------------------------

    def union(self, a: int, b: int) -> int:
        ra, rb = self._find_root(a), self._find_root(b)
        if ra == rb:
            return ra
        if self._pc[ra] != self._pc[rb]:
            raise AssertionError(
                "environment moves never change the main thread's pc"
            )
        # Merge smaller into larger.
        if len(self._members[ra]) < len(self._members[rb]):
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._members[ra].update(self._members.pop(rb))
        return ra

    # -- Algorithm Connect ---------------------------------------------------------------

    def connect_main(self, src: int, edge: Edge, dst: ThreadState) -> None:
        """Record a main-thread operation from location ``src`` (a value
        :meth:`find` returned) to the location of ``dst``."""
        b = self.find(dst)
        if isinstance(edge.op, AssignOp):
            havoc = {edge.op.lhs}
        else:
            havoc = set()
        key = (self._find_root(src), b)
        entry = self._edges.get(key)
        if entry is None:
            self._edges[key] = (set(havoc), {edge})
        else:
            entry[0].update(havoc)
            entry[1].add(edge)

    def connect_ctx(self, src: int, dst: ThreadState) -> None:
        """An environment move: unify location ``src`` with ``dst``'s."""
        self.union(src, self.find(dst))

    def enable_ctx(self, loc: int, edges: Iterable[AcfaEdge]) -> None:
        """Record context edges enabled at location ``loc``."""
        self._enabled.setdefault(loc, set()).update(edges)

    def set_initial(self, ts: ThreadState) -> None:
        self.q0 = self.find(ts)

    # -- export -------------------------------------------------------------------------

    def export(self, name: str = "arg") -> tuple[
        Acfa,
        dict[tuple[int, int], frozenset[Edge]],
        dict[int, int],
        dict[ThreadState, int],
        dict[int, set[AcfaEdge]],
    ]:
        """Freeze into an ACFA plus the per-location data of a
        :class:`ReachResult`: edge provenance, each location's pc, each
        thread state's location and the context edges enabled at each
        location, all over the ACFA's numbering.

        Location labels are the cartesian hull of the member thread states'
        regions (the literals common to every member) -- a sound
        over-approximation of the disjunction the paper's R map denotes.
        """
        assert self.q0 is not None, "set_initial was never called"
        root_of = [self._find_root(l) for l in range(len(self._parent))]
        roots = sorted(set(root_of))
        renum = {root: i for i, root in enumerate(roots)}
        number = [renum[root] for root in root_of]

        label: dict[int, tuple] = {}
        atomic: set[int] = set()
        for root in roots:
            members = self._members[root]
            common = None
            for (pc, region) in members:
                lits = set(region.literal_terms(self.preds))
                common = lits if common is None else (common & lits)
            label[renum[root]] = tuple(
                sorted(common or (), key=lambda t: repr(t))
            )
            if self.cfa.is_atomic(self._pc[root]):
                atomic.add(renum[root])

        merged_edges: dict[tuple[int, int], tuple[set[str], set[Edge]]] = {}
        for (a, b), (havoc, prov) in self._edges.items():
            ra, rb = number[a], number[b]
            entry = merged_edges.get((ra, rb))
            if entry is None:
                merged_edges[(ra, rb)] = (set(havoc), set(prov))
            else:
                entry[0].update(havoc)
                entry[1].update(prov)

        acfa = Acfa(
            name=name,
            q0=number[self.q0],
            locations=renum.values(),
            label=label,
            edges=[
                AcfaEdge(src, frozenset(h), dst)
                for (src, dst), (h, _) in merged_edges.items()
            ],
            atomic=atomic,
        )
        provenance = {
            key: frozenset(prov)
            for key, (_, prov) in merged_edges.items()
        }
        arg_pc = {renum[root]: self._pc[root] for root in roots}
        state_location = {ts: number[loc] for ts, loc in self._state_loc.items()}
        enabled: dict[int, set[AcfaEdge]] = {}
        for loc, edges in self._enabled.items():
            enabled.setdefault(number[loc], set()).update(edges)
        return acfa, provenance, arg_pc, state_location, enabled


@dataclass
class ReachResult:
    """Outcome of a completed (race-free) reachability run."""

    arg: Acfa
    provenance: dict[tuple[int, int], frozenset[Edge]]
    arg_pc: dict[int, int]
    states_explored: int
    reachable_contexts: set[ContextState]
    enabled_ctx_edges: dict[int, set[AcfaEdge]]
    state_location: dict[ThreadState, int]
