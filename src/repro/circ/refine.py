"""Counterexample analysis and abstraction refinement (Section 5, Refine).

Given an abstract error trace of the thread-context program, Refine:

1. **Computes an interleaving** -- context moves are assigned to concrete
   thread identities by an exact token simulation over the context ACFA
   (a move out of a location holding no token, other than the initial
   location's unbounded pool, means the counter parameter was too small:
   increment ``k``).  Each thread's ACFA-edge sequence is then concretized
   into a CFA path by searching the abstract reachability graph the ACFA
   was minimized from: quotient edges are matched by member ARG edges
   (whose provenance records the originating CFA edges), and silent
   within-block moves may be interspersed freely.
2. **Analyzes the interleaving** -- the SSA trace formula (Figure 5) is
   checked for satisfiability.  A model yields a genuine interleaved race,
   validated by replay under the concrete semantics.  An unsatisfiable TF
   is mined for new predicates, either from Craig interpolants at every cut
   point (the "Abstractions from proofs" strategy) or from the atoms of the
   trace clauses (classic BLAST weakest-precondition atoms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Optional, Sequence

from ..acfa.acfa import Acfa, AcfaEdge
from ..cfa.cfa import CFA, AssumeOp, Edge
from ..cfa.ops import SsaBuilder, TraceStep, trace_formula
from ..context.state import AbsState, CtxMove, MainMove, Move
from ..smt import terms as T
from ..smt.interpolate import sequence_interpolants
from ..smt.solver import get_model
from ..reach import ReachResult

__all__ = [
    "RefinementFailure",
    "RealRace",
    "Refinement",
    "ConcretizedTrace",
    "is_degenerate",
    "refine",
]

MiningStrategy = Literal["interpolants", "wp-atoms"]

#: Cap on the number of candidate interleavings tried per abstract trace.
MAX_CANDIDATES = 64


class RefinementFailure(RuntimeError):
    """Refine could not make progress (no new predicates, no counter bump)."""


@dataclass
class RealRace:
    """A genuine concrete counterexample."""

    steps: list[tuple[int, Edge]]  # (thread id, CFA edge); 0 = main
    model: dict[str, int]
    n_threads: int


@dataclass
class Refinement:
    """The trace was spurious; refined abstraction parameters."""

    new_predicates: list[T.Term]
    new_k: int
    reason: str = ""


@dataclass
class ConcretizedTrace:
    """An interleaved candidate trace plus its trace formula."""

    steps: list[tuple[int, Edge]]
    clauses: list[T.Term]
    groups: list[list[T.Term]]
    ssa: SsaBuilder
    n_threads: int


# ---------------------------------------------------------------------------
# Step 1: token simulation + per-thread concretization
# ---------------------------------------------------------------------------


class _CounterTooLow(Exception):
    pass


def _assign_threads(
    trace: Sequence[Move], acfa: Acfa
) -> tuple[
    list[Optional[int]],
    dict[int, list[int]],
    dict[int, int],
    dict[int, int],
]:
    """Assign each context move to a thread id (1-based; 0 is main).

    Returns (owner per trace index, per-thread move indices, final location
    per thread, minting entry per thread).  New threads are minted from the
    unbounded pool of any entry location (symmetric programs have one
    entry; asymmetric unions have one per template).  Raises _CounterTooLow
    when a move fires from a location holding no token and no pool.
    """
    position: dict[int, int] = {}
    owner: list[Optional[int]] = [None] * len(trace)
    moves_of: dict[int, list[int]] = {}
    entry_of: dict[int, int] = {}
    next_tid = 1
    for i, move in enumerate(trace):
        if not isinstance(move, CtxMove):
            continue
        src, dst = move.edge.src, move.edge.dst
        tid = None
        for cand in sorted(position):
            if position[cand] == src:
                tid = cand
                break
        if tid is None:
            if src not in acfa.entries:
                raise _CounterTooLow()
            tid = next_tid
            next_tid += 1
            moves_of[tid] = []
            entry_of[tid] = src
        position[tid] = dst
        owner[i] = tid
        moves_of.setdefault(tid, []).append(i)
    return owner, moves_of, position, entry_of


@dataclass
class _PathStep:
    cfa_edge: Edge
    consumes: Optional[int]  # index into the thread's abstract move list


def _concretize_thread(
    abstract_edges: Sequence[AcfaEdge],
    arg: Acfa,
    provenance: dict[tuple[int, int], frozenset[Edge]],
    arg_pc: dict[int, int],
    mu: dict[int, int],
    locals_: frozenset[str],
    final_ok: Callable[[int], bool],
    limit: int = 8,
) -> list[list[_PathStep]]:
    """CFA paths through the ARG realizing the abstract edge sequence.

    DFS over (consumed-count, ARG location); member edges consume the next
    abstract edge, silent within-block edges are free moves, and every
    provenance CFA edge is a distinct branch choice.  ``final_ok`` filters
    acceptable final ARG locations (e.g. the racing thread must end at a pc
    that writes the race variable).  Up to ``limit`` distinct paths are
    returned (shorter first), so the caller can fall back to an alternative
    branch when the first concretization is data-infeasible.
    """
    m = len(abstract_edges)
    results: list[list[_PathStep]] = []
    if m == 0 and final_ok(arg.q0):
        results.append([])

    # Iterative DFS with per-path visited set (prevents silent-cycle loops
    # while still allowing different paths through the same node).
    def dfs(i: int, g: int, path: list[_PathStep], visited: frozenset):
        if len(results) >= limit:
            return
        if i == m and final_ok(g) and path:
            results.append(list(path))
            if len(results) >= limit:
                return
        for e in arg.out(g):
            prov = provenance.get((e.src, e.dst), frozenset())
            silent = mu[e.src] == mu[e.dst] and not (e.havoc - locals_)
            moves: list[int] = []
            if silent:
                moves.append(i)
            if i < m:
                ae = abstract_edges[i]
                if mu[e.src] == ae.src and mu[e.dst] == ae.dst:
                    moves.append(i + 1)
            for ni in moves:
                node = (ni, e.dst)
                if node in visited:
                    continue
                for cfa_edge in sorted(prov, key=str):
                    path.append(
                        _PathStep(cfa_edge, ni - 1 if ni > i else None)
                    )
                    dfs(ni, e.dst, path, visited | {node})
                    path.pop()
                    if len(results) >= limit:
                        return

    dfs(0, arg.q0, [], frozenset({(0, arg.q0)}))
    results.sort(key=len)
    return results


# ---------------------------------------------------------------------------
# Step 2: trace formula and analysis
# ---------------------------------------------------------------------------


def _build_interleaving(
    trace: Sequence[Move],
    owner: Sequence[Optional[int]],
    thread_paths: dict[int, list[_PathStep]],
    moves_of: dict[int, list[int]],
) -> list[tuple[int, Edge]]:
    """Merge main moves and concretized context paths, placing silent steps
    adjacent to the abstract move they precede (or, for trailing steps,
    follow)."""
    # For each thread, bucket its path steps around its abstract moves.
    before: dict[tuple[int, int], list[Edge]] = {}
    trailing: dict[int, list[Edge]] = {}
    for tid, path in thread_paths.items():
        consumed = -1
        pending: list[Edge] = []
        for step in path:
            if step.consumes is None:
                pending.append(step.cfa_edge)
            else:
                consumed = step.consumes
                pending.append(step.cfa_edge)
                before[(tid, consumed)] = pending
                pending = []
        trailing[tid] = pending

    steps: list[tuple[int, Edge]] = []
    per_thread_count: dict[int, int] = {}
    for i, move in enumerate(trace):
        if isinstance(move, MainMove):
            steps.append((0, move.edge))
            continue
        tid = owner[i]
        assert tid is not None
        j = per_thread_count.get(tid, 0)
        per_thread_count[tid] = j + 1
        for edge in before.get((tid, j), []):
            steps.append((tid, edge))
        if j == len(moves_of[tid]) - 1:
            for edge in trailing.get(tid, []):
                steps.append((tid, edge))
    # Stationary participants (no abstract moves) run their silent paths at
    # the end, just before the race state.
    for tid, move_indices in moves_of.items():
        if not move_indices:
            for edge in trailing.get(tid, []):
                steps.append((tid, edge))
    return steps


def _initial_clauses(
    cfa: CFA,
    n_threads: int,
    ssa: SsaBuilder,
    locals_by_thread: dict[int, frozenset[str]] | None = None,
) -> list[T.Term]:
    """Clauses pinning every SSA version-0 variable to its initial value."""
    clauses = []
    for g in sorted(cfa.globals):
        clauses.append(
            T.eq(T.var(ssa.current(0, g)), T.num(cfa.global_init.get(g, 0)))
        )
    for tid in range(n_threads):
        locs = (
            locals_by_thread.get(tid, cfa.locals)
            if locals_by_thread
            else cfa.locals
        )
        for loc in sorted(locs):
            clauses.append(T.eq(T.var(ssa.current(tid, loc)), T.num(0)))
    return clauses


def build_trace_formula(
    cfa: CFA,
    steps: Sequence[tuple[int, Edge]],
    n_threads: int,
    locals_by_thread: dict[int, frozenset[str]] | None = None,
) -> ConcretizedTrace:
    """The SSA trace formula of an interleaving, grouped per step.

    ``locals_by_thread`` overrides the per-thread local-variable sets for
    asymmetric programs (thread 0 defaults to ``cfa``'s locals).
    """
    trace_steps = [TraceStep(tid, e.op) for tid, e in steps]
    clauses, ssa_used = trace_formula(trace_steps, cfa.globals)
    # Rebuild with init clauses in front; recompute with a fresh builder so
    # version numbering is shared.
    ssa = SsaBuilder(cfa.globals)
    init = _initial_clauses(cfa, n_threads, ssa, locals_by_thread)
    groups: list[list[T.Term]] = [init]
    all_clauses = list(init)
    for ts in trace_steps:
        op = ts.op
        if isinstance(op, AssumeOp):
            clause = ssa.rename_term(ts.thread, op.pred)
        else:
            rhs = ssa.rename_term(ts.thread, op.rhs)
            lhs = ssa.bump(ts.thread, op.lhs)
            clause = T.eq(T.var(lhs), rhs)
        groups.append([clause])
        all_clauses.append(clause)
    return ConcretizedTrace(
        steps=list(steps),
        clauses=all_clauses,
        groups=groups,
        ssa=ssa,
        n_threads=n_threads,
    )


def _atoms_in_order(t: T.Term) -> list[T.Term]:
    """The atoms of ``t`` sorted by their text.

    :func:`repro.smt.terms.atoms` is a frozenset, whose order follows the
    string hashes of variable names and so changes with the process's hash
    seed; mined predicates, and everything downstream, must not.
    """
    return sorted(T.atoms(t), key=repr)


def _mine_interpolants(ct: ConcretizedTrace) -> list[T.Term]:
    itps = sequence_interpolants(ct.groups)
    if itps is None:
        return []
    preds: list[T.Term] = []
    for itp in itps:
        for atom in _atoms_in_order(itp):
            preds.append(SsaBuilder.unrename_term(atom))
    return preds


def _mine_wp_atoms(ct: ConcretizedTrace) -> list[T.Term]:
    preds: list[T.Term] = []
    n_init = len(ct.groups[0])
    used: set[str] = set()
    for clause in ct.clauses[n_init:]:
        used.update(T.free_vars(clause))
        for atom in _atoms_in_order(clause):
            preds.append(SsaBuilder.unrename_term(atom))
    # Initial-value atoms matter when the trace reads a variable's initial
    # value (e.g. assertions over initialized globals); restrict to the
    # variables the trace actually touches to avoid noise.
    for clause in ct.clauses[:n_init]:
        if T.free_vars(clause) & used:
            for atom in _atoms_in_order(clause):
                preds.append(SsaBuilder.unrename_term(atom))
    return preds


def is_degenerate(p: T.Term) -> bool:
    """True for atoms that are valid or unsatisfiable on their own, e.g.
    the ``x == x+1`` artifacts of un-SSA-ing an assignment clause.

    Degenerate atoms refine nothing -- both polarities of a real
    predicate must be satisfiable for it to split an abstract state.
    Their absence from refinements is also what the incremental ArgStore's
    support-based subtree invalidation relies on: a degenerate predicate
    would add a literal even to posts over disjoint variables, forcing a
    full memo drop instead of a frontier re-exploration.
    """
    from ..smt.solver import is_sat_conjunction

    return not is_sat_conjunction([p]) or not is_sat_conjunction(
        [T.not_(p)]
    )


def _useful_predicates(
    candidates: Iterable[T.Term], existing: Iterable[T.Term]
) -> list[T.Term]:
    from ..smt.profile import stage
    from ..smt.simplify import fold_constants

    known = set(existing)
    out: list[T.Term] = []
    with stage("refine"):
        for p in candidates:
            p = fold_constants(p)
            if not isinstance(p, T.Cmp):
                continue
            if not T.free_vars(p):
                continue
            if p in known or T.not_(p) in known:
                continue
            if is_degenerate(p):
                continue
            known.add(p)
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# The Refine procedure
# ---------------------------------------------------------------------------


def refine(
    cfa: CFA,
    race_on: str | None,
    trace: Sequence[Move],
    final_state: AbsState,
    acfa: Acfa,
    prev_reach: Optional[ReachResult],
    mu: dict[int, int],
    k: int,
    existing_preds: Iterable[T.Term],
    strategy: MiningStrategy = "wp-atoms",
) -> RealRace | Refinement:
    """Analyze an abstract counterexample (paper procedure Refine).

    ``prev_reach``/``mu`` describe the ARG the context ACFA was minimized
    from (None when the context is the empty ACFA, which has no moves).
    """
    # ---- interleaving computation --------------------------------------
    try:
        owner, moves_of, final_pos, entry_of = _assign_threads(trace, acfa)
    except _CounterTooLow:
        return Refinement([], k + 1, reason="counter too low")

    # Race participants that never moved: threads from the initial pool can
    # take part in the race while still 'at' the context start location
    # (e.g. a bare unprotected write reachable by silent steps only).  Mint
    # stationary thread ids for unfilled roles at the start location.
    if race_on is not None and prev_reach is not None:
        needed = _missing_start_participants(
            cfa, race_on, final_state, acfa, final_pos
        )
        for _ in range(needed):
            tid = max(moves_of, default=0) + 1
            moves_of[tid] = []
            final_pos[tid] = acfa.q0
            entry_of[tid] = acfa.q0

    candidates: dict[int, list[list[_PathStep]]] = {}
    if moves_of:
        assert prev_reach is not None, "context moves need a concretizable ACFA"
        finals = _race_role_conditions(
            cfa, race_on, final_state, acfa, final_pos, prev_reach
        )
        for tid, move_indices in moves_of.items():
            abstract_edges = [trace[i].edge for i in move_indices]
            paths = _concretize_thread(
                abstract_edges,
                prev_reach.arg,
                prev_reach.provenance,
                prev_reach.arg_pc,
                mu,
                cfa.locals,
                finals.get(tid, lambda g: True),
            )
            if not paths:
                # The quotient admits an edge sequence its members cannot
                # realize -- treat like an imprecise counter/context and
                # weaken by raising k (forces re-exploration with a finer
                # context on the next round).
                return Refinement(
                    [], k + 1, reason="abstract trace has no ARG realization"
                )
            candidates[tid] = paths

    # ---- feasibility across candidate concretizations ---------------------
    import itertools

    n_threads = 1 + len(moves_of)
    tids = sorted(candidates)
    tried: list[ConcretizedTrace] = []
    combos = itertools.islice(
        itertools.product(*(candidates[t] for t in tids)), MAX_CANDIDATES
    )
    if not tids:
        combos = iter([()])
    for combo in combos:
        thread_paths = dict(zip(tids, combo))
        steps = _build_interleaving(trace, owner, thread_paths, moves_of)
        ct = build_trace_formula(cfa, steps, n_threads)
        model = get_model(T.and_(*ct.clauses))
        if model is not None:
            return RealRace(steps=steps, model=model, n_threads=n_threads)
        tried.append(ct)

    # ---- predicate mining (union across the spurious candidates) -----------
    strategies = (
        [_mine_interpolants, _mine_wp_atoms]
        if strategy == "interpolants"
        else [_mine_wp_atoms, _mine_interpolants]
    )
    for miner in strategies:
        mined: list[T.Term] = []
        for ct in tried:
            mined.extend(miner(ct))
        new = _useful_predicates(mined, existing_preds)
        if new:
            return Refinement(new, k, reason=f"mined by {miner.__name__}")
    raise RefinementFailure(
        "spurious abstract trace but no new predicates were found"
    )


def _race_role_conditions(
    cfa: CFA,
    race_on: str | None,
    final_state: AbsState,
    acfa: Acfa,
    final_pos: dict[int, int],
    prev_reach: ReachResult,
) -> dict[int, Callable[[int], bool]]:
    """Final-location requirements for the racing context threads.

    The race at the final abstract state names the participating context
    locations; the concretized threads ending there must reach a CFA pc
    with the corresponding access actually enabled.
    """
    if race_on is None:
        return {}
    x = race_on
    arg_pc = prev_reach.arg_pc

    def writer_ok(g: int) -> bool:
        return cfa.may_write(arg_pc[g], x)

    def accessor_ok(g: int) -> bool:
        return cfa.may_access(arg_pc[g], x)

    main_accesses = cfa.may_access(final_state.pc, x)
    writer_locs = [
        q
        for q in final_state.context.occupied()
        if acfa.may_write(q, x)
    ]

    conditions: dict[int, Callable[[int], bool]] = {}
    if main_accesses and writer_locs:
        # One context thread must be a writer.
        tid = _tid_at(final_pos, writer_locs)
        if tid is not None:
            conditions[tid] = writer_ok
        return conditions
    if len(writer_locs) >= 1:
        # Need two context participants: a writer plus a writer/accessor.
        tid1 = _tid_at(final_pos, writer_locs)
        if tid1 is not None:
            conditions[tid1] = writer_ok
            remaining = {
                t: loc for t, loc in final_pos.items() if t != tid1
            }
            tid2 = _tid_at(remaining, writer_locs)
            if tid2 is not None:
                conditions[tid2] = writer_ok
    return conditions


def _tid_at(positions: dict[int, int], locations: list[int]) -> Optional[int]:
    for tid in sorted(positions):
        if positions[tid] in locations:
            return tid
    return None


def _missing_start_participants(
    cfa: CFA,
    x: str,
    final_state: AbsState,
    acfa: Acfa,
    final_pos: dict[int, int],
) -> int:
    """How many race participants must be minted from the start pool.

    The abstract race may involve context threads that never moved (the
    OMEGA pool at the ACFA start location); they have no trace moves, so the
    token simulation does not see them.  They can participate only when the
    start location itself write-enables ``x``.
    """
    if not acfa.may_write(acfa.q0, x):
        return 0
    ctx = final_state.context
    if acfa.q0 not in set(ctx.occupied()):
        return 0
    main_participates = cfa.may_access(final_state.pc, x)
    writer_locs = [
        q for q in ctx.occupied() if acfa.may_write(q, x)
    ]
    required = 1 if main_participates else 2
    available = sum(
        1 for tid in final_pos if final_pos[tid] in writer_locs
    )
    return max(0, required - available)
