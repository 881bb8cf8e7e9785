"""CIRC for asymmetric thread sets.

Section 2.3 of the paper: "In general, our algorithm requires that each of
the threads be running one of finitely many pieces of code, and that the
threads do not reference each other."  The formal development treats the
symmetric case for clarity; this module implements the general one.

The multithreaded program runs arbitrarily many copies of each of several
thread *templates*.  The context model is the **disjoint union** of one
ACFA per template, with one unbounded (OMEGA) pool per template entry.
The assume-guarantee loop runs each template in the 'main' role against
the shared union context; the guarantee requires every template's ARG to
be simulated by its own component of the union.  Refinement works on the
union: the token simulation mints threads from any entry, and each
context thread is concretized through the ARG of *its* template.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..acfa.acfa import Acfa, AcfaEdge, empty_acfa
from ..acfa.collapse import project_acfa
from ..acfa.simulate import simulation_relation
from ..cfa.cfa import CFA, Edge
from ..context.state import AbstractProgram
from ..exec.interp import MultiProgram, replay
from ..predabs.region import PredicateSet
from ..reach import ArgStore
from ..smt import terms as T
from ..smt.solver import is_sat
from .circ import CircError
from ..reach import (
    AbstractRaceFound,
    ReachBudgetExceeded,
    ReachResult,
    reach_and_build,
)
from .refine import (
    MAX_CANDIDATES,
    RefinementFailure,
    _assign_threads,
    _build_interleaving,
    _concretize_thread,
    _CounterTooLow,
    _mine_interpolants,
    _mine_wp_atoms,
    _useful_predicates,
    build_trace_formula,
)
from .result import CircStats, CircUnknown

__all__ = ["MultiSafe", "MultiUnsafe", "circ_multi"]


@dataclass
class MultiSafe:
    """Every template composition is race-free on the variable."""

    variable: str
    templates: tuple[str, ...]
    predicates: dict[str, tuple[T.Term, ...]]
    contexts: dict[str, Acfa]
    stats: CircStats

    @property
    def safe(self) -> bool:
        return True


@dataclass
class MultiUnsafe:
    """A genuine race; ``template_of`` names each thread's code."""

    variable: str
    steps: list[tuple[int, Edge]]
    template_of: dict[int, str]
    stats: CircStats

    @property
    def safe(self) -> bool:
        return False

    @property
    def n_threads(self) -> int:
        return len(self.template_of)


@dataclass
class _Union:
    """A disjoint union of per-template context ACFAs."""

    acfa: Acfa
    offsets: list[int]
    entry_of_template: list[int]

    def template_of_location(self, loc: int) -> int:
        for i in reversed(range(len(self.offsets))):
            if loc >= self.offsets[i]:
                return i
        raise ValueError(loc)


def _union_contexts(contexts: Sequence[Acfa]) -> _Union:
    offsets: list[int] = []
    locations: list[int] = []
    label: dict[int, tuple] = {}
    edges: list[AcfaEdge] = []
    atomic: list[int] = []
    entries: list[int] = []
    next_id = 0
    for ctx in contexts:
        offsets.append(next_id)
        renum = {q: next_id + i for i, q in enumerate(sorted(ctx.locations))}
        next_id += len(ctx.locations)
        for q in ctx.locations:
            locations.append(renum[q])
            label[renum[q]] = ctx.label[q]
            if ctx.is_atomic(q):
                atomic.append(renum[q])
        for e in ctx.edges:
            edges.append(AcfaEdge(renum[e.src], e.havoc, renum[e.dst]))
        entries.append(renum[ctx.q0])
    acfa = Acfa(
        name="union",
        q0=entries[0],
        locations=locations,
        label=label,
        edges=edges,
        atomic=atomic,
        entries=entries,
    )
    return _Union(acfa=acfa, offsets=offsets, entry_of_template=entries)


def _simulated_by_component(
    arg: Acfa, union: _Union, template: int, locals_: frozenset[str]
) -> bool:
    projected = project_acfa(arg, locals_)
    rel = simulation_relation(projected, union.acfa)
    return (projected.q0, union.entry_of_template[template]) in rel


def circ_multi(
    templates: dict[str, CFA],
    race_on: str,
    k: int = 1,
    strategy: str = "wp-atoms",
    max_outer: int = 40,
    max_inner: int = 40,
    max_states: int = 500_000,
) -> MultiSafe | MultiUnsafe | CircUnknown:
    """Check races on ``race_on`` over arbitrarily many copies of *each*
    template running concurrently.

    Like :func:`~repro.circ.circ.circ`, every way of giving up --
    running out of ``max_outer``, ``max_inner`` or ``max_states``, or a
    refinement that finds no new predicate -- returns a
    :class:`~repro.circ.result.CircUnknown` (its predicates are every
    template's, in template order).

    One :class:`~repro.reach.store.ArgStore` per template reuses abstract
    posts and collapse quotients across inner iterations and refinement
    restarts exactly like :func:`~repro.circ.circ.circ`.
    """
    if not templates:
        raise ValueError("need at least one thread template")
    names = list(templates)
    cfas = [templates[n] for n in names]
    globals0 = cfas[0].globals
    for c in cfas[1:]:
        if c.globals != globals0:
            raise ValueError("templates must share the global variables")
        if c.global_init != cfas[0].global_init:
            raise ValueError("templates disagree on initial global values")

    start_time = time.perf_counter()
    stats = CircStats(final_k=k)
    preds = [PredicateSet() for _ in names]
    stores = [ArgStore() for _ in names]

    def finalize_reuse() -> None:
        merged: dict[str, int] = {}
        for s in stores:
            for key, value in s.reuse_stats().items():
                merged[key] = merged.get(key, 0) + value
        stats.reuse = merged

    def give_up(reason: str) -> CircUnknown:
        stats.elapsed_seconds = time.perf_counter() - start_time
        stats.final_k = k
        finalize_reuse()
        return CircUnknown(
            variable=race_on,
            reason=reason,
            predicates=tuple(p for ps in preds for p in ps),
            stats=stats,
        )

    for outer in range(1, max_outer + 1):
        stats.outer_iterations = outer
        contexts = [empty_acfa(f"ctx:{n}") for n in names]
        mus: list[dict[int, int]] = [{} for _ in names]
        prev: list[Optional[ReachResult]] = [None for _ in names]
        abstractors = [
            stores[i].abstractor_for(p, "cartesian")
            for i, p in enumerate(preds)
        ]
        refined = False

        for inner in range(1, max_inner + 1):
            stats.inner_iterations += 1
            union = _union_contexts(contexts)
            reaches: list[ReachResult] = []
            race: Optional[tuple[int, AbstractRaceFound]] = None
            for i, cfa in enumerate(cfas):
                program = AbstractProgram(
                    cfa, abstractors[i], union.acfa, k
                )
                try:
                    reaches.append(
                        reach_and_build(
                            program,
                            race_on=race_on,
                            max_states=max_states,
                            store=stores[i],
                        )
                    )
                except AbstractRaceFound as exc:
                    race = (i, exc)
                    break
                except ReachBudgetExceeded as exc:
                    return give_up(str(exc))
            if race is not None:
                main_i, exc = race
                try:
                    outcome = _refine_multi(
                        names,
                        cfas,
                        main_i,
                        race_on,
                        exc,
                        union,
                        contexts,
                        prev,
                        mus,
                        k,
                        preds,
                        strategy,
                    )
                except RefinementFailure as stalled:
                    return give_up(str(stalled))
                if isinstance(outcome, MultiUnsafe):
                    order = sorted(outcome.template_of)
                    mp = MultiProgram(
                        [templates[outcome.template_of[t]] for t in order]
                    )
                    remap = {t: j for j, t in enumerate(order)}
                    steps = [(remap[t], e) for t, e in outcome.steps]
                    ok, _ = replay(mp, steps, race_on=race_on)
                    if not ok:
                        raise CircError("multi-template witness failed replay")
                    outcome.stats = stats
                    stats.elapsed_seconds = (
                        time.perf_counter() - start_time
                    )
                    finalize_reuse()
                    return outcome
                new_preds, new_k = outcome
                for i, extra in enumerate(new_preds):
                    preds[i] = preds[i].extended(extra)
                k = new_k
                refined = True
                break

            stats.abstract_states += sum(
                r.states_explored for r in reaches
            )
            if all(
                _simulated_by_component(
                    reaches[i].arg, union, i, cfas[i].locals
                )
                for i in range(len(cfas))
            ):
                stats.elapsed_seconds = time.perf_counter() - start_time
                stats.final_k = k
                finalize_reuse()
                return MultiSafe(
                    variable=race_on,
                    templates=tuple(names),
                    predicates={
                        n: tuple(preds[i]) for i, n in enumerate(names)
                    },
                    contexts={
                        n: contexts[i] for i, n in enumerate(names)
                    },
                    stats=stats,
                )
            new_contexts = []
            for i, r in enumerate(reaches):
                ctx, mu = stores[i].collapse_quotient(
                    r.arg, cfas[i].locals, name=f"ctx:{names[i]}"
                )
                new_contexts.append(ctx)
                mus[i] = mu
                prev[i] = r
            contexts = new_contexts
        else:
            return give_up(
                f"multi-template inner loop did not converge in {max_inner}"
            )
        if not refined:
            raise CircError("inner loop exited without refinement")
    return give_up(f"no verdict after {max_outer} outer iterations")


def _refine_multi(
    names: list[str],
    cfas: list[CFA],
    main_i: int,
    race_on: str,
    exc: AbstractRaceFound,
    union: _Union,
    contexts: list[Acfa],
    prev: list[Optional[ReachResult]],
    mus: list[dict[int, int]],
    k: int,
    preds: list[PredicateSet],
    strategy: str,
):
    """Refine an abstract race of template ``main_i`` against the union.

    Returns MultiUnsafe for a genuine race, or (per-template new predicate
    lists, new k) for a refinement.
    """
    trace = exc.trace
    try:
        owner, moves_of, final_pos, entry_of = _assign_threads(
            trace, union.acfa
        )
    except _CounterTooLow:
        return [[] for _ in names], k + 1

    # Stationary participants from any entry whose pool can race.
    final_state = exc.state
    main_cfa = cfas[main_i]
    if race_on is not None:
        main_participates = main_cfa.may_access(final_state.pc, race_on)
        writers = [
            q
            for q in final_state.context.occupied()
            if union.acfa.may_write(q, race_on)
        ]
        available = sum(1 for t in final_pos if final_pos[t] in writers)
        required = 1 if main_participates else 2
        for entry in union.entry_of_template:
            if available >= required:
                break
            if union.acfa.may_write(entry, race_on) and entry in set(
                final_state.context.occupied()
            ):
                tid = max(moves_of, default=0) + 1
                moves_of[tid] = []
                final_pos[tid] = entry
                entry_of[tid] = entry
                available += 1

    # Concretize each context thread through its template's ARG.
    candidates: dict[int, list] = {}
    template_of: dict[int, int] = {0: main_i}
    for tid, move_indices in moves_of.items():
        t_i = union.template_of_location(entry_of[tid])
        template_of[tid] = t_i
        reach_i = prev[t_i]
        if reach_i is None:
            return [[] for _ in names], k + 1
        # mu into union coordinates.
        offset_map = {
            g: _component_to_union(mus[t_i][g], contexts[t_i], union, t_i)
            for g in mus[t_i]
        }
        abstract_edges = [trace[j].edge for j in move_indices]
        cfa_t = cfas[t_i]

        def final_ok(g, _reach=reach_i, _cfa=cfa_t, _tid=tid):
            if race_on is None:
                return True
            if final_pos[_tid] in {
                q
                for q in final_state.context.occupied()
                if union.acfa.may_write(q, race_on)
            }:
                return _cfa.may_write(_reach.arg_pc[g], race_on)
            return True

        paths = _concretize_thread(
            abstract_edges,
            reach_i.arg,
            reach_i.provenance,
            reach_i.arg_pc,
            offset_map,
            cfa_t.locals,
            final_ok,
        )
        if not paths:
            return [[] for _ in names], k + 1
        candidates[tid] = paths

    import itertools

    tids = sorted(candidates)
    locals_by_thread = {
        tid: cfas[template_of[tid]].locals for tid in template_of
    }
    n_threads = 1 + len(moves_of)
    tried = []
    combos = (
        itertools.islice(
            itertools.product(*(candidates[t] for t in tids)),
            MAX_CANDIDATES,
        )
        if tids
        else iter([()])
    )
    for combo in combos:
        thread_paths = dict(zip(tids, combo))
        steps = _build_interleaving(trace, owner, thread_paths, moves_of)
        ct = build_trace_formula(
            main_cfa, steps, n_threads, locals_by_thread
        )
        if is_sat(T.and_(*ct.clauses)):
            return MultiUnsafe(
                variable=race_on,
                steps=steps,
                template_of={
                    t: names[template_of[t]] for t in template_of
                },
                stats=CircStats(),
            )
        tried.append(ct)

    # Mining: distribute atoms to the templates whose variables they use.
    miners = (
        [_mine_interpolants, _mine_wp_atoms]
        if strategy == "interpolants"
        else [_mine_wp_atoms, _mine_interpolants]
    )
    globals0 = cfas[0].globals
    for miner in miners:
        mined: list[T.Term] = []
        for ct in tried:
            mined.extend(miner(ct))
        per_template: list[list[T.Term]] = [[] for _ in names]
        progress = False
        for i in range(len(names)):
            relevant = [
                p
                for p in mined
                if T.free_vars(p) <= (globals0 | cfas[i].locals)
            ]
            new = _useful_predicates(relevant, preds[i])
            if new:
                per_template[i] = new
                progress = True
        if progress:
            return per_template, k
    raise RefinementFailure(
        "multi-template refinement found no new predicates"
    )


def _component_to_union(
    comp_loc: int, context: Acfa, union: _Union, template: int
) -> int:
    """Map a component-ACFA location id to its id in the union."""
    sorted_locs = sorted(context.locations)
    return union.offsets[template] + sorted_locs.index(comp_loc)