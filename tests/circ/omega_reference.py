"""Test-only reference: the infinity-check before its kernel rewrite.

:func:`context_only_reach` is the context-only reachability as it was
before its satisfiability and transfer memos, and :func:`enabledness`
the goodness scan's enabledness test as it was before enabled (source,
main) pairs were computed once per configuration list: a scan over every
configuration for each (ARG location, edge) pair.  :func:`omega_check`
is the check itself around both.  The parity suite
(``test_omega_parity.py``) runs this and the production
:mod:`repro.circ.omega` on the same inputs and checks that they agree.

Two changes against the former code, both for the parity suite: the
enabledness closure is a function of its own, and :func:`omega_check`
passes the module's ``MAX_CONTEXT_STATES`` to the reachability
explicitly, so a test can lower the budget.  The graph-reachable
fallback and the goodness test itself did not change and are imported.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.acfa.acfa import Acfa, AcfaEdge
from repro.acfa.simulate import simulation_relation
from repro.cfa.cfa import CFA
from repro.circ.omega import _graph_reachable, _is_good
from repro.context.counters import OMEGA, ContextState, counter_dec, counter_inc
from repro.reach import ReachResult
from repro.reach.store import ArgStore, acfa_signature
from repro.smt import terms as T
from repro.smt.solver import is_sat_conjunction

#: Budget for the context-only reachability before falling back.
MAX_CONTEXT_STATES = 40_000

Config = tuple[frozenset, tuple]  # (literal set, counter map)


def _occupied(counts: tuple):
    for q, v in enumerate(counts):
        if v is OMEGA or v > 0:
            yield q


def _count_ok(counts: tuple, q: int, need: int) -> bool:
    v = counts[q]
    return v is OMEGA or v >= need


def context_only_reach(
    acfa: Acfa, cfa: CFA, k: int, max_states: int = MAX_CONTEXT_STATES
) -> Optional[list[Config]]:
    n = max(acfa.locations) + 1
    init_literals = frozenset(
        T.eq(T.var(g), T.num(v))
        for g, v in sorted(cfa.global_init.items())
    )
    init: Config = (
        init_literals,
        ContextState.initial_omega(n, acfa.q0).counts,
    )
    seen = {init}
    frontier = [init]
    configs = [init]
    while frontier:
        nxt = []
        for literals, counts in frontier:
            # Atomic scheduling: while any token occupies an atomic
            # location, only tokens at atomic locations move.
            occupied = list(_occupied(counts))
            atomic_occupied = [q for q in occupied if acfa.is_atomic(q)]
            movers = atomic_occupied if atomic_occupied else occupied
            for q in movers:
                for e in acfa.out(q):
                    guard = list(literals) + list(acfa.label[e.src])
                    if not is_sat_conjunction(guard):
                        continue
                    survivors = {
                        lit
                        for lit in guard
                        if not (T.free_vars(lit) & e.havoc)
                    }
                    new_literals = frozenset(
                        survivors | set(acfa.label[e.dst])
                    )
                    if not is_sat_conjunction(list(new_literals)):
                        continue
                    moved = list(counts)
                    moved[e.src] = counter_dec(moved[e.src])
                    moved[e.dst] = counter_inc(moved[e.dst], k)
                    state: Config = (new_literals, tuple(moved))
                    if state in seen:
                        continue
                    seen.add(state)
                    if len(seen) > max_states:
                        return None
                    configs.append(state)
                    nxt.append(state)
        frontier = nxt
    return configs


def enabledness(
    acfa: Acfa, configs: Optional[list[Config]]
) -> Callable[[AcfaEdge, int], bool]:
    if configs is None:
        coverable = _graph_reachable(acfa)

        def enabled(e: AcfaEdge, a_main: int) -> bool:
            if acfa.is_atomic(a_main):
                return False  # main inside atomic: nobody else runs
            return e.src in coverable and a_main in coverable

    else:

        def enabled(e: AcfaEdge, a_main: int) -> bool:
            if acfa.is_atomic(a_main):
                return False  # main inside atomic: nobody else runs
            need_main = 2 if a_main == e.src else 1
            for _, counts in configs:
                if not _count_ok(counts, e.src, 1):
                    continue
                if _count_ok(counts, a_main, need_main):
                    return True
            return False

    return enabled


def omega_check(
    reach: ReachResult,
    acfa: Acfa,
    cfa: CFA,
    k: int,
    store: ArgStore,
) -> bool:
    if acfa.is_empty():
        return not acfa.edges

    reach_key = (
        acfa_signature(acfa),
        tuple(sorted(cfa.global_init.items())),
        k,
        MAX_CONTEXT_STATES,
    )
    configs = store.context_reach(
        reach_key,
        lambda: context_only_reach(acfa, cfa, k, MAX_CONTEXT_STATES),
    )
    enabled = enabledness(acfa, configs)

    sim = simulation_relation(reach.arg, acfa)
    related: dict[int, set[int]] = {}
    for (g, a) in sim:
        related.setdefault(g, set()).add(a)

    for n in reach.arg.locations:
        label_n = reach.arg.label[n]
        for e in acfa.edges:
            if not any(enabled(e, a) for a in related.get(n, ())):
                continue
            dst_label = acfa.label[e.dst]
            good = store.omega_good(
                label_n,
                e.havoc,
                dst_label,
                lambda: _is_good(label_n, e.havoc, dst_label),
            )
            if not good:
                return False
    return True

