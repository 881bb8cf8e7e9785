"""The infinity-check of Section 5 (the heart of omega-CIRC).

After the inner loop converges with exactly ``k`` context threads, the
check discharges the unbounded case:

1. compute R, the reachable configurations of the *context-only* system
   A^infinity -- every thread, including the one that will play 'main', is
   an abstract A-thread; moves are label-guarded havoc transitions, so
   protocol state (a held lock, a claimed state variable) restricts which
   configurations arise;
2. a context transition ``e = q' --Y--> q''`` is *enabled at* an abstract
   location ``q-bar`` when some configuration in R has a token at ``q'``
   and a (distinct) token at ``q-bar`` (the paper's rule: ``G.q-bar > 0``
   when ``q-bar != q'``, ``> 1`` otherwise);
3. an ARG location ``n`` is *good* for ``e`` when executing the havoc from
   n's region, constrained by the target label, stays inside n's region:
   ``(exists Y. r(n)) and r(q'') |= r(n)``;
4. if every ARG location is good for every transition enabled at its
   abstract image, A soundly summarizes arbitrarily many threads.

The data carried through R is a conjunction of literals from the finite
universe of initial-value facts and ACFA labels, so the fixpoint
terminates; if it exceeds its budget we fall back to the coarse
"graph-reachable" enabledness (sound: it only enables more transitions,
making the goodness requirement stricter).  Either way, step 2 is
answered from a set of enabled (source, main) location pairs computed
once per configuration list.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..acfa.acfa import Acfa, AcfaEdge
from ..acfa.simulate import simulation_relation
from ..cfa.cfa import CFA
from ..context.counters import OMEGA, ContextState, counter_dec, counter_inc
from ..reach.store import ArgStore, acfa_signature
from ..smt import terms as T
from ..smt.profile import stage
from ..smt.solver import is_sat_conjunction
from ..reach import ReachResult

__all__ = ["omega_check"]

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


def _context_only_reach(
    acfa: Acfa, cfa: CFA, k: int, max_states: int = MAX_CONTEXT_STATES
) -> Optional[list[Config]]:
    """R: every configuration of A^infinity in breadth-first order, or
    None past ``max_states``.

    A move's successor literal set depends only on the literal set and
    the edge, so it is computed once per (literal set, edge) pair, and
    each literal set's satisfiability once per call.
    """
    n = max(acfa.locations) + 1
    init_literals = frozenset(
        T.eq(T.var(g), T.num(v))
        for g, v in sorted(cfa.global_init.items())
    )
    init: Config = (
        init_literals,
        ContextState.initial_omega(n, acfa.q0).counts,
    )
    labels = {q: frozenset(acfa.label[q]) for q in acfa.locations}
    sat_memo: dict[frozenset, bool] = {}
    transfer: dict[tuple[frozenset, AcfaEdge], Optional[frozenset]] = {}

    def sat(literals: frozenset) -> bool:
        hit = sat_memo.get(literals)
        if hit is None:
            hit = sat_memo[literals] = is_sat_conjunction(list(literals))
        return hit

    def post(literals: frozenset, e: AcfaEdge) -> Optional[frozenset]:
        guard = literals | labels[e.src]
        if not sat(guard):
            return None
        survivors = frozenset(
            lit for lit in guard if not (T.free_vars(lit) & e.havoc)
        )
        new_literals = survivors | labels[e.dst]
        return new_literals if sat(new_literals) else None

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
                    key = (literals, e)
                    if key in transfer:
                        new_literals = transfer[key]
                    else:
                        new_literals = transfer[key] = post(literals, e)
                    if new_literals is None:
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


def _graph_reachable(acfa: Acfa) -> frozenset[int]:
    reach = {acfa.q0}
    stack = [acfa.q0]
    while stack:
        q = stack.pop()
        for e in acfa.out(q):
            if e.dst not in reach:
                reach.add(e.dst)
                stack.append(e.dst)
    return frozenset(reach)


def _enabled_pairs(configs: Optional[list[Config]], acfa: Acfa) -> frozenset:
    """The (source, main) location pairs at which a context transition
    leaving ``source`` is enabled for a main thread at ``main``: some
    configuration of R has a token at the source and a distinct token at
    main.  Without R (``None``: over budget) every pair of graph-reachable
    locations."""
    if configs is None:
        coverable = _graph_reachable(acfa)
        return frozenset((src, main) for src in coverable for main in coverable)
    beside: dict[int, set[int]] = {}  # source -> main locations
    for counts in {counts for _, counts in configs}:
        occupied = frozenset(_occupied(counts))
        for q in occupied:
            mains = occupied if _count_ok(counts, q, 2) else occupied - {q}
            beside.setdefault(q, set()).update(mains)
    return frozenset(
        (src, main) for src, mains in beside.items() for main in mains
    )


def _enabledness(
    acfa: Acfa, pairs: frozenset
) -> Callable[[AcfaEdge, int], bool]:
    def enabled(e: AcfaEdge, a_main: int) -> bool:
        if acfa.is_atomic(a_main):
            return False  # main inside atomic: nobody else runs
        return (e.src, a_main) in pairs

    return enabled


def omega_check(
    reach: ReachResult,
    acfa: Acfa,
    cfa: CFA,
    k: int,
    store: ArgStore,
) -> bool:
    """Is the converged k-thread context sound for arbitrarily many
    threads?  (See module docstring.)

    ``store`` memoizes the enabled pairs of the context-only
    reachability by the ACFA's signature and the per-(location, edge)
    goodness checks by their label terms, so after a context weakening
    or refinement only the *changed* locations are re-proved.
    """
    with stage("omega"):
        return _omega_check(reach, acfa, cfa, k, store)


def _omega_check(
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
    pairs = store.context_reach(
        reach_key,
        lambda: _enabled_pairs(
            _context_only_reach(acfa, cfa, k, MAX_CONTEXT_STATES), acfa
        ),
    )
    enabled = _enabledness(acfa, pairs)

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


def _is_good(
    label_n: tuple[T.Term, ...],
    havoc: frozenset[str],
    dst_label: tuple[T.Term, ...],
) -> bool:
    """Goodness of one (ARG location, context edge) pair:
    ``(exists Y. r(n)) and r(q'') |= r(n)`` -- a pure function of the
    location label, the havoc set, and the target label."""
    mapping = {v: T.var(v + "__h") for v in havoc}
    projected = [T.substitute(lit, mapping) for lit in label_n]
    antecedent = projected + list(dst_label)
    for lit in label_n:
        if is_sat_conjunction(antecedent + [T.not_(lit)]):
            return False
    return True
