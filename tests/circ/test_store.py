"""Unit tests for the incremental reachability framework: the ArgStore's
subtree invalidation and context-weakening reuse, and the deadline
contract of resumed explorations."""

import time

import pytest

from repro.acfa.acfa import Acfa, AcfaEdge, empty_acfa
from repro.cfa.cfa import AssignOp, AssumeOp
from repro.circ.circ import circ
from repro.context.state import AbstractProgram
from repro.engine.planner import _verdict_of
from repro.predabs.abstractor import Abstractor
from repro.predabs.region import TOP, PredicateSet
from repro.reach import (
    ArgStore,
    ReachBudgetExceeded,
    acfa_signature,
    reach_and_build,
)
from repro.smt import terms as T

from .test_reach import SEQ, make  # reuse the program factory

G, H = T.var("g"), T.var("h")


def make_on(cfa, acfa=None, preds=(), k=1):
    """Like :func:`make` but over an existing CFA object -- the ArgStore
    keys its memos to one CFA identity, so cross-run reuse tests must
    not re-lower the source."""
    ab = Abstractor(PredicateSet(preds))
    return AbstractProgram(cfa, ab, acfa or empty_acfa(), k)


# ---------------------------------------------------------------------------
# Subtree invalidation: a memo entry survives refinement iff the new
# predicates' support is disjoint from the entry's formulas.
# ---------------------------------------------------------------------------


def test_post_entry_kept_iff_untouched_by_new_predicate():
    store = ArgStore()
    preds = PredicateSet([T.eq(G, T.num(0))])
    ab = store.abstractor_for(preds, "cartesian")
    op_g = AssignOp("g", T.add(G, T.num(1)))
    op_h = AssignOp("h", T.add(H, T.num(1)))
    store.post_main(ab, TOP, op_g)
    store.post_main(ab, TOP, op_h)
    assert store.counters["main_post_misses"] == 2

    # Refine with a predicate over h only: the g-entry's support ({g})
    # is disjoint, so it is kept; the h-entry is invalidated.
    extended = preds.extended([T.eq(H, T.num(0))])
    ab2 = store.abstractor_for(extended, "cartesian")
    assert ab2 is ab  # extended in place, not rebuilt
    assert store.counters["entries_invalidated"] == 1
    assert store.counters["entries_kept"] == 1

    store.post_main(ab2, TOP, op_g)  # untouched -> served from the memo
    assert store.counters["main_post_hits"] == 1
    store.post_main(ab2, TOP, op_h)  # touched -> recomputed
    assert store.counters["main_post_misses"] == 3


def test_kept_entries_stay_exact_after_extension():
    """A kept entry equals what a scratch abstractor over the extended
    predicate set computes."""
    store = ArgStore()
    preds = PredicateSet([T.eq(G, T.num(0))])
    ab = store.abstractor_for(preds, "cartesian")
    op_g = AssignOp("g", T.num(0))
    first = store.post_main(ab, TOP, op_g)
    assert first.literals  # g == 0 holds after the assignment

    extended = preds.extended([T.eq(H, T.num(7))])
    ab = store.abstractor_for(extended, "cartesian")
    kept = store.post_main(ab, TOP, op_g)
    scratch = Abstractor(extended).post_op(TOP, op_g)
    assert kept == scratch


def test_abstractor_extend_counts_kept_and_evicted():
    preds = PredicateSet([T.eq(G, T.num(0))])
    ab = Abstractor(preds)
    ab.abstract([T.eq(G, T.num(0))])
    ab.abstract([T.eq(H, T.num(5))])
    stats = ab.extend(preds.extended([T.eq(H, T.num(1))]))
    assert stats["cleared"] == 0
    assert stats["evicted"] >= 1  # the h-formula entry
    assert stats["kept"] >= 1  # the g-formula entry
    # The recomputed h entry now carries the new predicate's literal.
    region = ab.abstract([T.eq(H, T.num(5))])
    assert (1, False) in region.literals  # h == 5 refutes h == 1


def test_abstractor_extend_degenerate_predicate_clears_cache():
    preds = PredicateSet([T.eq(G, T.num(0))])
    ab = Abstractor(preds)
    ab.abstract([T.eq(G, T.num(0))])
    # 0 == 0 is valid: its negation is unsat, so every non-bottom entry
    # would gain a literal -- extend must drop the whole memo.
    stats = ab.extend(preds.extended([T.eq(T.num(0), T.num(0))]))
    assert stats["cleared"] == 1
    assert stats["kept"] == 0


def test_abstractor_extend_rejects_non_extension():
    ab = Abstractor(PredicateSet([T.eq(G, T.num(0))]))
    with pytest.raises(ValueError):
        ab.extend(PredicateSet([T.eq(H, T.num(0))]))


def test_abstractor_for_rebuilds_on_unrelated_predicates():
    store = ArgStore()
    a1 = store.abstractor_for(PredicateSet([T.eq(G, T.num(0))]), "cartesian")
    a2 = store.abstractor_for(PredicateSet([T.eq(H, T.num(0))]), "cartesian")
    assert a2 is not a1
    assert store.counters["abstractor_rebuilds"] == 2


def test_bottom_entries_survive_any_extension():
    preds = PredicateSet([T.eq(G, T.num(0))])
    ab = Abstractor(preds)
    bottom = ab.abstract([T.eq(G, T.num(1)), T.eq(G, T.num(2))])
    assert bottom.is_bottom()
    stats = ab.extend(preds.extended([T.eq(G, T.num(9))]))
    # The unsat entry mentions g (overlapping support) but stays: an
    # unsatisfiable conjunction is bottom under any predicate set.
    assert stats["kept"] >= 1


# ---------------------------------------------------------------------------
# Context-weakening reuse: label-keyed memos survive a weakened context,
# and identical runs are served whole.
# ---------------------------------------------------------------------------


def _ctx(label1, name="w"):
    return Acfa(
        name,
        0,
        [0, 1],
        {0: (), 1: tuple(label1)},
        [AcfaEdge(0, frozenset({"g"}), 1), AcfaEdge(1, frozenset({"g"}), 1)],
    )


def test_context_weakening_reuses_unchanged_label_moves():
    from repro.lang import lower_source

    store = ArgStore()
    cfa = lower_source(SEQ)
    preds = (T.eq(G, T.num(0)),)
    strong = _ctx([T.eq(G, T.num(0))])
    reach_and_build(make_on(cfa, acfa=strong, preds=preds), store=store)
    misses_before = store.counters["ctx_post_misses"]

    # Rerunning on the *same* context is served whole from the result
    # memo -- no exploration, no new post computations.
    reach_and_build(make_on(cfa, acfa=strong, preds=preds), store=store)
    assert store.counters["result_hits"] == 1
    assert store.counters["ctx_post_misses"] == misses_before

    # Weaken location 1's label to true: context moves are re-keyed at
    # the changed label (the boundary, recomputed as fresh misses), but
    # the main-thread posts are context-independent and fully reused.
    main_hits_before = store.counters["main_post_hits"]
    weak = _ctx([])
    reach_and_build(make_on(cfa, acfa=weak, preds=preds), store=store)
    assert store.counters["main_post_hits"] > main_hits_before
    assert store.counters["ctx_post_misses"] > misses_before


def test_store_serves_identical_run_without_exploring():
    from repro.lang import lower_source

    store = ArgStore()
    cfa = lower_source(SEQ)
    r1 = reach_and_build(make_on(cfa), store=store)
    r2 = reach_and_build(make_on(cfa), store=store)
    assert store.counters["result_hits"] == 1
    assert r2 is r1  # the memoized result object itself


def test_store_resets_when_bound_to_a_different_cfa():
    store = ArgStore()
    p = make(SEQ)
    reach_and_build(p, store=store)
    other = make("global int z; thread m { z = 3; }")
    reach_and_build(other, store=store)
    # No cross-program hits: the store reset on rebind.
    assert store.counters["result_hits"] == 0


def test_acfa_signature_distinguishes_labels():
    a = _ctx([T.eq(G, T.num(0))])
    b = _ctx([])
    assert acfa_signature(a) != acfa_signature(b)
    assert acfa_signature(a) == acfa_signature(_ctx([T.eq(G, T.num(0))]))


def test_race_results_replay_from_store():
    from repro.reach import AbstractRaceFound

    from repro.lang import lower_source

    store = ArgStore()
    cfa = lower_source("global int x; thread m { x = 1; }")
    acfa = Acfa(
        "w", 0, [0], {0: ()}, [AcfaEdge(0, frozenset({"x"}), 0)]
    )
    with pytest.raises(AbstractRaceFound) as first:
        reach_and_build(make_on(cfa, acfa=acfa), race_on="x", store=store)
    with pytest.raises(AbstractRaceFound) as second:
        reach_and_build(make_on(cfa, acfa=acfa), race_on="x", store=store)
    assert store.counters["result_hits"] == 1
    assert second.value.trace == first.value.trace
    assert second.value.state == first.value.state


# ---------------------------------------------------------------------------
# Deadline contract on resumed/warm explorations
# ---------------------------------------------------------------------------


def test_expired_deadline_raises_even_with_warm_store():
    from repro.lang import lower_source

    store = ArgStore()
    cfa = lower_source(SEQ)
    reach_and_build(make_on(cfa), store=store)  # warm the result memo
    with pytest.raises(ReachBudgetExceeded):
        reach_and_build(
            make_on(cfa), store=store, deadline=time.perf_counter() - 1.0
        )
    # The warm entry is untouched and still answers within a live budget.
    r = reach_and_build(
        make_on(cfa), store=store, deadline=time.perf_counter() + 60.0
    )
    assert r.states_explored == 3
    assert store.counters["result_hits"] == 1


def test_deadline_checked_per_pop_with_store():
    src = "global int g; thread m { while (1) { g = g + 1; } }"
    acfa = Acfa(
        "w",
        0,
        [0, 1],
        {0: (), 1: ()},
        [AcfaEdge(0, frozenset(), 1), AcfaEdge(1, frozenset({"g"}), 0)],
    )
    p = make(src, acfa=acfa, preds=(T.eq(G, T.num(0)),))
    with pytest.raises(ReachBudgetExceeded):
        reach_and_build(
            p, store=ArgStore(), deadline=time.perf_counter() + 1e-6
        )


# ---------------------------------------------------------------------------
# circ-level wiring
# ---------------------------------------------------------------------------


def test_circ_attaches_reuse_stats():
    from repro.lang import lower_source

    cfa = lower_source(SEQ)
    result = circ(cfa, race_on="g")
    assert result.stats.reuse["result_misses"] > 0
    assert result.stats.store_digest


def test_circ_boolean_abstraction_runs_through_store():
    from repro.lang import lower_source

    cfa = lower_source(SEQ)
    result = circ(cfa, race_on="g", abstraction="boolean")
    assert result.stats.reuse["result_misses"] > 0
    assert result.stats.reuse["abstractor_rebuilds"] >= 1
    assert result.stats.store_digest


def test_circ_shared_store_across_calls():
    from repro.lang import lower_source

    cfa = lower_source(SEQ)
    store = ArgStore()
    a = circ(cfa, race_on="g", store=store)
    b = circ(cfa, race_on="g", store=store)
    assert _verdict_of(a) == _verdict_of(b)
    assert b.stats.reuse["result_hits"] > 0


def test_iteration_records_carry_unified_timing():
    from repro.lang import lower_source

    cfa = lower_source(SEQ)
    result = circ(cfa, race_on="g", keep_history=True)
    assert result.stats.history
    last = 0.0
    for rec in result.stats.history:
        assert rec.elapsed_s >= last
        last = rec.elapsed_s
    assert result.stats.elapsed_seconds >= last


def test_main_post_support_includes_assume_reads():
    store = ArgStore()
    preds = PredicateSet([T.eq(G, T.num(0))])
    ab = store.abstractor_for(preds, "cartesian")
    op = AssumeOp(T.le(H, T.num(3)))
    store.post_main(ab, TOP, op)
    extended = preds.extended([T.eq(H, T.num(0))])
    ab = store.abstractor_for(extended, "cartesian")
    assert store.counters["entries_invalidated"] == 1  # assume reads h
