"""ArgStore support-based invalidation under the hash-consed term layer.

The store records, for every post memo entry, the free variables its key
formulas mention; subtree invalidation intersects those recorded sets
against each new predicate's support.  Both sides come from the per-node
``free_vars`` memo, so each example populates a store with a CIRC or
omega-CIRC run and checks it against independent oracles: the recorded
sets against from-scratch structural walks, invalidation against the
entries whose walked support meets the probe.  The populating run's verdict is checked
too, against the explicit-state checker of :mod:`repro.fuzz.oracle`.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circ.circ import circ
from repro.circ.result import CircSafe, CircUnsafe
from repro.fuzz.diff import PathResult, _classify
from repro.fuzz.gen import GenConfig, generate
from repro.fuzz.oracle import oracle_check
from repro.lang.lower import lower_thread
from repro.reach import ArgStore
from repro.smt import terms as T

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
seeds = st.integers(min_value=0, max_value=100_000)
variants = st.sampled_from(("circ", "omega"))

BUDGET = dict(max_outer=6, max_inner=40, timeout_s=20.0)


def _populated_store(seed, variant):
    gp = generate(seed, GenConfig(pointers=False))
    cfa = lower_thread(gp.program, gp.thread)
    store = ArgStore()
    result = circ(cfa, race_on=gp.race_var, store=store, variant=variant, **BUDGET)
    return store, gp, cfa, result


def _scratch_vars(term):
    """Structural free-variable walk, bypassing the per-node memo."""
    return frozenset(
        n.name for n in T.subterms(term) if isinstance(n, T.Var)
    )


def _scratch_region_vars(region, preds):
    out = set()
    for idx, _ in region.literals:
        out |= _scratch_vars(preds[idx])
    return out


def _oracle_supports(store):
    """Recompute every memo entry's support from its key, structurally.

    Region literal indices are stable across predicate-set extensions
    (the store enforces the prefix property), so the final abstractor's
    predicate set resolves every recorded region.
    """
    preds = store._abstractor.preds
    main = {}
    for (region, op), (_, entry_vars) in store._main_post.items():
        oracle = (
            _scratch_region_vars(region, preds) | op.reads() | op.writes()
        )
        main[(region, op)] = (entry_vars, frozenset(oracle))
    ctx = {}
    for key, (_, entry_vars) in store._ctx_post.items():
        region, src_label, havoc, dst_label = key
        oracle = _scratch_region_vars(region, preds)
        for t in src_label:
            oracle |= _scratch_vars(t)
        for t in dst_label:
            oracle |= _scratch_vars(t)
        ctx[key] = (entry_vars, frozenset(oracle))
    return main, ctx


def _path(result):
    """The populating run as a fuzz verdict path.  A run that ran out of
    this test's small outer-loop budget is undecided."""
    if isinstance(result, CircSafe):
        return PathResult("circ", "safe", 0.0)
    if isinstance(result, CircUnsafe):
        return PathResult(
            "circ", "race", 0.0, result.n_threads, tuple(result.steps)
        )
    return PathResult("circ", "unknown", 0.0)


@settings(**SETTINGS)
@given(seeds, variants)
def test_recorded_supports_match_structural_walk(seed, variant):
    store, gp, cfa, result = _populated_store(seed, variant)
    # The populating run must not hard-disagree with the oracle's verdict.
    oracle = oracle_check(gp.program, gp.thread, gp.race_var)
    hard = [
        d
        for d in _classify(cfa, gp.race_var, [_path(result)], oracle)
        if d.hard
    ]
    assert not hard
    if store._abstractor is None:
        return  # verdict fell out before any post was computed
    main, ctx = _oracle_supports(store)
    for recorded, walked in list(main.values()) + list(ctx.values()):
        assert recorded == walked


@settings(**SETTINGS)
@given(seeds, variants)
def test_invalidation_drops_exactly_what_the_old_walk_would(seed, variant):
    store, gp, _, _ = _populated_store(seed, variant)
    if store._abstractor is None:
        return
    main, ctx = _oracle_supports(store)
    # One predicate over the race variable (guaranteed to exist in the
    # program) and one over a variable no generated program mentions.
    probes = [
        T.le(T.var(gp.race_var), T.num(1)),
        T.ge(T.var("zz_unseen"), T.num(0)),
    ]
    for probe in probes:
        support = _scratch_vars(probe)
        before_main = set(store._main_post.keys())
        before_ctx = set(store._ctx_post.keys())
        doomed_main = {k for k in before_main if main[k][1] & support}
        doomed_ctx = {k for k in before_ctx if ctx[k][1] & support}
        invalidated_before = store.counters["entries_invalidated"]
        store._invalidate_for_predicates([probe])
        assert set(store._main_post.keys()) == before_main - doomed_main
        assert set(store._ctx_post.keys()) == before_ctx - doomed_ctx
        assert store.counters["entries_invalidated"] == (
            invalidated_before + len(doomed_main) + len(doomed_ctx)
        )


def test_degenerate_predicate_forces_a_full_drop():
    store = _populated_store(7, "circ")[0]
    if store._abstractor is None or not len(store._main_post):
        store = _populated_store(0, "circ")[0]
    v = T.var("q")
    store._invalidate_for_predicates([T.eq(v, v)])  # valid: degenerate
    assert len(store._main_post) == 0
    assert len(store._ctx_post) == 0
    assert len(store._results) == 0
