"""Tests for the unified SMT query cache: canonical keys, LRU, persistence."""

from repro.smt import terms as T
from repro.smt.cnf import rewrite_to_le, to_nnf
from repro.smt.qcache import (
    LruCache,
    QueryCache,
    SAT_CACHE,
    conjunction_key,
    key_digest,
    literal_key,
    term_key,
)
from repro.smt.solver import (
    clear_conjunction_cache,
    is_sat,
    is_sat_conjunction,
    is_valid,
)

x, y = T.var("x"), T.var("y")


def _nnf(f):
    return to_nnf(rewrite_to_le(f))


# -- canonical keys ----------------------------------------------------------


def test_literal_key_idempotent_and_memoized():
    lit = T.le(x, T.num(1))
    assert literal_key(lit) == literal_key(lit)


def test_equivalent_spellings_share_a_key():
    # x <= 1 and x < 2 are the same integer halfspace.
    a, _ = literal_key(T.le(x, T.num(1)))
    b, _ = literal_key(T.lt(x, T.num(2)))
    assert a == b
    # not (x > 1) is also x <= 1.
    c, _ = literal_key(T.not_(T.gt(x, T.num(1))))
    assert a == c


def test_equality_key_is_direction_free():
    a, _ = literal_key(T.eq(x, y))
    b, _ = literal_key(T.eq(y, x))
    assert a == b


def test_disequality_key_is_direction_free():
    a, _ = literal_key(T.ne(x, y))
    b, _ = literal_key(T.ne(y, x))
    assert a == b


def test_conjunction_key_order_and_duplicate_insensitive():
    p, q = T.le(x, T.num(1)), T.ge(y, T.num(0))
    assert conjunction_key([p, q]) == conjunction_key([q, p, q])


def test_term_key_permutation_and_flattening_invariance():
    p, q, r = T.le(x, T.num(0)), T.ge(y, T.num(2)), T.eq(x, y)
    flat = _nnf(T.or_(p, q, r))
    permuted = _nnf(T.or_(r, p, q))
    nested = _nnf(T.or_(p, T.or_(q, r)))
    assert term_key(flat) == term_key(permuted) == term_key(nested)


def test_term_key_idempotent():
    f = _nnf(T.and_(T.or_(T.le(x, T.num(1)), T.eq(y, T.num(0))), T.ge(x, y)))
    assert term_key(f) == term_key(f)


def test_key_digest_stable():
    key = term_key(_nnf(T.le(x, T.num(3))))
    assert key_digest(key) == key_digest(key)
    assert len(key_digest(key)) == 64


def test_literal_key_strings_are_pinned():
    # The on-disk warm tier is keyed by these rendered strings: a change in
    # how a constraint renders orphans every persisted verdict.
    two_x_plus_1 = T.add(T.mul(T.num(2), x), T.num(1))
    assert literal_key(T.le(two_x_plus_1, T.add(y, T.num(4))))[0] == (
        "le(2*x+-1*y+-3)",
    )
    assert literal_key(T.eq(x, y))[0] == ("eq(-1*x+1*y+0)",)
    assert literal_key(T.ne(x, T.num(3)))[0] == ("ne(-1*x+4|1*x+-2)",)
    assert literal_key(T.not_(T.le(x, T.num(1))))[0] == ("le(-1*x+2)",)


# -- LRU ---------------------------------------------------------------------


def test_lru_eviction_order():
    lru = LruCache(maxsize=3)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.put("c", 3)
    assert lru.get("a") == 1  # refresh a: b is now least recent
    lru.put("d", 4)
    assert "b" not in lru
    assert "a" in lru and "c" in lru and "d" in lru
    assert lru.evictions == 1


def test_lru_counters():
    lru = LruCache(maxsize=2)
    assert lru.get("missing") is None
    lru.put("k", True)
    assert lru.get("k") is True
    s = lru.stats()
    assert s["hits"] == 1 and s["misses"] == 1 and s["size"] == 1


def test_lru_update_does_not_evict():
    lru = LruCache(maxsize=2)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.put("a", 10)
    assert len(lru) == 2 and lru.evictions == 0
    assert lru.get("a") == 10


# -- QueryCache --------------------------------------------------------------


def test_query_cache_roundtrip_and_stats():
    qc = QueryCache(maxsize=8)
    key = conjunction_key([T.le(x, T.num(1))])
    assert qc.lookup(key) is None
    qc.store(key, True)
    assert qc.lookup(key) is True
    s = qc.stats()
    assert s["hits"] == 1 and s["misses"] == 1


def test_query_cache_disabled_bypasses():
    qc = QueryCache(maxsize=8)
    qc.enabled = False
    key = ("le(1*x+-1)",)
    qc.store(key, True)
    assert qc.lookup(key) is None


def test_query_cache_persistence_roundtrip(tmp_path):
    path = tmp_path / "qcache.json"
    qc = QueryCache(maxsize=8)
    k1 = conjunction_key([T.le(x, T.num(1))])
    k2 = term_key(_nnf(T.or_(T.eq(x, T.num(0)), T.ge(y, T.num(3)))))
    qc.store(k1, True)
    qc.store(k2, False)
    assert qc.save(path) == 2

    warm = QueryCache(maxsize=8)
    assert warm.load(path) == 2
    # Warm hits are served by digest and promoted to the primary tier.
    assert warm.lookup(k1) is True
    assert warm.lookup(k2) is False
    assert warm.stats()["warm_hits"] == 2
    assert warm.lookup(k1) is True  # now a primary hit
    assert warm.stats()["warm_hits"] == 2


def test_query_cache_load_tolerates_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert QueryCache().load(path) == 0
    path.write_text('{"format": "something-else", "entries": {}}')
    assert QueryCache().load(path) == 0
    assert QueryCache().load(tmp_path / "missing.json") == 0


# -- integration with the solver entry points --------------------------------


def test_conjunction_queries_hit_shared_cache():
    clear_conjunction_cache()
    before = SAT_CACHE.stats()["hits"]
    lits = [T.le(x, T.num(4)), T.ge(x, T.num(2))]
    assert is_sat_conjunction(lits)
    assert is_sat_conjunction(list(reversed(lits)))  # permuted: same key
    assert SAT_CACHE.stats()["hits"] == before + 1


def test_clear_conjunction_cache_empties_shared_cache():
    is_sat_conjunction([T.le(x, T.num(0))])
    assert len(SAT_CACHE) > 0
    clear_conjunction_cache()
    assert len(SAT_CACHE) == 0


def test_is_valid_shares_entries_with_is_sat_negation():
    clear_conjunction_cache()
    f = T.implies(T.eq(x, T.num(5)), T.ge(x, T.num(0)))
    # is_valid(f) solves is_sat(not f); a prior is_sat(not f) seeds it.
    assert not is_sat(T.not_(f))
    before = SAT_CACHE.stats()["hits"]
    assert is_valid(f)
    assert SAT_CACHE.stats()["hits"] == before + 1


def test_cached_verdicts_are_correct_across_spellings():
    clear_conjunction_cache()
    assert not is_sat_conjunction([T.le(x, T.num(1)), T.gt(x, T.num(1))])
    # Same halfspaces, different spellings: must hit and stay unsat.
    assert not is_sat_conjunction([T.lt(x, T.num(2)), T.ge(x, T.num(2))])


# -- incremental autosave (the serve daemon's periodic warm-tier spill) ------


def test_autosave_flushes_every_n_stores(tmp_path):
    path = tmp_path / "qcache.json"
    qc = QueryCache()
    qc.set_autosave(path, every=3)
    qc.store("k1", True)
    qc.store("k2", False)
    assert not path.exists()  # under the threshold: nothing spilled yet
    qc.store("k3", True)
    assert path.exists()
    assert qc.autosave_flushes == 1
    # The spilled tier warm-starts a fresh cache.
    warm = QueryCache()
    assert warm.load(path) == 3
    assert warm.lookup("k2") is False


def test_autosave_disable_and_forced_flush(tmp_path):
    path = tmp_path / "qcache.json"
    qc = QueryCache()
    qc.set_autosave(path, every=1000)
    qc.store("k1", True)
    assert qc.flush() == 1  # explicit flush spills below the threshold
    qc.set_autosave(None)
    qc.store("k2", True)
    assert qc.flush() == 0  # disabled: no path, nothing written


# -- multi-writer warm tier (the sharded engine's workers) --------------------


def test_save_merges_instead_of_overwriting(tmp_path):
    """Two caches with disjoint entries saving to one path accumulate:
    the second save must re-read and fold, not blindly overwrite (the
    original last-writer-wins spill lost the first worker's verdicts)."""
    path = tmp_path / "qcache.json"
    a, b = QueryCache(maxsize=8), QueryCache(maxsize=8)
    a.store("only-in-a", True)
    b.store("only-in-b", False)
    assert a.save(path) == 1
    assert b.save(path) == 2  # merged size, not b's own size

    warm = QueryCache(maxsize=8)
    assert warm.load(path) == 2
    assert warm.lookup("only-in-a") is True
    assert warm.lookup("only-in-b") is False


def test_save_returns_merged_count_and_is_idempotent(tmp_path):
    path = tmp_path / "qcache.json"
    qc = QueryCache(maxsize=8)
    qc.store("k", True)
    assert qc.save(path) == 1
    assert qc.save(path) == 1  # re-merging the same entries is stable


def test_two_process_concurrent_save_loses_nothing(tmp_path):
    """Two real OS processes flushing disjoint tiers concurrently: the
    flock + read-merge-write protocol must end with the full union."""
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from repro.smt.qcache import QueryCache\n"
        "path, tag = sys.argv[1], sys.argv[2]\n"
        "qc = QueryCache(maxsize=256)\n"
        "for i in range(100):\n"
        "    qc.store(f'{tag}-{i}', i % 2 == 0)\n"
        "    if i % 10 == 9:\n"
        "        qc.save(path)\n"
        "qc.save(path)\n"
    )
    path = tmp_path / "qcache.json"
    procs = [
        subprocess.Popen([sys.executable, "-c", script, str(path), tag])
        for tag in ("a", "b")
    ]
    for p in procs:
        assert p.wait() == 0
    warm = QueryCache(maxsize=256)
    assert warm.load(path) == 200  # no delta lost to a concurrent flush
    for tag in ("a", "b"):
        assert warm.lookup(f"{tag}-3") is False
        assert warm.lookup(f"{tag}-4") is True
