"""Tests for the digest-keyed abstract-interpretation pass."""

import pytest

from repro.engine.cache import ArtifactCache
from repro.engine.events import EventLog
from repro.lang.lower import lower_source
from repro.portfolio.absint import Interval, TOP, absint_check

ATOMIC = "global int x; thread t0 { while (*) { atomic { x = 1 - x; } } }"

RACY = "global int x; thread t { while (1) { x = x + 1; } }"

LOCKED = (
    "global int m, x; "
    "thread t { while (1) { lock(m); x = x + 1; unlock(m); } }"
)

# The write to x sits behind a branch the interval domain proves dead:
# a is always 0, so `a == 1` is definitely false.  Graph-level MHP keeps
# the pair; semantic reachability refutes it.
VALUE_GUARDED = """
global int x;
thread t {
  local int a;
  while (1) {
    a = 0;
    if (a == 1) { x = x + 1; }
  }
}
"""


def test_interval_algebra():
    a = Interval(0, 5)
    b = Interval(3, 10)
    assert a.join(b) == Interval(0, 10)
    assert 4 in a and 9 not in a
    assert a.widen(b) == Interval(0, None)
    assert TOP.join(a) == TOP


def test_atomic_program_refuted():
    r = absint_check(lower_source(ATOMIC), "x")
    assert r.verdict == "safe"
    assert not r.pairs_surviving


def test_locked_program_refuted():
    r = absint_check(lower_source(LOCKED), "x")
    assert r.verdict == "safe"


def test_racy_program_stays_unknown_never_race():
    # The abstraction is one-sided: it can refute, never witness.
    r = absint_check(lower_source(RACY), "x")
    assert r.verdict == "unknown"


def test_semantic_reachability_beats_graph_mhp():
    r = absint_check(lower_source(VALUE_GUARDED), "x")
    assert r.verdict == "safe"
    assert not r.pairs_surviving


def test_digest_cache_warm_hit(tmp_path):
    cache = ArtifactCache(tmp_path)
    events = EventLog()
    cold = absint_check(lower_source(ATOMIC), "x", cache=cache, events=events)
    warm = absint_check(lower_source(ATOMIC), "x", cache=cache, events=events)
    assert not cold.cached and warm.cached
    assert cold.verdict == warm.verdict == "safe"
    assert cold.digest == warm.digest


def test_cache_hit_survives_alpha_renaming(tmp_path):
    # The slice digest is stable under renaming outside the slice, so a
    # renamed thread serves the same summary.
    cache = ArtifactCache(tmp_path)
    absint_check(lower_source(ATOMIC), "x", cache=cache)
    renamed = absint_check(
        lower_source(ATOMIC.replace("t0", "worker")), "x", cache=cache
    )
    assert renamed.cached


def test_corrupt_blob_recomputes(tmp_path):
    cache = ArtifactCache(tmp_path)
    absint_check(lower_source(ATOMIC), "x", cache=cache)
    # Scribble over every stored blob; the checksum must catch it and
    # the pass must recompute rather than trust the payload.
    blobs = list((tmp_path / "absint").rglob("*.json"))
    assert blobs
    for blob in blobs:
        blob.write_text('{"nonsense": true}')
    r = absint_check(lower_source(ATOMIC), "x", cache=cache)
    assert r.verdict == "safe"
    assert not r.cached


def test_non_global_variable_rejected():
    with pytest.raises(ValueError, match="not a global"):
        absint_check(lower_source(RACY), "nope")
