"""Tests for redundant-synchronization detection."""

import pytest

from repro.races.redundancy import find_redundant_sync

BELT_AND_SUSPENDERS = """
global int m, x;
thread t {
  while (1) {
    lock(m);
    atomic { x = x + 1; }
    unlock(m);
  }
}
"""

NECESSARY_ONLY = """
global int x;
thread t {
  while (1) {
    atomic { x = x + 1; }
  }
}
"""

TEST_AND_SET = """
global int x, state;
thread main {
  local int old;
  while (1) {
    atomic { old = state; if (state == 0) { state = 1; } }
    if (old == 0) { x = x + 1; state = 0; }
  }
}
"""


def by_kind(findings, kind):
    return [f for f in findings if f.site.kind == kind]


def test_double_protection_is_redundant_each_way():
    findings = find_redundant_sync(BELT_AND_SUSPENDERS, "x")
    # Either protection alone suffices: removing the atomic keeps the lock,
    # removing the lock keeps the atomic -- both redundant individually.
    (atomic_f,) = by_kind(findings, "atomic")
    (lock_f,) = by_kind(findings, "lock")
    assert atomic_f.redundant
    assert lock_f.redundant


def test_single_protection_is_necessary():
    findings = find_redundant_sync(NECESSARY_ONLY, "x")
    (atomic_f,) = by_kind(findings, "atomic")
    assert not atomic_f.redundant
    assert "race" in atomic_f.detail


def test_test_and_set_atomic_is_necessary():
    findings = find_redundant_sync(TEST_AND_SET, "x")
    (atomic_f,) = by_kind(findings, "atomic")
    assert not atomic_f.redundant


def test_racy_baseline_rejected():
    with pytest.raises(ValueError):
        find_redundant_sync(
            "global int x; thread t { while (1) { x = x + 1; } }", "x"
        )


def test_undecided_baseline_rejected():
    # One refinement iteration cannot prove the test-and-set baseline.
    with pytest.raises(ValueError, match="baseline verification undecided"):
        find_redundant_sync(TEST_AND_SET, "x", max_iterations=1)


def test_sites_render():
    findings = find_redundant_sync(BELT_AND_SUSPENDERS, "x")
    rendered = [str(f.site) for f in findings]
    assert any("atomic section" in s for s in rendered)
    assert any("lock discipline on 'm'" in s for s in rendered)


def test_prefilter_discharges_double_protection_statically():
    """Both removals leave x protected by the other construct, so the
    static pre-analysis settles them without a single CIRC run."""
    findings = find_redundant_sync(BELT_AND_SUSPENDERS, "x")
    assert all(f.redundant for f in findings)
    assert all("statically" in f.detail for f in findings)


def test_prefilter_agrees_with_full_verification():
    for source in (BELT_AND_SUSPENDERS, NECESSARY_ONLY, TEST_AND_SET):
        fast = find_redundant_sync(source, "x", use_prefilter=True)
        slow = find_redundant_sync(source, "x", use_prefilter=False)
        assert [(str(f.site), f.redundant) for f in fast] == [
            (str(f.site), f.redundant) for f in slow
        ]


def test_prefilter_still_catches_necessary_sync():
    findings = find_redundant_sync(NECESSARY_ONLY, "x", use_prefilter=True)
    (atomic_f,) = by_kind(findings, "atomic")
    assert not atomic_f.redundant  # removal leaves must-check -> CIRC ran
