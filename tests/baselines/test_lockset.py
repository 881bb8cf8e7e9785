"""Unit tests for the Eraser-style lockset baseline.

Also covers the phase-1 facts the portfolio racer reads where the
baseline does not: escape (the racer's "does not escape" verdict) and
monitor-aware must-locksets (:func:`repro.static.protect.held_locks`).
"""

from repro.baselines.lockset import ATOMIC_LOCK, lockset_analysis
from repro.circ.circ import circ
from repro.lang import lower_source
from repro.nesc.programs import TEST_AND_SET_SOURCE
from repro.portfolio.racer import racer_check
from repro.static.protect import held_locks


def test_lock_protected_variable_passes():
    cfa = lower_source(
        "global int m, x; thread t { while (1) { lock(m); x = x + 1; unlock(m); } }"
    )
    report = lockset_analysis(cfa)
    assert not report.warns_on("x")
    assert "m" in report.candidate["x"]


def test_unprotected_variable_warns():
    cfa = lower_source("global int x; thread t { while (1) { x = x + 1; } }")
    report = lockset_analysis(cfa)
    assert report.warns_on("x")


def test_atomic_sections_count_as_a_lock():
    cfa = lower_source(
        "global int x; thread t { while (1) { atomic { x = x + 1; } } }"
    )
    report = lockset_analysis(cfa)
    assert not report.warns_on("x")
    assert ATOMIC_LOCK in report.candidate["x"]


def test_partially_protected_warns():
    cfa = lower_source(
        """
        global int m, x;
        thread t {
          while (1) {
            lock(m); x = x + 1; unlock(m);
            x = 0;
          }
        }
        """
    )
    report = lockset_analysis(cfa)
    assert report.warns_on("x")


def test_two_locks_intersection():
    cfa = lower_source(
        """
        global int m1, m2, x;
        thread t {
          while (1) {
            lock(m1); lock(m2);
            x = x + 1;
            unlock(m2); unlock(m1);
            lock(m2);
            x = x + 2;
            unlock(m2);
          }
        }
        """
    )
    report = lockset_analysis(cfa)
    assert not report.warns_on("x")
    assert report.candidate["x"] == {"m2"}


def test_false_positive_on_figure1():
    """The paper's motivating claim: lockset tools flag Figure 1."""
    cfa = lower_source(TEST_AND_SET_SOURCE)
    report = lockset_analysis(cfa)
    assert report.warns_on("x")  # false positive; CIRC proves it safe


def test_read_only_variable_no_warning():
    cfa = lower_source(
        "global int x, y; thread t { local int a; while (1) { a = x; y = a; } }"
    )
    report = lockset_analysis(cfa)
    assert not report.warns_on("x")  # reads only, no write anywhere
    assert report.warns_on("y")


def test_lock_variable_itself_not_flagged():
    cfa = lower_source(
        "global int m, x; thread t { lock(m); x = 1; unlock(m); }"
    )
    report = lockset_analysis(cfa)
    assert not report.warns_on("m")


def test_restrict_to_variables():
    cfa = lower_source("global int x, y; thread t { x = 1; y = 2; }")
    report = lockset_analysis(cfa, variables=["x"])
    assert report.warns_on("x")
    assert not report.warns_on("y")


def _does_not_escape(cfa, variable):
    r = racer_check(cfa, variable)
    return r.verdict == "safe" and r.reason.startswith("does not escape")


def test_may_escape_requires_a_reachable_access():
    cfa = lower_source(
        "global int x, unused; thread t { while (1) { x = x + 1; } }"
    )
    assert _does_not_escape(cfa, "unused")
    assert not _does_not_escape(cfa, "x")


def test_may_escape_ignores_unreachable_accesses():
    # The write to y sits after an infinite loop: no thread can ever
    # observe it, so y must not count as escaped.
    cfa = lower_source(
        """
        global int x, y;
        thread t {
          while (1) { x = x + 1; }
          y = 1;
        }
        """
    )
    assert not _does_not_escape(cfa, "x")
    assert _does_not_escape(cfa, "y")


def test_must_locksets_are_monitor_aware():
    """A validated test-and-set flag counts as a held lock -- exactly
    what the tag-only Eraser dataflow misses."""
    cfa = lower_source(
        """
        global int s, x;
        thread t {
          while (1) {
            atomic { assume(s == 0); s = 1; }
            x = x + 1;
            s = 0;
          }
        }
        """
    )
    aware = held_locks(cfa)
    blind = held_locks(cfa, monitors=())
    x_sites = [q for q in cfa.locations if "x" in cfa.writes_at(q)]
    assert x_sites
    for q in x_sites:
        assert "s" in aware[q]
        assert "s" not in blind[q]


def test_figure1_lockset_warns_where_circ_proves_safe():
    """The ISSUE's required differential: on the Figure 1 test-and-set
    idiom the lockset discipline raises a (false) alarm while CIRC
    proves unbounded safety on the very same CFA."""
    cfa = lower_source(TEST_AND_SET_SOURCE)
    assert lockset_analysis(cfa).warns_on("x")
    assert circ(cfa, race_on="x").safe


def test_warnings_deterministically_sorted():
    """Regression: warnings come out sorted by variable and with sorted
    access sites regardless of the caller's iteration order."""
    cfa = lower_source(
        "global int c, a, b; thread t { while (1) { c = 1; a = 2; b = 3; } }"
    )
    for variables in (None, ["c", "a", "b"], {"b", "c", "a"}):
        report = lockset_analysis(cfa, variables=variables)
        names = [w.variable for w in report.warnings]
        assert names == sorted(names) == ["a", "b", "c"]
        for w in report.warnings:
            assert list(w.access_sites) == sorted(set(w.access_sites))
    # The candidate map iterates in sorted order too (stable CLI output).
    report = lockset_analysis(cfa, variables={"b", "c", "a"})
    assert list(report.candidate) == ["a", "b", "c"]
