"""Unit tests for monitor inference and held-lock sets."""

from repro.lang import lower_source
from repro.static import ATOMIC_LOCK, held_locks, infer_monitors

LOCKED = """
global int m, x;
thread t { while (1) { lock(m); x = x + 1; unlock(m); } }
"""

TEST_AND_SET = """
global int s, x;
thread t {
  while (1) {
    atomic { assume(s == 0); s = 1; }
    x = x + 1;
    s = 0;
  }
}
"""

FIG1 = """
global int x, state;
thread main {
  local int old;
  while (1) {
    atomic { old = state; if (state == 0) { state = 1; } }
    if (old == 0) { x = x + 1; state = 0; }
  }
}
"""


def _monitor(cfa, name):
    for m in infer_monitors(cfa):
        if m.variable == name:
            return m
    return None


def test_tagged_lock_is_a_monitor():
    cfa = lower_source(LOCKED)
    m = _monitor(cfa, "m")
    assert m is not None and m.kind == "lock"
    # The x-incrementing location must-holds the mutex.
    x_sites = [q for q in cfa.locations if "x" in cfa.writes_at(q)]
    assert x_sites and all(m.holds_at(q) for q in x_sites)


def test_unconditional_test_and_set_is_a_monitor():
    cfa = lower_source(TEST_AND_SET)
    m = _monitor(cfa, "s")
    assert m is not None and m.kind == "test-and-set"
    x_sites = [q for q in cfa.locations if "x" in cfa.writes_at(q)]
    assert x_sites and all(m.holds_at(q) for q in x_sites)
    assert m.acquire_sites and m.release_sites


def test_conditional_test_and_set_is_not_a_monitor():
    """Figure 1's idiom: holding is only known through the local ``old``,
    so location-based inference must refuse it (CIRC's job)."""
    cfa = lower_source(FIG1)
    assert _monitor(cfa, "state") is None


def test_unguarded_set_disqualifies():
    cfa = lower_source("global int s; thread t { while (1) { s = 1; s = 0; } }")
    assert _monitor(cfa, "s") is None


def test_release_without_holding_disqualifies():
    cfa = lower_source(
        """
        global int s, x;
        thread t {
          while (1) {
            if (*) { s = 0; }
            atomic { assume(s == 0); s = 1; }
            x = x + 1;
            s = 0;
          }
        }
        """
    )
    assert _monitor(cfa, "s") is None


def test_nonzero_initial_value_disqualifies():
    cfa = lower_source(
        """
        global int s = 1, x;
        thread t {
          while (1) {
            atomic { assume(s == 0); s = 1; }
            x = x + 1;
            s = 0;
          }
        }
        """
    )
    assert _monitor(cfa, "s") is None


def test_holder_may_update_its_own_flag():
    """Multi-valued state machines: s := 2 while holding stays a monitor."""
    cfa = lower_source(
        """
        global int s, x;
        thread t {
          while (1) {
            atomic { assume(s == 0); s = 1; }
            s = 2;
            x = x + 1;
            s = 0;
          }
        }
        """
    )
    assert _monitor(cfa, "s") is not None


def test_held_locks_include_atomic_pseudo_lock():
    cfa = lower_source(
        "global int x; thread t { while (1) { atomic { x = x + 1; } } }"
    )
    held = held_locks(cfa)
    x_sites = [q for q in cfa.locations if "x" in cfa.writes_at(q)]
    assert x_sites and all(ATOMIC_LOCK in held[q] for q in x_sites)
