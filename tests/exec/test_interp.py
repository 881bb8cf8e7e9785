"""Unit tests for the explicit-state interpreter and explorer."""

import pytest

from repro.cfa.cfa import AssignOp, Edge
from repro.exec import MultiProgram, explore, replay
from repro.exec.interp import breadth_first_search
from repro.fuzz.gen import GenConfig, generate
from repro.lang import lower_source
from repro.smt.terms import IntConst

FIG1 = """
global int x, state;
thread main {
  local int old;
  while (1) {
    atomic {
      old = state;
      if (state == 0) { state = 1; }
    }
    if (old == 0) {
      x = x + 1;
      state = 0;
    }
  }
}
"""

UNPROTECTED = """
global int x;
thread main {
  while (1) {
    x = x + 1;
  }
}
"""

LOCKED = """
global int m, x;
thread main {
  while (1) {
    lock(m);
    x = 1 - x;
    unlock(m);
  }
}
"""

# Bounded-data variant of FIG1 for exhaustive-oracle tests (the real
# program's counter grows without bound; the toggle keeps the same
# access and synchronization pattern with a finite state space).
FIG1_BOUNDED = FIG1.replace("x = x + 1;", "x = 1 - x;")


def test_initial_state_zeros():
    cfa = lower_source(FIG1)
    p = MultiProgram.symmetric(cfa, 2)
    s = p.initial()
    assert s.global_env() == {"x": 0, "state": 0}
    assert all(pc == cfa.q0 for pc, _ in s.threads)


def test_initial_state_respects_global_init():
    cfa = lower_source("global int g = 7; thread m { g = g + 1; }")
    p = MultiProgram.symmetric(cfa, 1)
    assert p.initial().global_env() == {"g": 7}


def test_single_thread_progress():
    cfa = lower_source("global int g; thread m { g = 1; g = 2; }")
    p = MultiProgram.symmetric(cfa, 1)
    s = p.initial()
    seen_values = {s.global_env()["g"]}
    for _ in range(2):
        succs = list(p.successors(s))
        assert len(succs) == 1
        s = succs[0][2]
        seen_values.add(s.global_env()["g"])
    assert seen_values == {0, 1, 2}
    assert list(p.successors(s)) == []


def test_assume_blocks():
    cfa = lower_source("global int g; thread m { assume(g == 1); g = 2; }")
    p = MultiProgram.symmetric(cfa, 1)
    assert list(p.successors(p.initial())) == []


def test_atomic_scheduling_excludes_others():
    cfa = lower_source(
        "global int g; thread m { atomic { g = g + 1; g = g + 1; } }"
    )
    p = MultiProgram.symmetric(cfa, 2)
    s = p.initial()
    # Step thread 0 into the atomic block.
    (thread, edge, s1) = next(
        (t, e, n) for t, e, n in p.successors(s) if t == 0
    )
    assert p.atomic_thread(s1) == 0
    # Now only thread 0 is schedulable.
    assert p.schedulable(s1) == [0]
    assert all(t == 0 for t, _, _ in p.successors(s1))


def test_race_detected_in_unprotected_counter():
    cfa = lower_source(UNPROTECTED)
    p = MultiProgram.symmetric(cfa, 2)
    result = explore(p, race_on="x", max_states=10_000)
    assert result.found
    ok, _ = replay(p, result.witness.steps, race_on="x")
    assert ok


def test_no_race_with_lock():
    cfa = lower_source(LOCKED)
    p = MultiProgram.symmetric(cfa, 2)
    result = explore(p, race_on="x", max_states=50_000)
    assert result.complete and not result.found


def test_figure1_is_race_free_for_two_threads():
    cfa = lower_source(FIG1_BOUNDED)
    p = MultiProgram.symmetric(cfa, 2)
    result = explore(p, race_on="x", max_states=100_000)
    assert result.complete
    assert not result.found


def test_figure1_is_race_free_for_three_threads():
    cfa = lower_source(FIG1_BOUNDED)
    p = MultiProgram.symmetric(cfa, 3)
    result = explore(p, race_on="x", max_states=200_000)
    assert result.complete
    assert not result.found


def test_figure1_without_atomic_has_race():
    source = FIG1_BOUNDED.replace("atomic {", "{")
    cfa = lower_source(source)
    p = MultiProgram.symmetric(cfa, 2)
    result = explore(p, race_on="x", max_states=100_000)
    assert result.found
    ok, _ = replay(p, result.witness.steps, race_on="x")
    assert ok


def test_assert_failure_reached():
    cfa = lower_source(
        "global int g; thread m { g = 1; assert(g == 0); }"
    )
    p = MultiProgram.symmetric(cfa, 1)
    result = explore(p, check_errors=True)
    assert result.found


def test_assert_success_not_flagged():
    cfa = lower_source(
        "global int g; thread m { g = 1; assert(g == 1); }"
    )
    p = MultiProgram.symmetric(cfa, 1)
    result = explore(p, check_errors=True)
    assert result.complete and not result.found


def test_replay_rejects_bogus_traces():
    cfa = lower_source("global int g; thread m { assume(g == 1); }")
    p = MultiProgram.symmetric(cfa, 1)
    edge = cfa.out(cfa.q0)[0]
    ok, _ = replay(p, [(0, edge)])
    assert not ok


def forged_race(cfa, variable):
    """Two steps of a made-up edge ``variable := 0`` from the start location
    to a location that writes ``variable``: not an edge of ``cfa``."""
    writes = next(q for q in sorted(cfa.locations) if cfa.may_write(q, variable))
    forged = Edge(cfa.q0, AssignOp(variable, IntConst(0)), writes)
    assert forged not in cfa.edges
    return [(0, forged), (1, forged)]


def test_replay_rejects_an_edge_outside_the_thread_cfa():
    # Figure 1 is race-free, but the forged steps would park both threads
    # at the increment of x.
    cfa = lower_source(FIG1)
    p = MultiProgram.symmetric(cfa, 2)
    ok, states = replay(p, forged_race(cfa, "x"), race_on="x")
    assert not ok and states == [p.initial()]


def test_budget_exhaustion_reports_incomplete():
    cfa = lower_source("global int g; thread m { while (1) { g = g + 1; } }")
    p = MultiProgram.symmetric(cfa, 1)
    result = explore(p, race_on="g", max_states=50)
    assert not result.complete


def test_witness_is_shortest():
    cfa = lower_source(UNPROTECTED)
    p = MultiProgram.symmetric(cfa, 2)
    result = explore(p, race_on="x")
    # Both threads just need to reach the increment location: the loop-head
    # assume for each thread.
    assert len(result.witness.steps) <= 4


def test_mismatched_globals_rejected():
    a = lower_source("global int g; thread m { g = 1; }")
    b = lower_source("global int h; thread m { h = 1; }")
    with pytest.raises(ValueError):
        MultiProgram([a, b])


def test_deadline_exhaustion_reports_incomplete():
    # A deadline in the past stops the exploration immediately; like the
    # state budget, truncation is reported as incomplete, never as a
    # (vacuous) safety claim.
    cfa = lower_source("global int g; thread m { while (1) { g = g + 1; } }")
    p = MultiProgram.symmetric(cfa, 1)
    result = explore(p, race_on="g", deadline=0.0)
    assert not result.complete
    assert result.witness is None


def test_non_global_race_variable_rejected():
    cfa = lower_source(UNPROTECTED)
    with pytest.raises(ValueError, match="not a global"):
        explore(MultiProgram.symmetric(cfa, 2), race_on="nope")


def test_nothing_to_check_rejected():
    cfa = lower_source(UNPROTECTED)
    with pytest.raises(ValueError, match="nothing to check"):
        explore(MultiProgram.symmetric(cfa, 2))


def test_race_in_the_initial_state_prints_that_state():
    cfa = lower_source("global int y; thread t { y = y + 1; }")
    p = MultiProgram.symmetric(cfa, 2)
    result = explore(p, race_on="y")
    assert (result.visited, result.witness.steps) == (1, [])
    assert str(result.witness) == f"initial state: {p.initial()}"


def test_search_reports_how_it_ended():
    cfa = lower_source(UNPROTECTED)
    p = MultiProgram.symmetric(cfa, 2)
    assert breadth_first_search(p, lambda s: False, 10).ended == "budget"
    hit = breadth_first_search(
        p, lambda s: p.is_race_state(s, "x"), 10_000
    )
    assert hit.ended == "stopped"
    witness = hit.witness(hit.goal)
    assert replay(p, witness.steps, race_on="x") == (True, witness.states)
    done = breadth_first_search(
        MultiProgram.symmetric(lower_source(FIG1_BOUNDED), 2),
        lambda s: False,
        100_000,
    )
    assert done.ended == "exhausted" and done.visited == len(done.parent)


def _depths(search):
    """State -> steps from the initial state, in discovery order."""
    depth = {}
    for state, via in search.parent.items():
        depth[state] = 0 if via is None else depth[via[0]] + 1
    return depth


@pytest.mark.parametrize("query", ["fig1", "fuzz7"])
def test_depth_bound_cuts_the_unbounded_search(query):
    if query == "fig1":
        program = MultiProgram.symmetric(lower_source(FIG1), 2)
    else:
        gp = generate(7, GenConfig(pointers=False))
        program = MultiProgram.symmetric(lower_source(gp.source, gp.thread), 3)
    full = breadth_first_search(program, lambda s: False, 5_000)
    depth = _depths(full)
    assert full.ended == "budget" and max(depth.values()) > 4
    for max_depth in range(4):
        fired = []

        def one_too_deep(state, max_depth=max_depth):
            fired.append(depth[state] == max_depth + 1)
            return fired[-1]

        cut = breadth_first_search(
            program, one_too_deep, 5_000, max_depth=max_depth
        )
        assert cut.ended == "depth" and not any(fired)
        assert list(cut.parent.items()) == [
            item for item in full.parent.items() if depth[item[0]] <= max_depth
        ]
        assert cut.visited == len(cut.parent)
    with pytest.raises(ValueError, match="max_depth"):
        breadth_first_search(program, lambda s: False, 10, max_depth=-1)
