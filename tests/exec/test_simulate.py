"""Tests for the random-schedule simulator."""

import pytest

from repro.exec import MultiProgram, replay, simulate
from repro.lang import lower_source


def test_finds_obvious_race():
    cfa = lower_source("global int x; thread t { while (1) { x = x + 1; } }")
    mp = MultiProgram.symmetric(cfa, 2)
    result = simulate(mp, race_on="x", runs=20, seed=1)
    assert result.found
    # Simulator witnesses are genuine by construction: they replay.
    ok, _ = replay(mp, result.witness.steps, race_on="x")
    assert ok


def test_respects_protection():
    cfa = lower_source(
        "global int x; thread t { while (1) { atomic { x = x + 1; } } }"
    )
    mp = MultiProgram.symmetric(cfa, 3)
    result = simulate(mp, race_on="x", runs=30, max_steps=300, seed=2)
    assert not result.found
    assert result.steps_total > 0


def test_detects_assertion_failures():
    cfa = lower_source("global int g; thread t { g = g + 1; assert(g == 1); }")
    mp = MultiProgram.symmetric(cfa, 2)
    result = simulate(mp, check_errors=True, runs=200, seed=3)
    assert result.found


def test_counts_deadlocks():
    cfa = lower_source("global int g; thread t { assume(g == 1); }")
    mp = MultiProgram.symmetric(cfa, 1)
    result = simulate(mp, race_on="g", runs=5, seed=4)
    assert not result.found
    assert result.deadlocks == 5


def test_terminated_runs_are_not_deadlocks():
    # Straight-line program: every thread runs off the end of its CFA.
    cfa = lower_source("global int g; thread t { g = 1; }")
    mp = MultiProgram.symmetric(cfa, 2)
    result = simulate(mp, check_errors=True, runs=5, max_steps=50, seed=4)
    assert not result.found
    assert result.deadlocks == 0
    assert result.terminations == 5


def test_blocked_acquire_is_a_deadlock():
    # The flag starts raised, so the monitor acquire's assume is never
    # enabled: every thread still has an out-edge but none can move --
    # a deadlock, not a termination.
    cfa = lower_source(
        "global int f = 1; thread t { atomic { assume(f == 0); f = 1; } }"
    )
    mp = MultiProgram.symmetric(cfa, 2)
    result = simulate(mp, race_on="f", runs=4, max_steps=50, seed=5)
    assert not result.found
    assert result.terminations == 0
    assert result.deadlocks == 4


def test_deterministic_under_seed():
    cfa = lower_source("global int x; thread t { while (1) { x = 1 - x; } }")
    mp = MultiProgram.symmetric(cfa, 2)
    a = simulate(mp, race_on="x", runs=3, seed=7)
    b = simulate(mp, race_on="x", runs=3, seed=7)
    assert a.found == b.found and a.steps_total == b.steps_total


def test_non_global_race_variable_rejected():
    cfa = lower_source("global int x; thread t { while (1) { x = x + 1; } }")
    with pytest.raises(ValueError, match="not a global"):
        simulate(MultiProgram.symmetric(cfa, 2), race_on="nope")


def test_nothing_to_check_rejected():
    cfa = lower_source("global int x; thread t { while (1) { x = x + 1; } }")
    with pytest.raises(ValueError, match="nothing to check"):
        simulate(MultiProgram.symmetric(cfa, 2))


def test_race_in_the_initial_state_prints_that_state():
    cfa = lower_source("global int y; thread t { y = y + 1; }")
    mp = MultiProgram.symmetric(cfa, 2)
    result = simulate(mp, race_on="y", runs=1, seed=0)
    assert result.witness.steps == []
    assert str(result.witness) == f"initial state: {mp.initial()}"
