"""Tests for the RacerF-style two-phase detector."""

import pytest

from repro.exec.interp import MultiProgram, replay
from repro.lang.lower import lower_source
from repro.portfolio.racer import racer_check

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

RACY = "global int x; thread t { while (1) { x = x + 1; } }"

LOCKED = (
    "global int m, x; "
    "thread t { while (1) { lock(m); x = x + 1; unlock(m); } }"
)

ATOMIC = "global int x; thread t0 { while (*) { atomic { x = 1 - x; } } }"

READ_ONLY = "global int x; thread t { local int a; while (1) { a = x; } }"


def test_racy_program_gets_witnessed_race():
    cfa = lower_source(RACY)
    r = racer_check(cfa, "x")
    assert r.verdict == "race"
    assert r.n_threads >= 2
    # The witness must replay: forged evidence is never reported.
    program = MultiProgram.symmetric(cfa, r.n_threads)
    ok, _ = replay(program, list(r.witness), race_on="x")
    assert ok


def test_lock_disciplined_program_proved_safe_in_phase1():
    cfa = lower_source(LOCKED)
    r = racer_check(cfa, "x")
    assert r.verdict == "safe"
    assert r.phase2_ms == 0.0  # phase 2 never ran
    proved = [p for p in r.pairs if p.status == "proved"]
    assert proved and all("mutual exclusion" in p.reason for p in proved)


def test_atomic_program_proved_safe():
    r = racer_check(lower_source(ATOMIC), "x")
    assert r.verdict == "safe"
    assert all(p.status == "proved" for p in r.pairs)


def test_read_only_variable_is_safe():
    r = racer_check(lower_source(READ_ONLY), "x")
    assert r.verdict == "safe"
    assert not r.undecided_pairs


def test_figure1_is_undecided_not_alarmed():
    # The Figure 1 test-and-set idiom defeats lockset-style reasoning;
    # the racer must neither warn (phase 2 finds no real witness) nor
    # claim safety (phase 1 cannot prove the monitor): the honest answer
    # is an explicit hand-off to CIRC.
    r = racer_check(lower_source(FIG1), "x")
    assert r.verdict == "unknown"
    assert r.undecided_pairs
    assert not r.witness


def test_every_pair_carries_a_status():
    r = racer_check(lower_source(RACY), "x")
    assert r.pairs
    assert all(
        p.status in ("proved", "witnessed", "undecided") for p in r.pairs
    )
    witnessed = [p for p in r.pairs if p.status == "witnessed"]
    assert witnessed
    for p in witnessed:
        program = MultiProgram.symmetric(lower_source(RACY), p.n_threads)
        ok, _ = replay(program, list(p.witness), race_on="x")
        assert ok


def test_phase1_proof_reasons_name_the_kill_rule():
    r = racer_check(lower_source(ATOMIC), "x")
    reasons = {p.reason for p in r.pairs if p.status == "proved"}
    assert any("atomic" in reason for reason in reasons)


def test_safe_claims_are_unbounded_strength():
    # Phase-1 safety must not depend on the phase-2 thread bound: the
    # same verdict holds under a tiny budget because the proof is a
    # static kill-rule argument, not a bounded search.
    r = racer_check(
        lower_source(LOCKED), "x", max_threads=2, max_states=10
    )
    assert r.verdict == "safe"


def test_non_global_variable_rejected():
    # Not "does not escape": an undeclared name is a usage error.
    with pytest.raises(ValueError, match="not a global"):
        racer_check(lower_source(RACY), "nope")
