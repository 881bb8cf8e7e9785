"""Tests for asymmetric thread sets (circ_multi)."""

import importlib

import pytest

from repro.circ import (
    CircError,
    CircUnknown,
    MultiSafe,
    MultiUnsafe,
    circ_multi,
)
from repro.exec import MultiProgram, explore
from repro.lang import lower_program, lower_source

HANDOFF = """
global int buf, full;
thread producer {
  while (1) {
    atomic { assume(full == 0); full = 1; }
    buf = buf + 1;
    full = 2;
  }
}
thread consumer {
  while (1) {
    atomic { assume(full == 2); full = 3; }
    buf = 0;
    full = 0;
  }
}
"""

BROKEN = HANDOFF.replace("assume(full == 2)", "assume(full == 1)")


def test_handoff_safe():
    r = circ_multi(lower_program(HANDOFF), race_on="buf")
    assert isinstance(r, MultiSafe)
    assert set(r.templates) == {"producer", "consumer"}
    assert set(r.contexts) == {"producer", "consumer"}


def test_handoff_flag_also_safe():
    r = circ_multi(lower_program(HANDOFF), race_on="full")
    assert r.safe


def test_broken_handoff_races_with_attribution():
    r = circ_multi(lower_program(BROKEN), race_on="buf")
    assert isinstance(r, MultiUnsafe)
    roles = set(r.template_of.values())
    assert roles == {"producer", "consumer"}


def test_witness_replays_concretely():
    cfas = lower_program(BROKEN)
    r = circ_multi(cfas, race_on="buf")
    assert not r.safe
    order = sorted(r.template_of)
    mp = MultiProgram([cfas[r.template_of[t]] for t in order])
    remap = {t: i for i, t in enumerate(order)}
    from repro.exec import replay

    ok, _ = replay(mp, [(remap[t], e) for t, e in r.steps], race_on="buf")
    assert ok


def test_witness_that_fails_replay_is_an_internal_error(monkeypatch):
    multi = importlib.import_module("repro.circ.multi")
    monkeypatch.setattr(multi, "replay", lambda *a, **kw: (False, None))
    with pytest.raises(CircError, match="multi-template witness failed replay"):
        circ_multi(lower_program(BROKEN), race_on="buf")


def test_single_template_degenerates_to_symmetric():
    from repro.circ import circ
    from repro.nesc.programs import TEST_AND_SET_SOURCE

    cfa = lower_source(TEST_AND_SET_SOURCE)
    multi = circ_multi({"main": cfa}, race_on="x")
    sym = circ(cfa, race_on="x")
    assert multi.safe == sym.safe == True  # noqa: E712


def test_reader_writer_asymmetry():
    src = """
    global int data, lk;
    thread writer {
      while (1) { lock(lk); data = data + 1; unlock(lk); }
    }
    thread reader {
      local int snap;
      while (1) { lock(lk); snap = data; unlock(lk); }
    }
    """
    r = circ_multi(lower_program(src), race_on="data")
    assert r.safe


def test_reader_writer_without_lock_races():
    src = """
    global int data;
    thread writer {
      while (1) { data = data + 1; }
    }
    thread reader {
      local int snap;
      while (1) { snap = data; }
    }
    """
    r = circ_multi(lower_program(src), race_on="data")
    assert isinstance(r, MultiUnsafe)


def test_mismatched_globals_rejected():
    a = lower_source("global int g; thread a { g = 1; }")
    b = lower_source("global int h; thread b { h = 1; }")
    with pytest.raises(ValueError):
        circ_multi({"a": a, "b": b}, race_on="g")


def test_empty_templates_rejected():
    with pytest.raises(ValueError):
        circ_multi({}, race_on="x")


def test_agrees_with_bounded_oracle():
    """One producer + one consumer explicit-state vs the unbounded proof."""
    cfas = lower_program(HANDOFF)
    r = circ_multi(cfas, race_on="buf")
    assert r.safe
    mp = MultiProgram([cfas["producer"], cfas["consumer"]])
    # buf grows unboundedly -> bound the search; absence within the budget
    # is only a smoke check, the real guarantee is CIRC's.
    result = explore(mp, race_on="buf", max_states=30_000)
    assert not result.found


def test_state_budget_returns_unknown():
    r = circ_multi(lower_program(HANDOFF), race_on="buf", max_states=3)
    assert isinstance(r, CircUnknown)
    assert r.reason == "more than 3 abstract states"


def test_stalled_refinement_returns_unknown(monkeypatch):
    multi = importlib.import_module("repro.circ.multi")
    monkeypatch.setattr(multi, "_useful_predicates", lambda mined, preds: [])
    r = circ_multi(lower_program(HANDOFF), race_on="buf")
    assert isinstance(r, CircUnknown)
    assert r.reason == "multi-template refinement found no new predicates"
