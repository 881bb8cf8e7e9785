"""Giving up is a verdict: every budget returns UNKNOWN, on every path."""

import importlib

import pytest

from repro.circ import circ
from repro.circ.refine import RefinementFailure
from repro.circ.result import CircUnknown
from repro.engine import verify_one
from repro.lang.lower import lower_source
from repro.races.spec import check_race

TAS = """
global int x, state;
thread main {
  local int old;
  while (1) {
    atomic { old = state; if (state == 0) { state = 1; } }
    if (old == 0) { x = x + 1; state = 0; }
  }
}
"""

#: Every way CIRC gives up on Figure 1, with the reason it reports.
GIVE_UPS = [
    ({"max_iterations": 1}, "iteration budget of 1 exceeded"),
    ({"timeout_s": 0}, "wall-clock budget of 0s exceeded"),
    ({"max_outer": 1}, "no verdict after 1 outer iterations"),
    ({"max_inner": 1}, "inner loop did not converge in 1 iterations"),
    ({"max_states": 3}, "more than 3 abstract states"),
]

ENTRY_POINTS = {
    "circ": lambda **kw: circ(lower_source(TAS), race_on="x", **kw),
    "check_race": lambda **kw: check_race(TAS, "x", **kw),
    "check_race-prefilter": lambda **kw: check_race(TAS, "x", prefilter=True, **kw),
    "verify_one": lambda **kw: verify_one(lower_source(TAS), "x", **kw),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "options,reason", GIVE_UPS, ids=[next(iter(o)) for o, _ in GIVE_UPS]
)
def test_every_give_up_returns_unknown(entry, options, reason):
    result = ENTRY_POINTS[entry](**options)
    assert isinstance(result, CircUnknown)
    assert result.unknown and not result.safe
    assert result.reason == reason
    assert result.variable == "x"


def test_budget_carries_partial_stats():
    cfa = lower_source(TAS)
    result = circ(cfa, race_on="x", max_iterations=2)
    assert isinstance(result, CircUnknown)
    assert result.stats.inner_iterations <= 2
    assert result.stats.n_predicates == len(result.predicates)


def test_generous_budget_does_not_trigger():
    cfa = lower_source(TAS)
    result = circ(cfa, race_on="x", max_iterations=10_000, timeout_s=600.0)
    assert result.safe


def test_stalled_refinement_returns_unknown(monkeypatch):
    # Fuzzer-found (generator seed 55): when refinement stalls and the
    # bounded concrete fallback is inconclusive, circ() gives up with the
    # stall's reason -- never leaking the internal RefinementFailure
    # (callers treated that as a crash).
    circ_module = importlib.import_module("repro.circ.circ")

    def stall(*args, **kwargs):
        raise RefinementFailure("stalled")

    monkeypatch.setattr(circ_module, "refine", stall)
    monkeypatch.setattr(circ_module, "_concrete_fallback", stall)
    result = circ(lower_source(TAS), race_on="x")
    assert isinstance(result, CircUnknown)
    assert result.reason == "stalled"
    assert result.stats.outer_iterations == 1
