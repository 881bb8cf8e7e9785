"""End-to-end scenarios across the whole pipeline."""

import pytest

from repro import check_race, check_race_bounded, lower_source
from repro.baselines import lockset_analysis
from repro.circ import CircUnsafe

DOUBLE_CHECKED = """
global int data, ready;
thread main {
  local int seen;
  while (1) {
    atomic { seen = ready; if (ready == 0) { ready = 1; } }
    if (seen == 0) {
      data = data + 1;
      ready = 0;
    }
  }
}
"""

HANDOFF = """
global int buf, full;
thread main {
  while (1) {
    if (*) {
      // producer: only writes when empty
      atomic { assume(full == 0); full = 1; }
      buf = buf + 1;
      full = 2;
    } else {
      // consumer: only reads when full
      atomic { assume(full == 2); full = 3; }
      buf = 0;
      full = 0;
    }
  }
}
"""

BROKEN_HANDOFF = """
global int buf, full;
thread main {
  while (1) {
    if (*) {
      atomic { assume(full == 0); full = 1; }
      buf = buf + 1;
      full = 2;
    } else {
      // BUG: consumes while the producer may still be writing
      atomic { assume(full == 1); full = 3; }
      buf = 0;
      full = 0;
    }
  }
}
"""


def test_double_checked_idiom_safe():
    result = check_race(DOUBLE_CHECKED, "data")
    assert result.safe


def test_handoff_protocol_safe():
    result = check_race(HANDOFF, "buf")
    assert result.safe


def test_broken_handoff_races():
    result = check_race(BROKEN_HANDOFF, "buf")
    assert isinstance(result, CircUnsafe)


def test_state_variable_also_safe():
    # The protecting variable itself: written inside atomic sections and at
    # guarded points only.
    result = check_race(HANDOFF, "full")
    assert result.safe


def test_lockset_false_positive_circ_proof_pair():
    cfa = lower_source(DOUBLE_CHECKED)
    assert lockset_analysis(cfa).warns_on("data")
    assert check_race(cfa, "data").safe


def test_every_written_global_checkable():
    from repro.races import racy_variables

    cfa = lower_source(DOUBLE_CHECKED)
    for var in sorted(racy_variables(cfa)):
        result = check_race(cfa, var)
        assert result.safe, var


def test_unbounded_data_still_verifiable():
    # data grows without bound; predicate abstraction handles it where the
    # explicit oracle cannot.
    result = check_race(DOUBLE_CHECKED, "data")
    assert result.safe
    bounded = check_race_bounded(
        DOUBLE_CHECKED, "data", n_threads=2, max_states=5_000
    )
    assert not bounded.complete  # the oracle gives up; CIRC does not


@pytest.mark.parametrize("n", [2, 3])
def test_bounded_oracle_agrees_on_finite_variant(n):
    src = DOUBLE_CHECKED.replace("data = data + 1;", "data = 1 - data;")
    assert check_race(src, "data").safe
    oracle = check_race_bounded(src, "data", n_threads=n)
    assert oracle.complete and not oracle.found
