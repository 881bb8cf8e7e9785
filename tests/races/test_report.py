"""Tests for the audit-report module."""

from repro.lang import lower_source
from repro.races.report import audit, render_markdown

SAFE_SRC = """
global int x, state;
thread main {
  local int old;
  while (1) {
    atomic { old = state; if (state == 0) { state = 1; } }
    if (old == 0) { x = x + 1; state = 0; }
  }
}
"""

# The first operation does not touch x, so a witness needs real steps.
RACY_SRC = "global int x, y; thread t { y = 1; while (1) { x = x + 1; } }"


def test_audit_safe_program():
    report = audit(lower_source(SAFE_SRC), name="fig1")
    assert {v.variable for v in report.variables} == {"x", "state"}
    assert not report.races
    assert len(report.proved) == 2
    # Both are lockset false positives discharged by CIRC.
    assert len(report.false_positives) == 2


def test_audit_racy_program():
    report = audit(lower_source(RACY_SRC), name="bad")
    entry = next(v for v in report.variables if v.variable == "x")
    assert entry.verdict == "race"
    assert entry.witness
    assert entry.n_threads >= 2


def test_audit_restricted_variables():
    report = audit(lower_source(SAFE_SRC), variables=["x"])
    assert [v.variable for v in report.variables] == ["x"]


def test_audit_runs_circ_on_lock_disciplined_variables():
    """A variable the lockset baseline does not warn on is still proved
    by CIRC, not taken on the baseline's word."""
    src = "global int m, x; thread t { while (1) { lock(m); x = x + 1; unlock(m); } }"
    report = audit(lower_source(src), variables=["x"])
    (entry,) = report.variables
    assert not entry.lockset_warns and entry.candidate_lockset == ("m",)
    assert entry.verdict == "safe" and entry.acfa_size > 0


def test_audit_budget_leaves_a_variable_undecided():
    report = audit(lower_source(SAFE_SRC), variables=["x"], max_iterations=1)
    (entry,) = report.variables
    assert entry.verdict == "undecided"
    assert entry.detail == "iteration budget of 1 exceeded"
    assert not report.proved and not report.races


def test_render_markdown_structure():
    report = audit(lower_source(SAFE_SRC), name="fig1")
    md = render_markdown(report)
    assert md.startswith("# Race audit: fig1")
    assert "| `x` |" in md
    assert "**safe**" in md
    assert "old == state" in md


def test_render_markdown_race_witness():
    report = audit(lower_source(RACY_SRC), name="bad")
    md = render_markdown(report)
    assert "race witness" in md
    assert "```" in md
