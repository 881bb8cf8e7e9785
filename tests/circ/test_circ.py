"""Integration tests for the CIRC main loop on the paper's idioms."""

import importlib

import pytest

from repro.circ import CircError, CircSafe, CircUnsafe, circ
from repro.exec import MultiProgram, replay
from repro.lang import lower_source
from repro.nesc.programs import TEST_AND_SET_SOURCE
from repro.smt import terms as T


@pytest.fixture(scope="module")
def fig1_cfa():
    return lower_source(TEST_AND_SET_SOURCE)


def test_figure1_is_safe(fig1_cfa):
    r = circ(fig1_cfa, race_on="x")
    assert isinstance(r, CircSafe)
    # The paper's predicates (or equivalents) are discovered.
    rendered = {T.pretty(p) for p in r.predicates}
    assert "old == state" in rendered
    assert "state == 0" in rendered
    assert "old == 0" in rendered


def test_figure1_final_acfa_shape(fig1_cfa):
    r = circ(fig1_cfa, race_on="x")
    a = r.context
    # The inferred context writes x somewhere and tracks state through its
    # labels; the start location is unconstrained.
    assert any("x" in e.havoc for e in a.edges)
    assert a.label[a.q0] == ()
    st1_locs = [
        q
        for q in a.locations
        if any("state" in T.free_vars(lit) for lit in a.label[q])
    ]
    assert st1_locs, "some location must constrain state"


def test_figure1_omega_variant(fig1_cfa):
    r = circ(fig1_cfa, race_on="x", variant="omega")
    assert r.safe


def test_figure1_without_atomic_races():
    src = TEST_AND_SET_SOURCE.replace("atomic {", "{")
    r = circ(lower_source(src), race_on="x")
    assert isinstance(r, CircUnsafe)
    # The witness replays under the concrete semantics.
    program = MultiProgram.symmetric(lower_source(src), r.n_threads)
    ok, _ = replay(program, r.steps, race_on="x")
    assert ok


def test_unprotected_counter_races():
    r = circ(
        lower_source("global int x; thread m { while (1) { x = x + 1; } }"),
        race_on="x",
    )
    assert not r.safe
    assert r.n_threads >= 2


def test_counterexample_that_fails_replay_is_an_internal_error(monkeypatch):
    """Every counterexample is replayed concretely before it is reported;
    one that does not replay is a CircError, never a race verdict."""
    circ_module = importlib.import_module("repro.circ.circ")
    monkeypatch.setattr(circ_module, "replay", lambda *a, **kw: (False, None))
    with pytest.raises(CircError, match="failed concrete replay"):
        circ(
            lower_source("global int x; thread m { while (1) { x = x + 1; } }"),
            race_on="x",
        )


def test_lock_discipline_safe():
    src = """
    global int m, x;
    thread t { while (1) { lock(m); x = x + 1; unlock(m); } }
    """
    r = circ(lower_source(src), race_on="x")
    assert r.safe


def test_atomic_sections_safe_without_predicates():
    src = "global int x; thread t { while (1) { atomic { x = x + 1; } } }"
    r = circ(lower_source(src), race_on="x")
    assert r.safe
    assert len(r.predicates) == 0


def test_read_only_variable_is_safe():
    src = """
    global int x, y;
    thread t { local int tmp; while (1) { tmp = x; y = tmp; } }
    """
    r = circ(lower_source(src), race_on="x")
    assert r.safe


def test_read_write_race():
    src = """
    global int x;
    thread t { local int tmp; while (1) { tmp = x; x = tmp + 1; } }
    """
    r = circ(lower_source(src), race_on="x")
    assert isinstance(r, CircUnsafe)


def test_initial_predicates_accelerate(fig1_cfa):
    preds = [
        T.eq(T.var("old"), T.var("state")),
        T.eq(T.var("state"), 0),
        T.eq(T.var("old"), 0),
    ]
    r = circ(fig1_cfa, race_on="x", initial_predicates=preds)
    assert r.safe
    assert r.stats.outer_iterations == 1


def test_history_records_iterations(fig1_cfa):
    r = circ(fig1_cfa, race_on="x", keep_history=True)
    events = [rec.event for rec in r.stats.history]
    assert "reach" in events
    assert "converged" in events
    assert any(rec.event == "refine" for rec in r.stats.history)


def test_requires_a_question():
    cfa = lower_source("global int x; thread t { x = 1; }")
    with pytest.raises(ValueError):
        circ(cfa)


def test_unknown_variant_rejected():
    # Anything but "circ" would otherwise explore with exactly k context
    # threads, and anything but "omega" would skip the infinity-check.
    cfa = lower_source("global int x; thread t { x = 1; }")
    with pytest.raises(ValueError, match="unknown variant"):
        circ(cfa, race_on="x", variant="Omega")


def test_non_global_race_variable_rejected():
    # Nothing accesses a name the program does not declare, so a run
    # would "prove" it race-free.
    cfa = lower_source("global int x; thread t { x = 1; }")
    with pytest.raises(ValueError, match="not a global"):
        circ(cfa, race_on="nope")


def test_assertion_checking_mode():
    src = """
    global int g;
    thread t {
      atomic { assume(g == 0); g = 1; }
      assert(g == 1);
      g = 0;
    }
    """
    r = circ(lower_source(src), check_errors=True)
    assert r.safe


def test_assertion_violation_found():
    src = """
    global int g;
    thread t {
      g = g + 1;
      assert(g == 1);
    }
    """
    # With two threads interleaving, g can be 2 at the assert.
    r = circ(lower_source(src), check_errors=True)
    assert isinstance(r, CircUnsafe)


def test_verdicts_agree_with_explicit_oracle():
    """Cross-check CIRC against exhaustive exploration on bounded programs."""
    from repro.exec import explore

    programs = [
        ("global int x; thread t { while (1) { atomic { x = 1 - x; } } }", None),
        ("global int x; thread t { while (1) { x = 1 - x; } }", None),
        (
            "global int m, x; thread t { while (1) { lock(m); x = 1 - x; unlock(m); } }",
            None,
        ),
    ]
    for src, _ in programs:
        cfa = lower_source(src)
        verdict = circ(cfa, race_on="x").safe
        oracle = not explore(
            MultiProgram.symmetric(cfa, 3), race_on="x"
        ).found
        # CIRC covers MORE threads than the oracle; a CIRC-safe verdict
        # must agree with any bounded instance, and a CIRC-unsafe verdict
        # is validated by replay, so on these small programs they coincide.
        assert verdict == oracle, src
