"""Unit tests for abstract program states and the abstract post."""

from repro.acfa.acfa import Acfa, AcfaEdge, empty_acfa
from repro.context.counters import OMEGA, ContextState
from repro.context.state import AbstractProgram, CtxMove, MainMove
from repro.lang import lower_source
from repro.predabs.abstractor import Abstractor
from repro.predabs.region import PredicateSet
from repro.reach import ArgStore
from repro.smt import terms as T

SRC = """
global int g;
thread m {
  while (1) {
    atomic { assume(g == 0); g = 1; }
    g = 0;
  }
}
"""


def make_program(acfa=None, preds=(), k=1):
    cfa = lower_source(SRC)
    ab = Abstractor(PredicateSet(preds))
    return AbstractProgram(cfa, ab, acfa or empty_acfa(), k)


def ctx_acfa():
    g0, g1 = T.eq(T.var("g"), 0), T.eq(T.var("g"), 1)
    return Acfa(
        "ctx",
        q0=0,
        locations=[0, 1],
        label={0: (), 1: (g1,)},
        edges=[
            AcfaEdge(0, frozenset({"g"}), 1),
            AcfaEdge(1, frozenset({"g"}), 0),
        ],
    )


def test_initial_state_omega():
    p = make_program()
    s = p.initial()
    assert s.pc == p.cfa.q0
    assert s.context.count(p.acfa.q0) is OMEGA


def test_initial_state_exact():
    p = make_program(k=3)
    s = p.initial(omega_start=False)
    assert s.context.count(p.acfa.q0) == 3


def test_enabled_moves_without_context_edges():
    p = make_program()
    s = p.initial()
    moves = list(p.enabled_moves(s))
    assert all(isinstance(m, MainMove) for m in moves)
    assert len(moves) == 1  # single loop-entry edge


def test_enabled_moves_include_context():
    p = make_program(acfa=ctx_acfa())
    s = p.initial()
    kinds = {type(m) for m in p.enabled_moves(s)}
    assert kinds == {MainMove, CtxMove}


def test_atomic_main_excludes_context():
    preds = (T.eq(T.var("g"), 0),)
    p = make_program(acfa=ctx_acfa(), preds=preds)
    s = p.initial()
    # Drive main into the atomic section.
    (entry,) = [m for m in p.enabled_moves(s) if isinstance(m, MainMove)]
    s1 = p.post(s, entry, ArgStore())
    assert p.cfa.is_atomic(s1.pc)
    moves = list(p.enabled_moves(s1))
    assert all(isinstance(m, MainMove) for m in moves)


def test_post_main_tracks_predicates():
    g0 = T.eq(T.var("g"), 0)
    g1 = T.eq(T.var("g"), 1)
    p = make_program(preds=(g0, g1))
    s = p.initial()
    # g==0 initially.
    idx0 = p.abstractor.preds.index(g0)
    assert (idx0, True) in s.region.literals


def test_post_context_havoc_weakens():
    g0 = T.eq(T.var("g"), 0)
    p = make_program(acfa=ctx_acfa(), preds=(g0,))
    s = p.initial()
    (ctx_move,) = [
        m
        for m in p.enabled_moves(s)
        if isinstance(m, CtxMove) and m.edge.src == 0
    ]
    s1 = p.post(s, ctx_move, ArgStore())
    assert s1 is not None
    # g==0 forgotten; target label g==1 forces not (g==0).
    idx0 = p.abstractor.preds.index(g0)
    assert (idx0, False) in s1.region.literals
    assert s1.context.count(1) == 1


def test_post_context_respects_target_label_contradiction():
    # Context invariant of the *new* state includes the target label; a
    # main-edge assume contradicting it dies.
    g1 = T.eq(T.var("g"), 1)
    p = make_program(acfa=ctx_acfa(), preds=(T.eq(T.var("g"), 0), g1))
    s = p.initial()
    (ctx_move,) = [
        m
        for m in p.enabled_moves(s)
        if isinstance(m, CtxMove) and m.edge.src == 0
    ]
    s1 = p.post(s, ctx_move, ArgStore())
    # Main's atomic-entry edge then assume(g==0) must be pruned: a context
    # thread sits at location 1 labeled g==1.
    (entry,) = [m for m in p.enabled_moves(s1) if isinstance(m, MainMove)]
    s2 = p.post(s1, entry, ArgStore())
    assert s2 is not None
    (assume_move,) = [
        m for m in p.enabled_moves(s2) if isinstance(m, MainMove)
    ]
    s3 = p.post(s2, assume_move, ArgStore())
    assert s3 is None  # g==0 against the g==1 invariant


def test_race_state_main_vs_context():
    cfa = lower_source("global int x; thread m { while (1) { x = x + 1; } }")
    acfa = Acfa(
        "w",
        q0=0,
        locations=[0],
        label={0: ()},
        edges=[AcfaEdge(0, frozenset({"x"}), 0)],
    )
    ab = Abstractor(PredicateSet())
    p = AbstractProgram(cfa, ab, acfa, 1)
    s = p.initial()
    assert p.is_race_state(s, "x")


def test_race_needs_two_context_writers_when_main_idle():
    cfa = lower_source("global int x, y; thread m { y = 1; }")
    acfa = Acfa(
        "w",
        q0=0,
        locations=[0, 1],
        label={0: (), 1: ()},
        edges=[AcfaEdge(1, frozenset({"x"}), 1)],
    )
    ab = Abstractor(PredicateSet())
    p = AbstractProgram(cfa, ab, acfa, 2)
    # One writer at location 1: no race.
    s1 = type(p.initial())(
        p.cfa.q0, p.initial().region, ContextState([OMEGA, 1])
    )
    assert not p.is_race_state(s1, "x")
    # Two writers: race.
    s2 = type(p.initial())(
        p.cfa.q0, p.initial().region, ContextState([OMEGA, 2])
    )
    assert p.is_race_state(s2, "x")
    # OMEGA writers: race.
    s3 = type(p.initial())(
        p.cfa.q0, p.initial().region, ContextState([OMEGA, OMEGA])
    )
    assert p.is_race_state(s3, "x")


def test_no_race_when_atomic_occupied():
    cfa = lower_source(
        "global int x; thread m { while (1) { atomic { x = x + 1; } } }"
    )
    acfa = Acfa(
        "w",
        q0=0,
        locations=[0, 1],
        label={0: (), 1: ()},
        edges=[AcfaEdge(0, frozenset(), 1), AcfaEdge(1, frozenset({"x"}), 0)],
        atomic=[1],
    )
    ab = Abstractor(PredicateSet())
    p = AbstractProgram(cfa, ab, acfa, 1)
    s = type(p.initial())(
        p.cfa.q0, p.initial().region, ContextState([OMEGA, 1])
    )
    # Context thread at atomic location 1 -> no race even though it havocs x
    # and main may write x further on.
    assert not p.is_race_state(s, "x")
