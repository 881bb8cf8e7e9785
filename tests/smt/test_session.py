"""Tests for incremental sessions and assumption-based SAT solving.

The property test mirrors the expression shapes of :mod:`repro.fuzz.gen`
(small variable pool, constants 0..2, all six comparisons, and/or/not
nesting) and checks that one long-lived :class:`Session` agrees with a
fresh single-query :class:`Solver` (the reference in
``solver_reference.py``) on every formula -- the soundness contract that
makes learned-clause and theory-lemma retention safe.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import terms as T
from repro.smt.sat import SAT, SatSolver, UNSAT
from repro.smt.session import Session
from repro.smt.terms import evaluate
from tests.smt.solver_reference import Solver

x, y = T.var("x"), T.var("y")


# -- assumption solving at the SAT layer -------------------------------------


def test_solve_under_assumptions_does_not_assert():
    s = SatSolver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a, b])
    assert s.solve(assumptions=(-a,)) == SAT
    assert s.model()[b] is True
    # The assumption was not asserted: a is free again next call.
    assert s.solve(assumptions=(a,)) == SAT
    assert s.model()[a] is True


def test_conflicting_assumptions_are_unsat_but_transient():
    s = SatSolver()
    a = s.new_var()
    s.add_clause([a])
    assert s.solve(assumptions=(-a,)) == UNSAT
    assert s.solve() == SAT
    assert s.model()[a] is True


def test_assumptions_compose_with_learning():
    s = SatSolver()
    a, b, c = s.new_var(), s.new_var(), s.new_var()
    s.add_clause([-a, b])
    s.add_clause([-b, c])
    assert s.solve(assumptions=(a, -c)) == UNSAT
    assert s.solve(assumptions=(a,)) == SAT
    m = s.model()
    assert m[b] is True and m[c] is True


# -- session unit behavior ---------------------------------------------------


def test_session_verdicts_and_models():
    sess = Session()
    f = T.and_(T.eq(x, T.add(y, 1)), T.ge(y, 5))
    r = sess.check(f)
    assert r.is_sat
    assert r.model["x"] == r.model["y"] + 1 and r.model["y"] >= 5
    assert not sess.check(T.and_(T.le(x, 0), T.ge(x, 1))).is_sat
    assert sess.check(T.TRUE).is_sat
    assert not sess.check(T.FALSE).is_sat


def test_session_encode_reuse_across_repeats():
    sess = Session()
    f = T.or_(T.eq(x, 1), T.and_(T.ge(y, 0), T.le(y, 2)))
    assert sess.check(f).is_sat
    vars_after_first = sess.num_vars
    assert sess.check(f).is_sat
    assert sess.num_vars == vars_after_first  # nothing re-encoded
    assert sess.stats.encode_hits == 1


def test_session_queries_are_independent():
    sess = Session()
    # An unsat query must not constrain later ones sharing its atoms.
    assert not sess.check(T.and_(T.eq(x, 0), T.eq(x, 1))).is_sat
    assert sess.check(T.eq(x, 0)).is_sat
    assert sess.check(T.eq(x, 1)).is_sat


def test_session_auto_resets_past_max_vars():
    sess = Session(max_vars=8)
    for i in range(12):
        assert sess.check(T.eq(T.var(f"v{i}"), T.num(i))).is_sat
    assert sess.stats.resets >= 1
    assert sess.num_vars <= 8 + 4  # bounded again after the reset
    assert sess.check(T.eq(x, 3)).is_sat


# -- differential property: session vs fresh solver --------------------------

_names = st.sampled_from(["x", "y", "s"])
_consts = st.integers(min_value=0, max_value=2)


@st.composite
def _atoms(draw):
    lhs = T.var(draw(_names))
    rhs = (
        T.num(draw(_consts))
        if draw(st.booleans())
        else T.var(draw(_names))
    )
    op = draw(
        st.sampled_from([T.eq, T.ne, T.lt, T.le, T.gt, T.ge])
    )
    return op(lhs, rhs)


_formulas = st.recursive(
    _atoms(),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda t: T.and_(*t)),
        st.tuples(children, children).map(lambda t: T.or_(*t)),
        children.map(T.not_),
    ),
    max_leaves=8,
)

_SHARED = Session()


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_session_agrees_with_fresh_solver(f):
    """One live session across all examples vs a fresh solver per example."""
    fresh = Solver(f).check()
    live = _SHARED.check(f)
    assert live.is_sat == fresh.is_sat
    if live.is_sat:
        env = {name: live.model.get(name, 0) for name in T.free_vars(f)}
        assert evaluate(f, env) is True
