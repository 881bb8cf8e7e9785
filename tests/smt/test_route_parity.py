"""``is_sat`` answers on the conjunction kernel what the session answered.

With negations pushed down to the comparison atoms, :func:`is_sat` sends
a conjunction of literals to :func:`is_sat_conjunction`, and a
conjunction plus one clause of literals to it once per disjunct; any
other formula still runs on the incremental DPLL(T) session.  Both
procedures are exact, so the verdicts must be equal:

* on Hypothesis And/Or/Not formulas over comparisons of three variables,
  against a fresh :class:`~repro.smt.session.Session`;
* on every formula Figure 1, the Table 1 rows and fuzz 0-31 in both
  generator configurations pass to ``is_sat``, trace formulas included,
  against one long-lived session.
"""

from __future__ import annotations

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.engine import BatchItem, run_batch
from repro.fuzz.gen import RACE_VAR, GenConfig, generate
from repro.nesc import BENCHMARKS
from repro.nesc.programs import TEST_AND_SET_SOURCE
from repro.races.spec import check_race
from repro.smt import terms as T
from repro.smt.qcache import SAT_CACHE
from repro.smt.session import Session, default_session, reset_default_session
from repro.smt.solver import _clause_form, is_sat

from .test_sat_parity import on_is_sat

_VARS = [T.var(name) for name in ("x", "y", "z")]
_OPS = ("<=", "<", ">=", ">", "==", "!=")


@st.composite
def comparisons(draw):
    """``u``, ``u + v``, ``u - v`` or ``k*u`` compared with a variable or
    a constant in -3..3, over x, y and z: the shapes the verifier's
    predicates and trace clauses take.  The session's branch-and-bound
    gives up on some comparisons with several non-unit coefficients,
    such as ``2y + 2z == 1``, which the kernel refutes."""
    u, v = draw(st.sampled_from(_VARS)), draw(st.sampled_from(_VARS))
    lhs = draw(st.sampled_from([u, T.add(u, v), T.sub(u, v), T.mul(2, u), T.mul(-3, u)]))
    rhs = draw(st.one_of(st.sampled_from(_VARS), st.integers(-3, 3).map(T.num)))
    return T.Cmp(draw(st.sampled_from(_OPS)), lhs, rhs)


formulas = st.recursive(
    comparisons(),
    lambda sub: st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(lambda a: T.and_(*a)),
        st.lists(sub, min_size=2, max_size=3).map(lambda a: T.or_(*a)),
        sub.map(T.not_),
    ),
    max_leaves=6,
)


@settings(max_examples=600, deadline=None)
@given(formulas)
def test_drawn_formulas_match_a_fresh_session(formula):
    form = _clause_form(formula)
    if form is None:
        event("session")
    else:
        event("kernel, one clause" if form[1] is not None else "kernel, conjunction")
    SAT_CACHE.clear()
    reset_default_session()
    assert is_sat(formula) == Session().check(formula).is_sat, formula


def test_recorded_formulas_match_the_session(monkeypatch):
    calls: list[tuple[T.Term, bool]] = []
    on_is_sat(monkeypatch, lambda formula, verdict: calls.append((formula, verdict)))
    SAT_CACHE.clear()
    reset_default_session()
    queries = [(TEST_AND_SET_SOURCE, "x")] + [
        (b.app.thread_source(), b.variable.replace("_buggy", "")) for b in BENCHMARKS
    ]
    for source, variable in queries:
        check_race(source, variable, prefilter=True)
    for pointers in (False, True):
        cfg = GenConfig(pointers=pointers)
        items = []
        for i in range(32):
            gp = generate(i, cfg)
            items.append(BatchItem(f"fuzz{i}", gp.source, gp.thread, (RACE_VAR,)))
        report = run_batch(items, workers=1, timeout_s=60)
        assert len(report.rows) == 32
        if not pointers:
            # Figure 1, Table 1 and batch-cold's corpus never reach the
            # session: every formula is decided on the kernel.
            assert default_session().stats.queries == 0
    kernel = [f for f, _ in calls if _clause_form(f) is not None]
    clauses = [f for f in kernel if _clause_form(f)[1] is not None]
    assert len(kernel) > 300 and len(clauses) > 50, (len(kernel), len(clauses))
    session = Session()
    for formula, verdict in set(calls):
        assert session.check(formula).is_sat == verdict, formula
