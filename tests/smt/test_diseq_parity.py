"""The reduction decides exactly what lazy splitting alone decided.

:func:`repro.smt.lia.is_sat_with_diseqs` substitutes the equalities with
a +-1 coefficient away before anything is solved.  The former procedure,
kept in ``diseq_reference.py``, solved every conjunction by
Fourier-Motzkin and split each disequality its model violated.  Both are
exact, so they must return the same verdict:

* on Hypothesis conjunctions of equalities, inequalities and
  disequalities over up to four variables with coefficients in -3..3,
  ``Fraction`` ones included in the equalities and inequalities;
* on every call one check-table1 pass and batch-cold's corpus (fuzz 0-31
  without pointers) make;
* and with the reference swapped in, CIRC on Figures 2-4 and two Table 1
  rows must give the same verdict, predicates, iterations, abstract
  states, query-cache counters and per-stage query counts.

Where the reference's branch-and-bound gives up
(:class:`~repro.smt.lia.BranchDepthExceeded`), the new procedure's
outcome is recorded instead of compared.  The new procedure gives up
only where the reference does: when branch-and-bound gives up on the
reduced rows, it retries the input rows.  On equalities it never gives
up: a Euclid step gives every equality a +-1 coefficient, which drawn
systems of up to three equalities check against brute force.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.engine import BatchItem, run_batch
from repro.fuzz.gen import RACE_VAR, GenConfig, generate
from repro.nesc import BENCHMARKS
from repro.nesc.programs import TEST_AND_SET_SOURCE
from repro.races.spec import check_race
from repro.smt import lia
from repro.smt.lia import BranchDepthExceeded, is_sat_with_diseqs
from repro.smt.linear import LinEq, LinExpr, LinLe
from repro.smt.profile import PROFILER
from repro.smt.qcache import SAT_CACHE
from repro.smt.session import reset_default_session

from .diseq_reference import _sat_with_diseqs as reference
from .test_sat_parity import table1_queries

_NAMES = ["x", "y", "z", "w"]
_ONE = LinExpr({}, 1)


def ne(coeffs, const=0):
    """``coeffs . x + const != 0`` as ``normalize_atom`` returns it."""
    d = LinExpr(coeffs, const)
    return (LinLe(d + _ONE), LinLe((-d) + _ONE))


def eq(coeffs, const=0):
    return LinEq(LinExpr(coeffs, const))


def le(coeffs, const=0):
    return LinLe(LinExpr(coeffs, const))


def _outcome(procedure, constraints, diseqs):
    try:
        return procedure(list(constraints), list(diseqs))
    except BranchDepthExceeded:
        return "branch depth exceeded"


def assert_same_verdict(constraints, diseqs):
    expected = _outcome(reference, constraints, diseqs)
    got = _outcome(is_sat_with_diseqs, constraints, diseqs)
    if expected == "branch depth exceeded":
        event(f"reference gave up; the reduction answered {got!r}")
        return
    assert got == expected, (constraints, diseqs)


# -- drawn conjunctions -----------------------------------------------------------


@st.composite
def exprs(draw, fractions=True):
    """An expression over up to four variables with coefficients in
    [-3, 3]; with ``fractions``, about one in five has ``Fraction``
    coefficients and constant."""
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=4))
    if fractions and draw(st.integers(min_value=0, max_value=4)) == 0:
        number = st.builds(
            Fraction,
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=1, max_value=4),
        )
    else:
        number = st.integers(min_value=-3, max_value=3)
    return LinExpr({name: draw(number) for name in names}, draw(number))


@st.composite
def conjunctions(draw):
    constraints = [LinEq(e) for e in draw(st.lists(exprs(), max_size=4))]
    constraints += [LinLe(e) for e in draw(st.lists(exprs(), max_size=3))]
    constraints = draw(st.permutations(constraints))
    # A disequality's pair means d != 0 only where d takes integer values
    # (see test_a_fractional_disequality_means_d_ne_0), as it does for
    # every disequality built from a term.
    diseqs = [
        ne(e.coeffs, e.const)
        for e in draw(st.lists(exprs(fractions=False), max_size=4))
    ]
    # Duplicate literals, as a conjunction that repeats one reaches here
    # when its canonical keys differ only in spelling.
    if constraints and draw(st.booleans()):
        constraints.append(draw(st.sampled_from(constraints)))
    if diseqs and draw(st.booleans()):
        diseqs.append(draw(st.sampled_from(diseqs)))
    return constraints, diseqs


@settings(max_examples=500, deadline=None)
@given(conjunctions())
# Pivots of 2 and 3 only: a Euclid step gives the equality a +-1 one.
@example(([eq({"x": 2, "y": 3}, -1)], [ne({"x": 1}, -2)]))
# 2x - 1 == 0 has no integer solution; no variable has a +-1 coefficient.
@example(([eq({"x": 2}, -1)], [ne({"y": 1})]))
# Constant rows of every kind.
@example(([eq({}, 0), le({}, -1)], [ne({}, 2)]))
@example(([eq({}, 0)], [ne({}, 0)]))
@example(([le({}, 1)], []))
@example(([eq({}, 3)], [ne({"x": 1})]))
# z occurs only in a disequality; x == y refutes x != y.
@example(([eq({"x": 1, "y": -1})], [ne({"z": 1}), ne({"x": 1, "y": -1})]))
@example(([eq({"x": 1, "y": -1})], [ne({"z": 1}, -1), ne({"x": 1}, 4)]))
# Duplicate literals.
@example(
    (
        [eq({"x": 1, "y": -1}), eq({"x": 1, "y": -1})],
        [ne({"x": 1}, -1), ne({"x": 1}, -1)],
    )
)
# x + y/2 - 1/2 == 0 enters as 2x + y - 1 == 0, so y == 1 - 2x and the
# disequality y + 2x - 1 != 0 reduces to 0.
@example(
    (
        [eq({"x": 1, "y": Fraction(1, 2)}, Fraction(-1, 2))],
        [ne({"x": 2, "y": 1}, -1)],
    )
)
# 3x + 2v == 0 has no +-1 coefficient until v + x == 0 gives v == -x:
# then it reads x == 0, and x != 0 is refuted.
@example(([eq({"v": 1, "x": 1}), eq({"x": 3, "v": 2})], [ne({"x": 1})]))
# x == -2 and y == 0 leave 2w + 2z + 1 == 0, which the gcd refutes.
@example(
    (
        [eq({"w": 2, "y": 3, "z": 2}, 1), eq({"x": 1, "y": 1}, 2), eq({"x": 1, "y": -1}, 2)],
        [],
    )
)
# No +-1 coefficient anywhere: Euclid steps reduce both equalities.
@example(([eq({"x": -2, "y": -3}, -2), eq({"w": -3, "y": 3, "z": 2}, 2)], [ne({}, 1)]))
# The rows the reduction leaves still need a split: x == 1 is the
# rational model of 1 <= x <= 2, and x != 1 splits it.
@example(([le({"x": -1}, 1), le({"x": 1}, -2)], [ne({"x": 1}, -1)]))
@example(([le({"x": -1}, 1), le({"x": 1}, -1)], [ne({"x": 1}, -1)]))
def test_reduction_matches_the_reference(conj):
    constraints, diseqs = conj
    assert_same_verdict(constraints, diseqs)


def test_a_fractional_disequality_means_d_ne_0():
    """Terms have integer coefficients, so every disequality the verifier
    builds does too, and its pair ``d <= -1 or d >= 1`` is ``d != 0``.
    For a ``Fraction`` d the halves leave out the points where
    ``0 < |d| < 1``: the reduction scales the row to integers and decides
    ``d != 0`` there, where the reference decided the pair."""
    half = ne({}, Fraction(1, 2))
    assert is_sat_with_diseqs([], [half]) is True
    assert reference([], [half]) is False
    x_half = ne({"x": Fraction(1, 2)})
    assert is_sat_with_diseqs([eq({"x": 1}, -1)], [x_half]) is True
    assert reference([eq({"x": 1}, -1)], [x_half]) is False


# 2x - 2y == 1 as two inequalities: no integer point and no Farkas
# refutation, so branch-and-bound descends until it gives up.
_NO_INTEGER_POINT = [le({"x": 2, "y": -2}, -1), le({"x": -2, "y": 2}, 1)]


def test_branch_depth_outcomes_are_recorded():
    """The reference gives up on the base solve of each of these.  The new
    procedure answers all of them.  -2x + 2y + 3z == 3 has no +-1
    coefficient: the Euclid step on x leaves -2x' - z - 3 == 0, and z is
    substituted away (x = y = 0, z = 1 is a solution).  Dividing out a
    common factor refutes the strip (2x - 2y - 1 <= 0 becomes x - y <= 0,
    and -2x + 2y + 1 <= 0 becomes -x + y + 1 <= 0), and a disequality
    reduces to 0 first."""
    no_unit_pivot = [eq({"x": -2, "y": 2, "z": 3}, -3)]
    assert _outcome(reference, no_unit_pivot, []) == "branch depth exceeded"
    assert _outcome(is_sat_with_diseqs, no_unit_pivot, []) is True
    assert _outcome(reference, _NO_INTEGER_POINT, []) == "branch depth exceeded"
    assert _outcome(is_sat_with_diseqs, _NO_INTEGER_POINT, []) is False
    refuted = (_NO_INTEGER_POINT + [eq({"z": 1, "x": -1})], [ne({"z": 1, "x": -1})])
    assert _outcome(reference, *refuted) == "branch depth exceeded"
    assert _outcome(is_sat_with_diseqs, *refuted) is False


_BOX = range(-6, 7)


@st.composite
def equality_systems(draw):
    """One to three equalities over x, y and z with coefficients and
    constants in -3..3, and at most one inequality and one disequality."""
    coeffs = st.integers(min_value=-3, max_value=3)

    def row():
        return (
            {n: draw(coeffs) for n in ("x", "y", "z") if draw(st.booleans())},
            draw(coeffs),
        )

    eqs = [row() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    ineqs = [row() for _ in range(draw(st.integers(min_value=0, max_value=1)))]
    neqs = [row() for _ in range(draw(st.integers(min_value=0, max_value=1)))]
    return eqs, ineqs, neqs


def _value(row, point):
    coeffs, const = row
    return const + sum(c * point[n] for n, c in coeffs.items())


@settings(max_examples=400, deadline=None)
@given(equality_systems())
# 5x + 8y + 1 == 0 takes three Euclid steps: its coefficients go from
# (5, 8) to (5, 3), (2, 3) and (2, 1); x = 3, y = -2 is a solution.
@example(([({"x": 5, "y": 8}, 1)], [], []))
@example(([({"x": -2, "y": 2, "z": 3}, -3)], [], []))
@example(([({"x": 2, "y": 3}, -1), ({"x": 3, "z": 2}, 0)], [], [({"y": 1}, 0)]))
def test_equality_systems_agree_with_bruteforce(system):
    """The procedure never gives up on these.  A point of the box
    [-6, 6]^3 that satisfies every row makes it answer sat, and an unsat
    answer leaves no such point; where the reference answers, the
    verdicts agree."""
    eqs, ineqs, neqs = system
    constraints = [eq(*r) for r in eqs] + [le(*r) for r in ineqs]
    diseqs = [ne(*r) for r in neqs]
    got = is_sat_with_diseqs(constraints, diseqs)
    witness = any(
        all(_value(r, p) == 0 for r in eqs)
        and all(_value(r, p) <= 0 for r in ineqs)
        and all(_value(r, p) != 0 for r in neqs)
        for p in (
            dict(zip("xyz", values))
            for values in itertools.product(_BOX, repeat=3)
        )
    )
    if witness:
        assert got is True, system
    expected = _outcome(reference, constraints, diseqs)
    if expected == "branch depth exceeded":
        event(f"reference gave up; the reduction answered {got!r}")
    else:
        assert got == expected, system


# -- every call of the benchmark queries -------------------------------------------


def _checking_calls(monkeypatch):
    """Make every production call also ask the reference; returns the
    list the checked calls are counted in."""
    production = lia.is_sat_with_diseqs
    calls = []

    def checked(constraints, diseqs):
        verdict = production(constraints, diseqs)
        assert reference(list(constraints), list(diseqs)) == verdict
        calls.append(verdict)
        return verdict

    monkeypatch.setattr(lia, "is_sat_with_diseqs", checked)
    return calls


def test_check_table1_calls_match(monkeypatch):
    calls = _checking_calls(monkeypatch)
    for source, variable in table1_queries():
        SAT_CACHE.clear()
        reset_default_session()
        check_race(source, variable, prefilter=True)
    assert len(calls) > 2000
    assert False in calls and True in calls


def test_batch_cold_corpus_calls_match(monkeypatch):
    calls = _checking_calls(monkeypatch)
    cfg = GenConfig(pointers=False)
    items = []
    for i in range(32):
        gp = generate(i, cfg)
        items.append(BatchItem(f"fuzz{i}", gp.source, gp.thread, (RACE_VAR,)))
    SAT_CACHE.clear()
    reset_default_session()
    report = run_batch(items, workers=1, timeout_s=60)
    assert len(report.rows) == 32
    assert not report.unknown
    assert len(calls) > 800


# -- CIRC with the reference swapped in -------------------------------------------


def _swap_queries():
    yield "fig2-4", TEST_AND_SET_SOURCE, "x"
    for b in BENCHMARKS:
        if b.key in ("secureTosBase/gRxHeadIndex", "secureTosBase/gTxState_buggy"):
            yield b.key, b.app.thread_source(), b.variable.replace("_buggy", "")


def _counters(stats):
    return {k: v for k, v in stats.items() if k != "wall_s"}


def _observed_run(source, variable):
    SAT_CACHE.clear()
    reset_default_session()
    PROFILER.reset()
    before = SAT_CACHE.stats()
    result = check_race(source, variable)
    after = SAT_CACHE.stats()
    return {
        "kind": type(result).__name__,
        "predicates": [p.key() for p in result.predicates],
        "outer": result.stats.outer_iterations,
        "inner": result.stats.inner_iterations,
        "states": result.stats.abstract_states,
        "final_k": result.stats.final_k,
        "acfa_size": getattr(getattr(result, "context", None), "size", None),
        "cache": {k: after[k] - before[k] for k in after},
        "stages": {
            label: _counters(stats) for label, stats in PROFILER.snapshot().items()
        },
    }


def test_circ_answers_alike_with_the_reference_swapped_in(monkeypatch):
    queries = list(_swap_queries())
    assert len(queries) == 3
    for name, source, variable in queries:
        with monkeypatch.context() as m:
            m.setattr(lia, "is_sat_with_diseqs", reference)
            expected = _observed_run(source, variable)
        got = _observed_run(source, variable)
        assert got == expected, name
        assert got["stages"]["predabs"]["queries"] > 0, name
