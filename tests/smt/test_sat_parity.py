"""Heap branching searches exactly like the scan it replaced.

:class:`Lockstep` drives the production :class:`~repro.smt.sat.SatSolver`
and the former solver kept in ``sat_reference.py`` through the same
calls.  After every ``solve`` the two must agree on the answer, the
trail and its level boundaries, the assignment and decision levels, the
clause database and watch lists (clause literal order records every
watch move), the learned clauses in order, the activities, ``_var_inc``,
the conflict count and ``model()``.  The production solver must also
keep its heap invariant, a current entry for every unassigned variable,
within its bound of ``2 * num_vars + 64`` entries: after every solve,
and on the random and pigeonhole instances before every decision too.

The instances are Hypothesis sequences of random clauses interleaved
with solves under assumptions, random 3-CNF near the satisfiability
threshold solved incrementally, the pigeonhole formula PHP(8,7), whose
thousands of conflicts pass the 1e100 activity rescale, random 3-CNF
started near the rescale so that it happens with variables of nonzero
activity still unassigned, and every
session solve of check-table1's 13 queries and batch-cold's corpus (fuzz
0-31 without pointers), with :class:`Lockstep` injected into
:mod:`repro.smt.session` as its solver.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.smt.session as session_module
from repro.engine import BatchItem, run_batch
from repro.fuzz.gen import RACE_VAR, GenConfig, generate
from repro.nesc import BENCHMARKS
from repro.nesc.programs import TEST_AND_SET_SOURCE
from repro.races.spec import check_race
from repro.smt.qcache import SAT_CACHE
from repro.smt.sat import SAT, UNSAT, SatSolver
from repro.smt.session import reset_default_session

from .sat_reference import SatSolver as ReferenceSolver


def assert_heap_invariant(solver: SatSolver) -> None:
    assert len(solver._heap) <= 2 * solver.num_vars + 64
    current = {v for neg, v in solver._heap if -neg == solver._activity[v]}
    unassigned = {
        v for v in range(1, solver.num_vars + 1) if solver._assign[v] == 0
    }
    assert unassigned <= current


def assert_same(fast: SatSolver, ref: ReferenceSolver) -> None:
    assert fast.num_vars == ref.num_vars
    assert fast._trail == ref._trail
    assert fast._trail_lim == ref._trail_lim
    assert fast._prop_head == ref._prop_head
    assert fast._assign == ref._assign
    assert fast._level == ref._level
    assert fast._clauses == ref._clauses
    assert fast._watches == ref._watches
    assert fast._learned == ref._learned
    assert fast._activity == ref._activity
    assert fast._var_inc == ref._var_inc
    assert fast._conflicts_total == ref._conflicts_total
    assert fast._empty_clause == ref._empty_clause
    assert fast.model() == ref.model()
    assert_heap_invariant(fast)


class CheckedSolver(SatSolver):
    """The production solver, checking its heap before every decision."""

    def _decide(self) -> int:
        assert_heap_invariant(self)
        return super()._decide()


class Lockstep:
    """The production solver and the reference, called alike.

    Has the interface :class:`~repro.smt.session.Session` uses; answers
    with the production solver's results after checking the reference's.
    """

    #: Every Lockstep's solves, for the tests to count.
    solves = 0

    def __init__(self, solver_class: type[SatSolver] = SatSolver) -> None:
        self.fast = solver_class()
        self.ref = ReferenceSolver()

    @property
    def num_vars(self) -> int:
        assert self.fast.num_vars == self.ref.num_vars
        return self.fast.num_vars

    def new_var(self) -> int:
        v = self.fast.new_var()
        assert self.ref.new_var() == v
        return v

    def add_clause(self, lits) -> None:
        lits = list(lits)
        self.fast.add_clause(lits)
        self.ref.add_clause(lits)

    def solve(self, assumptions=()) -> str:
        answer = self.fast.solve(assumptions)
        assert self.ref.solve(assumptions) == answer
        assert_same(self.fast, self.ref)
        Lockstep.solves += 1
        return answer

    def model(self) -> dict[int, bool]:
        model = self.fast.model()
        assert self.ref.model() == model
        return model


# -- random instances -----------------------------------------------------------

N_VARS = 12
literals = st.integers(-N_VARS, N_VARS).filter(bool)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("clause"), st.lists(literals, min_size=1, max_size=4)),
        st.tuples(st.just("solve"), st.lists(literals, max_size=3)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(operations)
def test_random_clauses_and_solves_match(ops):
    solver = Lockstep(CheckedSolver)
    for kind, lits in ops:
        if kind == "clause":
            solver.add_clause(lits)
        else:
            solver.solve(lits)
    solver.solve()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vars=st.integers(8, 60),
    rounds=st.integers(1, 6),
    var_inc=st.sampled_from([1.0, 1e99]),
)
def test_incremental_3cnf_near_threshold_matches(seed, n_vars, rounds, var_inc):
    """Random 3-CNF at about 4.2 clauses per variable, added in rounds,
    each round followed by solves under random assumptions: conflicts,
    learning, restarts and learned clauses kept across solves.  Started
    at an activity increment of 1e99, both solvers rescale within their
    first conflicts, while many bumped variables are unassigned."""
    rng = random.Random(seed)
    solver = Lockstep(CheckedSolver)
    solver.fast._var_inc = solver.ref._var_inc = var_inc
    per_round = max(1, int(4.2 * n_vars) // rounds)
    for _ in range(rounds):
        for _ in range(per_round):
            picked = rng.sample(range(1, n_vars + 1), 3)
            solver.add_clause(v if rng.random() < 0.5 else -v for v in picked)
        for _ in range(3):
            k = rng.randint(0, 4)
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n_vars + 1), k)
            ]
            solver.solve(assumptions)
        solver.solve()


def test_pigeonhole_passes_the_rescale_and_matches():
    """PHP(8,7) is unsatisfiable only after thousands of conflicts; the
    activity increment grows by 1/0.95 per conflict, so the activities
    pass 1e100 and are rescaled, which rebuilds the heap."""
    pigeons, holes = 8, 7

    def p(i: int, j: int) -> int:
        return i * holes + j + 1

    solver = Lockstep(CheckedSolver)
    for i in range(pigeons):
        solver.add_clause(p(i, j) for j in range(holes))
    for j in range(holes):
        for a, b in itertools.combinations(range(pigeons), 2):
            solver.add_clause([-p(a, j), -p(b, j)])
    assert solver.solve() == UNSAT
    conflicts = solver.fast._conflicts_total
    assert conflicts > 1000
    # Without a rescale the increment would be 0.95 ** -conflicts.
    assert solver.fast._var_inc < 0.95 ** -conflicts * 1e-99


def test_solve_after_sat_reuses_the_heap():
    """A SAT answer assigns every variable; the next solve backtracks to
    level 0 and must find every unassigned variable in the heap again."""
    solver = Lockstep(CheckedSolver)
    for v in range(1, 30):
        solver.add_clause([v, -(v + 1)])
    assert solver.solve([-5]) == SAT
    assert solver.solve([7]) == SAT
    solver.add_clause([-1, -30])
    assert solver.solve() == SAT
    assert solver.solve([1, 30]) == UNSAT


# -- every session solve of the benchmark queries ---------------------------------


@pytest.fixture
def lockstep_session(monkeypatch):
    """The calling thread's session, rebuilt on :class:`Lockstep`."""
    monkeypatch.setattr(session_module, "SatSolver", Lockstep)
    SAT_CACHE.clear()
    reset_default_session()
    Lockstep.solves = 0
    yield
    SAT_CACHE.clear()
    reset_default_session()


def table1_queries():
    yield TEST_AND_SET_SOURCE, "x"
    for b in BENCHMARKS:
        if b.key != "sense/tosPort":
            yield b.app.thread_source(), b.variable.replace("_buggy", "")


def test_check_table1_session_solves_match(lockstep_session):
    queries = list(table1_queries())
    assert len(queries) == 13
    for source, variable in queries:
        SAT_CACHE.clear()
        reset_default_session()
        check_race(source, variable, prefilter=True)
    assert Lockstep.solves > 30


def test_batch_cold_corpus_session_solves_match(lockstep_session):
    cfg = GenConfig(pointers=False)
    items = []
    for i in range(32):
        gp = generate(i, cfg)
        items.append(BatchItem(f"fuzz{i}", gp.source, gp.thread, (RACE_VAR,)))
    report = run_batch(items, workers=1, timeout_s=60)
    assert len(report.rows) == 32
    assert not report.unknown
    assert Lockstep.solves > 150
