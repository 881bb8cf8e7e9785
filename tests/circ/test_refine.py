"""Unit tests for the refinement procedure."""

import pytest

from repro.acfa.acfa import Acfa, AcfaEdge, empty_acfa
from repro.cfa.cfa import AssignOp, AssumeOp
from repro.circ.refine import (
    RealRace,
    Refinement,
    _assign_threads,
    _CounterTooLow,
    build_trace_formula,
    refine,
)
from repro.context.state import CtxMove
from repro.lang import lower_source
from repro.smt import terms as T
from repro.smt.solver import is_sat


def test_assign_threads_reuses_and_mints():
    acfa = Acfa(
        "a",
        0,
        [0, 1, 2],
        {0: (), 1: (), 2: ()},
        [
            AcfaEdge(0, frozenset(), 1),
            AcfaEdge(1, frozenset(), 2),
        ],
    )
    trace = [
        CtxMove(acfa.out(0)[0]),
        CtxMove(acfa.out(0)[0]),
        CtxMove(acfa.out(1)[0]),
    ]
    owner, moves_of, final, entry_of = _assign_threads(trace, acfa)
    assert owner == [1, 2, 1]
    assert final == {1: 2, 2: 1}
    assert entry_of == {1: 0, 2: 0}


def test_assign_threads_detects_low_counter():
    acfa = Acfa(
        "a",
        0,
        [0, 1, 2],
        {0: (), 1: (), 2: ()},
        [AcfaEdge(1, frozenset(), 2)],
    )
    # A move out of location 1 with no token there and 1 != q0.
    trace = [CtxMove(acfa.out(1)[0])]
    with pytest.raises(_CounterTooLow):
        _assign_threads(trace, acfa)


def test_trace_formula_initial_values():
    cfa = lower_source("global int g = 7; thread m { g = g + 1; }")
    edge = next(e for e in cfa.edges if isinstance(e.op, AssignOp))
    ct = build_trace_formula(cfa, [(0, edge)], n_threads=1)
    # g$0 == 7 pinned; g$1 == g$0 + 1.
    assert is_sat(T.and_(*ct.clauses))
    model_clauses = T.and_(*ct.clauses, T.eq(T.var("g$1"), 8))
    assert is_sat(model_clauses)
    assert not is_sat(T.and_(*ct.clauses, T.eq(T.var("g$1"), 9)))


def test_trace_formula_figure5_shape():
    """The paper's Figure 5 trace: two threads through the atomic block."""
    cfa = lower_source(
        """
        global int x, state;
        thread main {
          local int old;
          while (1) {
            atomic { old = state; if (state == 0) { state = 1; } }
            if (old == 0) { x = x + 1; state = 0; }
          }
        }
        """
    )

    def path_edges(branch_state0: bool):
        """Loop entry, old:=state, branch, [old==0]."""
        edges = []
        q = cfa.q0
        (entry,) = cfa.out(q)
        edges.append(entry)
        q = entry.dst
        (assign,) = cfa.out(q)
        edges.append(assign)
        q = assign.dst
        branches = cfa.out(q)
        pick = next(
            e
            for e in branches
            if isinstance(e.op, AssumeOp)
            and (
                (e.op.pred == T.eq(T.var("state"), 0)) == branch_state0
            )
        )
        edges.append(pick)
        q = pick.dst
        if branch_state0:
            (setst,) = cfa.out(q)
            edges.append(setst)
            q = setst.dst
        old0 = next(
            e
            for e in cfa.out(q)
            if isinstance(e.op, AssumeOp)
            and e.op.pred == T.eq(T.var("old"), 0)
        )
        edges.append(old0)
        return edges

    # Thread 1 takes the state==0 branch and stops before writing; thread 0
    # (main) then attempts the same path: infeasible, exactly Figure 5.
    t1 = [(1, e) for e in path_edges(True)]
    t0 = [(0, e) for e in path_edges(True)]
    ct = build_trace_formula(cfa, t1 + t0, n_threads=2)
    assert not is_sat(T.and_(*ct.clauses))
    # The feasible variant: thread 0 finishes its round (writes x and
    # resets state) before thread 1 starts.
    # (sequential composition around the loop is fine)


def test_refine_reports_real_race():
    cfa = lower_source("global int x; thread m { x = 1; }")
    # Build a matching fake prev_reach by running reach on the empty ctx.
    from repro.reach import reach_and_build
    from repro.context.state import AbstractProgram
    from repro.predabs.abstractor import Abstractor
    from repro.predabs.region import PredicateSet
    from repro.acfa.collapse import collapse

    ab = Abstractor(PredicateSet())
    prog0 = AbstractProgram(cfa, ab, empty_acfa(), 1)
    reach0 = reach_and_build(prog0)
    ctx, mu = collapse(reach0.arg, cfa.locals)
    prog1 = AbstractProgram(cfa, ab, ctx, 1)
    from repro.reach import AbstractRaceFound

    with pytest.raises(AbstractRaceFound) as exc:
        reach_and_build(prog1, race_on="x")
    out = refine(
        cfa,
        "x",
        exc.value.trace,
        exc.value.state,
        ctx,
        reach0,
        mu,
        1,
        [],
    )
    assert isinstance(out, RealRace)
    assert out.n_threads >= 2


def test_refine_counter_bump_on_low_counter():
    cfa = lower_source("global int x; thread m { x = 1; }")
    acfa = Acfa(
        "ctx",
        0,
        [0, 1, 2],
        {0: (), 1: (), 2: ()},
        [AcfaEdge(1, frozenset({"x"}), 2)],
    )
    trace = [CtxMove(acfa.out(1)[0])]
    from repro.context.counters import ContextState
    from repro.context.state import AbsState
    from repro.predabs.region import TOP

    fake_state = AbsState(cfa.q0, TOP, ContextState([0, 0, 1]))
    out = refine(cfa, "x", trace, fake_state, acfa, None, {}, 1, [])
    assert isinstance(out, Refinement)
    assert out.new_k == 2


def test_predicate_order_independent_of_hash_seed():
    """Mined atoms come out of frozensets, whose order follows the string
    hashes of variable names.  Fuzz program 13 mines several atoms from
    one trace; interpreters with different PYTHONHASHSEED values must
    refine to the same predicate sequence and the same store history."""
    import json
    import os
    import subprocess
    import sys

    prog = (
        "import json, sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.circ import circ\n"
        "from repro.fuzz.gen import GenConfig, generate\n"
        "from repro.lang import lower_source\n"
        "from repro.smt import terms as T\n"
        "gp = generate(13, GenConfig(pointers=False))\n"
        "r = circ(lower_source(gp.source, gp.thread), race_on='x')\n"
        "print(json.dumps([[T.pretty(p) for p in r.predicates],"
        " r.stats.store_digest]))\n"
    )
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    runs = []
    for seed in ("2", "3"):
        out = subprocess.run(
            [sys.executable, "-c", prog, src_root],
            env=dict(os.environ, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(json.loads(out.stdout))
    assert len(runs[0][0]) >= 2
    assert runs[0] == runs[1]
