"""The compiled successor kernel searches exactly like the interpreted loop.

For every query, :func:`~repro.exec.interp.breadth_first_search` runs at
2 and 3 threads over :class:`~repro.exec.interp.MultiProgram` (compiled
successor tables) and over the reference loop in ``interp_reference.py``
(every successor interpreted by ``step``), with one state budget and one
stop test: either the reference race test on the query's variable, or
none, so that racy programs are also searched past their first race.
The two searches must discover the same states in the same order with
the same parent, thread and edge, end the same way at the same goal, and
the two race tests must agree on every discovered state.  Both store one
state per orbit of interchangeable threads; ``test_symmetry_parity.py``
checks that reduction against the unreduced search.

The queries are Figure 1, the 13 Table 1 rows (``_buggy`` stripped),
fuzz programs 0-31 without pointers, fuzz programs 0-15 with the default
(pointer) configuration, and one asymmetric two-template program.  The
budget is ``MAX_STATES`` = 2,500 states per search, which keeps the whole
suite near 10 s on a 2-CPU machine.

Two smaller checks pin what the searches rest on: every compiled term
computes what :func:`~repro.smt.terms.evaluate` computes, in value and
type, and :func:`~repro.exec.simulate.simulate`, which draws from the
successors' order, returns the same runs over both.
"""

from __future__ import annotations

import itertools

import pytest

from repro.exec import MultiProgram, replay, simulate
from repro.exec.interp import breadth_first_search
from repro.exec.kernel import compile_term, slot_readers
from repro.fuzz.gen import RACE_VAR, GenConfig, generate
from repro.lang import lower_program, lower_source
from repro.nesc import BENCHMARKS
from repro.smt import terms as T

from .interp_reference import ReferenceProgram
from .test_interp import FIG1

MAX_STATES = 2_500

HANDOFF = """
global int buf, full;
thread producer {
  local int seen;
  while (1) {
    atomic { assume(full == 0); full = 1; }
    seen = buf;
    buf = seen + 1;
    full = 2;
  }
}
thread consumer {
  while (1) {
    atomic { assume(full == 2); full = 3; }
    buf = 0;
    full = 0;
  }
}
"""


def _queries() -> dict:
    """name -> (per-thread CFA cycle, race variable)."""
    out = {"fig1": ([lower_source(FIG1)], "x")}
    for b in BENCHMARKS:
        out[b.key] = (
            [lower_source(b.app.thread_source())],
            b.variable.replace("_buggy", ""),
        )
    for seed in range(32):
        gp = generate(seed, GenConfig(pointers=False))
        out[f"fuzz{seed}"] = ([lower_source(gp.source, gp.thread)], RACE_VAR)
    for seed in range(16):
        gp = generate(seed)
        out[f"fuzz{seed}-ptr"] = ([lower_source(gp.source, gp.thread)], RACE_VAR)
    templates = lower_program(HANDOFF)
    out["handoff"] = ([templates["producer"], templates["consumer"]], "buf")
    return out


QUERIES = _queries()


def _programs(name: str, n: int) -> tuple[MultiProgram, ReferenceProgram]:
    cycle, _ = QUERIES[name]
    cfas = [cycle[i % len(cycle)] for i in range(n)]
    return MultiProgram(cfas), ReferenceProgram(cfas)


@pytest.mark.parametrize("stop_at", ["race", "none"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", QUERIES)
def test_kernel_discovers_what_the_reference_does(name, n, stop_at):
    kernel, reference = _programs(name, n)
    variable = QUERIES[name][1]

    def stop(state):
        return stop_at == "race" and reference.is_race_state(state, variable)

    got = breadth_first_search(kernel, stop, MAX_STATES)
    want = breadth_first_search(reference, stop, MAX_STATES)
    assert list(got.parent.items()) == list(want.parent.items())
    assert (got.visited, got.ended, got.goal) == (
        want.visited,
        want.ended,
        want.goal,
    )
    for state in got.parent:
        assert kernel.is_race_state(state, variable) == reference.is_race_state(
            state, variable
        ), state


def test_tables_are_built_on_first_visit_only():
    kernel, reference = _programs("handoff", 3)
    (producer, consumer, _) = kernel.cfas
    # Replay interprets every step, so it compiles nothing.
    search = breadth_first_search(reference, lambda s: False, 200)
    for state in search.parent:
        assert replay(kernel, search.witness(state).steps)[0]
    assert kernel._tables == [{}, {}, {}]
    # Threads 0 and 2 run one CFA and share one table; each table holds
    # only the locations visited so far.
    list(kernel.successors(kernel.initial()))
    assert kernel._tables[0] is kernel._tables[2]
    assert kernel._tables[0] is not kernel._tables[1]
    assert set(kernel._tables[0]) == {producer.q0}
    assert set(kernel._tables[1]) == {consumer.q0}


@pytest.mark.parametrize(
    "name", ["fig1", "surge/rec_ptr", "fuzz0", "fuzz7", "fuzz3-ptr", "handoff"]
)
def test_simulate_draws_the_same_runs(name):
    variable = QUERIES[name][1]
    for n, seed in [(2, 0), (2, 5), (3, 1)]:
        kernel, reference = _programs(name, n)
        got = simulate(kernel, race_on=variable, runs=20, seed=seed)
        want = simulate(reference, race_on=variable, runs=20, seed=seed)
        assert (got.runs, got.steps_total, got.deadlocks, got.terminations) == (
            want.runs,
            want.steps_total,
            want.deadlocks,
            want.terminations,
        )
        assert got.found == want.found
        if got.found:
            assert got.witness.steps == want.witness.steps
            assert got.witness.states == want.witness.states


# -- compiled terms ---------------------------------------------------------------

A, B, C = T.Var("a"), T.Var("b"), T.Var("c")
LESS, SAME = T.Cmp("<", A, B), T.Cmp("==", B, C)

#: Every term class ``evaluate`` handles, with bool operands in arithmetic,
#: int operands in logic, and the one- and three-argument n-ary forms.
TERMS = [
    A,
    C,
    T.IntConst(-4),
    T.BoolConst(True),
    T.BoolConst(False),
    T.Add((A, B)),
    T.Add((A,)),
    T.Add((LESS,)),
    T.Add((A, B, C)),
    T.Add((LESS, SAME)),
    T.Sub(A, C),
    T.Sub(LESS, T.BoolConst(True)),
    T.Neg(A),
    T.Neg(LESS),
    T.Mul(A, C),
    T.Mul(T.IntConst(-2), SAME),
    *(T.Cmp(op, A, C) for op in T.CMP_OPS),
    *(T.Cmp(op, C, T.IntConst(-1)) for op in T.CMP_OPS),
    T.Cmp("<", LESS, SAME),
    T.Not(A),
    T.Not(LESS),
    T.And((LESS, SAME)),
    T.And((A, C)),
    T.And(()),
    T.Or((LESS, SAME)),
    T.Or((A, C)),
    T.Or(()),
    T.Implies(LESS, A),
    T.Implies(A, SAME),
    T.Iff(A, C),
    T.Iff(LESS, SAME),
]

#: Globals a and b, local c; every environment over a sample with negatives.
ENVS = [
    dict(zip("abc", values))
    for values in itertools.product((-3, -1, 0, 2), repeat=3)
]


def test_terms_cover_every_class_evaluate_handles():
    classes = {type(s) for t in TERMS for s in T.subterms(t)}
    assert classes == {
        T.Var,
        T.IntConst,
        T.BoolConst,
        T.Add,
        T.Sub,
        T.Neg,
        T.Mul,
        T.Cmp,
        T.Not,
        T.And,
        T.Or,
        T.Implies,
        T.Iff,
    }


@pytest.mark.parametrize("term", TERMS, ids=str)
def test_compiled_term_computes_what_evaluate_does(term):
    compiled = compile_term(term, slot_readers(("a", "b"), ("c",)))
    for env in ENVS:
        g = (("a", env["a"]), ("b", env["b"]))
        loc = (("c", env["c"]),)
        got, want = compiled(g, loc), T.evaluate(term, env)
        assert type(got) is type(want) and got == want, env
