"""Unit tests for the nesC application model."""

import pytest

from repro.exec import MultiProgram, explore
from repro.lang.parser import parse_program
from repro.nesc.model import TASK_LOCK, Event, NescApp, Task
from repro.nesc.programs import BENCHMARKS, benchmark, benchmarks_for


def test_thread_source_parses():
    app = NescApp(
        name="a",
        globals=[("g", 0), ("h", 3)],
        events=[Event("e", "g = g + 1;")],
        tasks=[Task("t", "h = 0;")],
    )
    program = parse_program(app.thread_source())
    assert program.thread("app") is not None
    names = {g.name for g in program.globals}
    assert names == {"g", "h", TASK_LOCK}


def test_global_initializers_carried():
    app = NescApp(name="a", globals=[("g", 5)], events=[Event("e", "g = 0;")])
    cfa = app.cfa()
    assert cfa.global_init["g"] == 5


def test_event_enable_flag_guard():
    app = NescApp(
        name="a",
        globals=[("g", 0), ("en", 0)],
        events=[Event("e", "g = 1;", enable_flag="en")],
    )
    cfa = app.cfa()
    # en starts 0 and nothing sets it: g never written in any execution.
    mp = MultiProgram.symmetric(cfa, 1)
    result = explore(mp, max_states=10_000, race_on="g")
    assert result.complete and not result.found
    # And indeed no reachable state has g == 1.
    # (run a small manual exploration)
    seen_g = set()
    frontier = [mp.initial()]
    visited = {mp.initial()}
    while frontier:
        s = frontier.pop()
        seen_g.add(s.global_env()["g"])
        for _, _, nxt in mp.successors(s):
            if nxt not in visited:
                visited.add(nxt)
                frontier.append(nxt)
    assert seen_g == {0}


def test_auto_disable_event_is_atomic_dispatch():
    app = NescApp(
        name="a",
        globals=[("g", 0), ("en", 1)],
        events=[Event("e", "g = 1;", enable_flag="en", auto_disable=True)],
    )
    src = app.thread_source()
    assert "atomic { assume(en == 1); en = 0; }" in src


def test_tasks_are_serialized():
    app = NescApp(
        name="a",
        globals=[("g", 0)],
        tasks=[Task("t", "g = g + 1; g = g - 1;")],
    )
    cfa = app.cfa()
    # Two threads: the task lock prevents a race on g despite the
    # non-atomic read-modify-write.
    mp = MultiProgram.symmetric(cfa, 2)
    result = explore(mp, race_on="g", max_states=100_000)
    assert result.complete and not result.found


def test_events_preempt_tasks():
    app = NescApp(
        name="a",
        globals=[("g", 0)],
        events=[Event("e", "g = 5;")],
        tasks=[Task("t", "g = g + 1;")],
    )
    cfa = app.cfa()
    mp = MultiProgram.symmetric(cfa, 2)
    # Event write races with task write.
    result = explore(mp, race_on="g", max_states=100_000)
    assert result.found


def test_access_table_classifies_contexts():
    app = NescApp(
        name="a",
        globals=[("g", 0), ("h", 0)],
        events=[Event("e", "atomic { g = 1; } h = 2;")],
        tasks=[Task("t", "g = 3;")],
    )
    rows = app.access_table()
    assert ("g", True, True, True) in rows  # write, atomic, event
    assert ("h", True, False, True) in rows  # write, non-atomic, event
    assert ("g", True, False, False) in rows  # write, non-atomic, task


def test_benchmark_lookup():
    b = benchmark("surge/rec_ptr")
    assert b.app_name == "surge"
    with pytest.raises(KeyError):
        benchmark("nope/nothing")


def test_benchmarks_for_groups():
    assert len(benchmarks_for("secureTosBase")) == 7
    assert len(benchmarks_for("surge")) == 4
    assert len(benchmarks_for("sense")) == 2


def test_all_benchmarks_compile():
    for b in BENCHMARKS:
        cfa = b.app.cfa()
        var = b.variable.replace("_buggy", "")
        assert var in cfa.globals, b.key
        assert any(cfa.may_write(q, var) for q in cfa.locations), b.key


def test_paper_reference_numbers_recorded():
    table1 = [b for b in BENCHMARKS if b.paper_preds is not None]
    assert len(table1) == 11  # the 11 rows of Table 1
    assert all(b.paper_time for b in table1)


def test_cached_access_sets_match_the_edges():
    """CFA and ACFA access sets are computed once, on first use; they
    must equal a per-edge recomputation at every location of the Table 1
    CFAs and of ACFAs built from them (an ARG and its collapse)."""
    from repro.acfa.acfa import empty_acfa
    from repro.acfa.collapse import collapse
    from repro.context.state import AbstractProgram
    from repro.predabs.abstractor import Abstractor
    from repro.predabs.region import PredicateSet
    from repro.reach import reach_and_build

    apps = {b.app.name: b.app for b in BENCHMARKS}
    for app in apps.values():
        cfa = app.cfa()
        for q in cfa.locations:
            writes = set().union(*(e.op.writes() for e in cfa.out(q)))
            reads = set().union(*(e.op.reads() for e in cfa.out(q)))
            assert cfa.writes_at(q) == writes
            assert cfa.reads_at(q) == reads
            assert cfa.accesses_at(q) == writes | reads
            for v in cfa.variables:
                assert cfa.may_write(q, v) == (v in writes)
                assert cfa.may_access(q, v) == (v in writes | reads)
        program = AbstractProgram(
            cfa, Abstractor(PredicateSet()), empty_acfa(), 1
        )
        arg = reach_and_build(program).arg
        context, _ = collapse(arg, cfa.locals)
        for acfa in (arg, context):
            assert any(acfa.edges)
            for q in acfa.locations:
                havoc = set().union(*(e.havoc for e in acfa.out(q)))
                assert acfa.writes_at(q) == havoc
                for v in cfa.variables:
                    assert acfa.may_write(q, v) == (v in havoc)
