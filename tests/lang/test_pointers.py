"""Tests for the Section 5 pointer memory model."""

import pytest

from repro.circ import CircUnsafe, circ
from repro.exec import MultiProgram, explore
from repro.lang import lower_source
from repro.lang.parser import parse_program
from repro.lang.pointers import (
    PointerError,
    analyze_pointers,
    eliminate_pointers,
)


def test_points_to_direct():
    p = parse_program(
        """
        global int x, y;
        global int *p;
        thread m { p = &x; }
        """
    )
    info = analyze_pointers(p)
    assert info.pts["p"] == {"x"}
    assert info.escaped() == {"x"}


def test_points_to_flows_through_copies():
    p = parse_program(
        """
        global int x, y;
        global int *p, *q;
        thread m {
          p = &x;
          q = p;
          p = &y;
        }
        """
    )
    info = analyze_pointers(p)
    # Flow-insensitive inclusion: q inherits everything p may ever hold.
    assert info.pts["p"] == {"x", "y"}
    assert info.pts["q"] == {"x", "y"}


def test_points_to_local_pointers():
    p = parse_program(
        """
        global int x;
        thread m {
          local int *q = &x;
          local int v;
          v = *q;
        }
        """
    )
    info = analyze_pointers(p)
    assert info.pts["q"] == {"x"}


def test_may_alias():
    p = parse_program(
        """
        global int x, y;
        global int *p, *q;
        thread m { p = &x; q = &y; }
        """
    )
    info = analyze_pointers(p)
    assert info.may_alias("p", "x")
    assert not info.may_alias("p", "q")
    assert not info.may_alias("p", "y")
    assert info.may_alias("x", "x")


def test_null_assignment_allowed():
    p = parse_program(
        "global int x; global int *p; thread m { p = 0; p = &x; }"
    )
    info = analyze_pointers(p)
    assert info.pts["p"] == {"x"}


def test_pointer_arithmetic_rejected():
    p = parse_program(
        "global int x; global int *p; thread m { p = p + 1; }"
    )
    with pytest.raises(PointerError):
        analyze_pointers(p)


def test_multi_level_rejected():
    p = parse_program(
        "global int *p, *q; thread m { q = &p; }"
    )
    with pytest.raises(PointerError):
        analyze_pointers(p)


def test_deref_in_expression_rejected():
    with pytest.raises(PointerError):
        lower_source(
            "global int x; global int *p; thread m { p = &x; x = *p + 1; }"
        )


def test_elimination_produces_pointer_free_program():
    program = parse_program(
        """
        global int x, y;
        global int *p;
        thread m {
          local int t;
          p = &x;
          t = *p;
          *p = t + 1;
        }
        """
    )
    rewritten, info = eliminate_pointers(program)
    from repro.lang import ast as A

    for stmt in rewritten.threads[0].body.stmts:
        assert not isinstance(stmt, A.DerefAssign)
    assert all(not g.pointer for g in rewritten.globals)


def test_deref_write_executes_concretely():
    src = """
    global int x, y;
    global int *p;
    thread m {
      p = &y;
      *p = 7;
    }
    """
    cfa = lower_source(src)
    mp = MultiProgram.symmetric(cfa, 1)
    state = mp.initial()
    while True:
        succs = list(mp.successors(state))
        if not succs:
            break
        state = succs[0][2]
    env = state.global_env()
    assert env["y"] == 7 and env["x"] == 0


def test_deref_read_selects_target():
    src = """
    global int x = 3, y = 9;
    global int *p;
    thread m {
      local int v;
      if (*) { p = &x; } else { p = &y; }
      v = *p;
      assert(v == 3 || v == 9);
    }
    """
    r = circ(lower_source(src), check_errors=True)
    assert r.safe


def test_race_through_alias_detected():
    src = """
    global int x;
    global int *p;
    thread m {
      while (1) { p = &x; *p = 1; }
    }
    """
    r = circ(lower_source(src), race_on="x")
    assert isinstance(r, CircUnsafe)


def test_no_race_when_aliases_disjoint():
    # Each thread copy writes through p, but p only ever points to x, and
    # the write is lock protected.
    src = """
    global int x, m;
    global int *p;
    thread t {
      local int tmp;
      while (1) {
        p = &x;
        lock(m);
        tmp = *p;
        *p = tmp + 1;
        unlock(m);
      }
    }
    """
    r = circ(lower_source(src), race_on="x")
    assert r.safe


def test_null_only_pointer_blocks():
    # p stays null: the deref has no targets and blocks (no crash model).
    src = """
    global int x;
    global int *p;
    thread m { *p = 1; x = 2; }
    """
    cfa = lower_source(src)
    mp = MultiProgram.symmetric(cfa, 1)
    result = explore(mp, race_on="x", max_states=1000)
    assert result.complete and not result.found
    # x=2 is unreachable past the blocking deref.
    assert not any(
        mp.initial().global_env()["x"] == 2 for _ in range(1)
    )
