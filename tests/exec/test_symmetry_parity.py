"""The thread-symmetry reduction stores the unreduced search's orbit firsts.

For every query, :func:`~repro.exec.interp.breadth_first_search` runs at
2 and 3 interchangeable threads beside the unreduced search kept in
``interp_reference.py``, with one stop test: the race test on the
query's variable, or none, so that racy programs are also searched past
their first race.  The reduced search must store exactly the reference's
first-discovered member of each orbit (the states with the same globals
and the same thread states in any order), with the same parent, thread
and edge, in the same order, and end the same way at the same goal.  A
program whose threads run different CFAs is not reduced: its search must
be the reference's, state for state.

The queries are those of ``test_kernel_parity.py``: Figure 1, the 13
Table 1 rows (``_buggy`` stripped), fuzz programs 0-31 without pointers
and fuzz programs 0-15 with the default (pointer) configuration, and its
producer/consumer program over two templates, run with 2 and 3 threads
(the third a second producer).  The reduced search runs first, to
``MAX_ORBITS`` orbits; a search that reaches it is skipped, since the
two searches would then stop at different places.  The reference then
runs with a budget it cannot reach: it stores at most ``n!`` states per
orbit.  At this budget 191 of the 248 searches are compared and 57 are
skipped, most of them on programs with unbounded counters, and the suite
takes about 10 s on a 2-CPU machine.
"""

from __future__ import annotations

import math

import pytest

from repro.exec import MultiProgram
from repro.exec.interp import breadth_first_search

from .interp_reference import breadth_first_search as reference_search
from .test_kernel_parity import QUERIES as KERNEL_QUERIES

MAX_ORBITS = 6_000

#: name -> (CFA, race variable): the kernel suite's one-template queries.
QUERIES = {
    name: (cycle[0], variable)
    for name, (cycle, variable) in KERNEL_QUERIES.items()
    if len(cycle) == 1
}
CASES = [
    (name, n, stop_at)
    for name in QUERIES
    for n in (2, 3)
    for stop_at in ("race", "none")
]


def _stop(program: MultiProgram, variable: str, stop_at: str):
    if stop_at == "race":
        return lambda state: program.is_race_state(state, variable)
    return lambda state: False


#: (name, n, stop_at) -> whether the case was compared, as the cases run.
COMPARED: dict[tuple[str, int, str], bool] = {}


def _search(name: str, n: int, stop_at: str):
    """(program, reduced search, reference search or None when skipped)."""
    cfa, variable = QUERIES[name]
    program = MultiProgram.symmetric(cfa, n)
    stop = _stop(program, variable, stop_at)
    got = breadth_first_search(program, stop, MAX_ORBITS)
    if got.ended == "budget":
        return program, got, None
    bound = math.factorial(n) * MAX_ORBITS
    return program, got, reference_search(program, stop, bound)


def _orbit_firsts(parent: dict) -> list:
    """``parent``'s items restricted to the first state of each orbit:
    of the states with the same globals and the same thread states in
    any order."""
    firsts: dict = {}
    for state, via in parent.items():
        orbit = (state.globals, tuple(sorted(state.threads)))
        firsts.setdefault(orbit, (state, via))
    return list(firsts.values())


@pytest.mark.parametrize("name,n,stop_at", CASES)
def test_reduced_search_stores_the_orbit_firsts(name, n, stop_at):
    program, got, want = _search(name, n, stop_at)
    COMPARED[name, n, stop_at] = want is not None
    if want is None:
        pytest.skip(f"the reduced search reached {MAX_ORBITS} orbits")
    assert program.interchangeable
    assert list(got.parent.items()) == _orbit_firsts(want.parent)
    assert (got.ended, got.goal) == (want.ended, want.goal)
    assert got.visited == len(got.parent)
    assert want.visited == len(want.parent)


def test_most_searches_are_compared():
    for case in CASES:
        if case not in COMPARED:
            COMPARED[case] = _search(*case)[2] is not None
    compared = sum(COMPARED.values())
    assert (compared, len(CASES) - compared) == (191, 57)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("stop_at", ["race", "none"])
def test_threads_running_different_cfas_are_not_reduced(n, stop_at):
    (producer, consumer), variable = KERNEL_QUERIES["handoff"]
    program = MultiProgram([producer, consumer, producer][:n])
    stop = _stop(program, variable, stop_at)
    got = breadth_first_search(program, stop, 20_000)
    want = reference_search(program, stop, 20_000)
    assert list(got.parent.items()) == list(want.parent.items())
    assert (got.visited, got.ended, got.goal) == (
        want.visited,
        want.ended,
        want.goal,
    )
    assert not program.interchangeable
