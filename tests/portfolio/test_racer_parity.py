"""The depth bound and the symmetry reduction change no racer answer.

For every query, :func:`~repro.portfolio.racer.racer_check` runs beside
the reference in ``racer_reference.py``, whose every thread-count round
searches to its state budget, whatever witnesses earlier rounds found,
and stores every ordering of the same thread states.  Both run at the
default 3 threads and at ``MAX_STATES`` = 10,000 states, half the default
budget.  The answer -- verdict, reason, witness and thread count --
must be the reference's.  A pair's status may change
only where the bound cut the search short: a pair the reference
witnessed at 3 threads, with at least as many steps as the answer's
witness, or left undecided, may become undecided with a reason that
names the bound.  And it may change where the reduction covered more: a
pair the reference left undecided may become witnessed at a thread
count whose reference round ended on its state budget, because the same
budget now counts orbits; the new witness must replay to a state that
occupies the pair, and be no shorter than the answer's.  At this budget
that happens to one pair of fuzz 18 and seven pairs of fuzz 25, all at
2 threads.  Every other pair round 2 decides, and every other pair the
search witnesses, keeps the reference's status, witness and thread
count.  The racer never adds states, and it saves the 3-thread rounds of
fuzz 7 and 9, which the reference runs to the budget.  At this budget the
bound cuts a round short in the same 24 queries as at the default one.

The queries are Figure 1, the 13 Table 1 rows (``_buggy`` stripped),
fuzz programs 0-31 without pointers, fuzz programs 0-15 with the default
(pointer) configuration, and three variants of a program whose third
thread takes a short cut to the race, ``THIRD``:

* ``third-loop6``: the 3-thread witness (11 steps) beats round 2's best
  (23 steps);
* ``third-exact``: the 3-thread witness has 11 steps, exactly one less
  than round 2's best (12 steps), the deepest the bound searches;
* ``third-tie``: both rounds' best witnesses have 11 steps, and the
  2-thread one, found first, must win.

The suite takes about 9 s on a 2-CPU machine, most of it the reference.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.exec import MultiProgram, replay
from repro.fuzz.gen import RACE_VAR, GenConfig, generate
from repro.lang.lower import lower_source
from repro.nesc import BENCHMARKS
from repro.portfolio.racer import _pair_hit, racer_check
from repro.static import mhp_analysis

from ..exec.interp_reference import breadth_first_search as reference_search
from .racer_reference import racer_check as reference_racer_check
from .test_racer import FIG1

MAX_STATES = 10_000

THIRD = """
global int c, x;
thread main {
  local int me;
  local int i;
  local int r;
  atomic { me = c; c = c + 1; }
  if (me == 2) {
    x = 1;
  } else {
    r = x;
    i = 0;
    while (i < LOOP) { i = i + 1; }
    EXTRAx = x + 1;
  }
}
"""

#: name -> (loop bound, statement before ``x = x + 1``, thread count and
#: length of the answer's witness, length of round 2's best witness).
VARIANTS = {
    "third-loop6": ("6", "", 3, 11, 23),
    "third-exact": ("0", "r = 0; ", 3, 11, 12),
    "third-tie": ("0", "", 2, 11, 11),
}


def _queries() -> dict[str, tuple[str, str | None, str]]:
    """name -> (source, thread, race variable)."""
    out = {"fig1": (FIG1, None, "x")}
    for b in BENCHMARKS:
        out[b.key] = (
            b.app.thread_source(), None, b.variable.replace("_buggy", "")
        )
    for seed in range(32):
        gp = generate(seed, GenConfig(pointers=False))
        out[f"fuzz{seed}"] = (gp.source, gp.thread, RACE_VAR)
    for seed in range(16):
        gp = generate(seed)
        out[f"fuzz{seed}-ptr"] = (gp.source, gp.thread, RACE_VAR)
    for name, (loop, extra, *_) in VARIANTS.items():
        source = THIRD.replace("LOOP", loop).replace("EXTRA", extra)
        out[name] = (source, None, "x")
    return out


QUERIES = _queries()


@lru_cache(maxsize=None)
def _run(name: str):
    """(bounded report, reference report) for one query."""
    source, thread, variable = QUERIES[name]
    cfa = lower_source(source, thread)
    facts = mhp_analysis(cfa)
    return (
        racer_check(cfa, variable, max_states=MAX_STATES, facts=facts),
        reference_racer_check(
            cfa, variable, max_states=MAX_STATES, facts=facts
        ),
    )


def _answer(r) -> tuple:
    return r.verdict, r.reason, r.witness, r.n_threads


@lru_cache(maxsize=None)
def _round_ran_out(name: str, n_threads: int) -> bool:
    """Did the reference's round at ``n_threads`` end on its budget?

    Asked for a pair that round left unwitnessed, so its stop test never
    fired: the round ran exactly as a search that never stops."""
    source, thread, _ = QUERIES[name]
    program = MultiProgram.symmetric(lower_source(source, thread), n_threads)
    search = reference_search(program, lambda state: False, MAX_STATES)
    return search.ended == "budget"


def _newly_witnessed(name: str, new, old, answer) -> bool:
    """Is ``new`` a pair the reduction witnessed past the reference's
    budget: undecided there, witnessed here at a thread count whose
    reference round ran out, by a witness that replays to a state
    occupying the pair and is no shorter than the answer's?"""
    if (old.status, new.status) != ("undecided", "witnessed"):
        return False
    source, thread, variable = QUERIES[name]
    program = MultiProgram.symmetric(
        lower_source(source, thread), new.n_threads
    )
    ok, states = replay(program, new.witness, race_on=variable)
    pcs = [pc for pc, _ in states[-1].threads]
    return (
        _round_ran_out(name, new.n_threads)
        and ok
        and _pair_hit(pcs, new.pair)
        and len(new.witness) >= len(answer.witness)
    )


@pytest.mark.parametrize("name", QUERIES)
def test_answer_is_the_reference_answer(name):
    got, want = _run(name)
    assert _answer(got) == _answer(want)


@pytest.mark.parametrize("name", QUERIES)
def test_round_two_and_witnessed_pairs_keep_their_status(name):
    got, want = _run(name)
    assert [p.pair for p in got.pairs] == [p.pair for p in want.pairs]
    for new, old in zip(got.pairs, want.pairs):
        if _newly_witnessed(name, new, old, want):
            continue
        if old.status == "proved" or old.n_threads == 2:
            assert new == old
        if new.status == "witnessed":
            assert (new.witness, new.n_threads) == (old.witness, old.n_threads)


@pytest.mark.parametrize("name", QUERIES)
def test_only_pairs_past_the_bound_change(name):
    got, want = _run(name)
    changed = [(n, o) for n, o in zip(got.pairs, want.pairs) if n != o]
    if not changed:
        return
    # Only a witness in hand bounds the 3-thread round: round 2's best.
    bound = min(len(p.witness) for p in want.pairs if p.n_threads == 2)
    for new, old in changed:
        if _newly_witnessed(name, new, old, want):
            continue
        assert new.status == "undecided", (new, old)
        assert new.reason.startswith("not searched"), new
        assert old.status == "undecided" or (
            old.n_threads == 3 and len(old.witness) >= bound
        ), (new, old)


def test_the_reduction_witnesses_past_the_budget_only_where_measured():
    newly: dict[tuple[str, int], int] = {}
    for name in QUERIES:
        got, want = _run(name)
        for new, old in zip(got.pairs, want.pairs):
            if _newly_witnessed(name, new, old, want):
                key = (name, new.n_threads)
                newly[key] = newly.get(key, 0) + 1
    assert newly == {("fuzz18", 2): 1, ("fuzz25", 2): 7}


@pytest.mark.parametrize("name", QUERIES)
def test_bound_never_adds_states(name):
    got, want = _run(name)
    assert got.states_explored <= want.states_explored
    if name in ("fuzz7", "fuzz9"):
        assert got.states_explored < want.states_explored


@pytest.mark.parametrize("name", VARIANTS)
def test_the_shorter_later_witness_wins_and_a_tie_does_not(name):
    *_, n_threads, steps, round2 = VARIANTS[name]
    got, _ = _run(name)
    assert (got.verdict, got.n_threads, len(got.witness)) == (
        "race", n_threads, steps
    )
    assert min(
        len(p.witness) for p in got.pairs if p.n_threads == 2
    ) == round2
