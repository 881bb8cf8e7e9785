"""The racer's two phases agree with the analyses they share code with.

Over Figure 1, the Table 1 rows and fuzz programs 0-31:

(a) phase 1 answers ``safe`` exactly when :func:`repro.static.classify`
    prunes the variable;
(b) the racer, absint and :meth:`MhpReport.access_pairs` see the same
    access pairs, and the pairs the racer leaves to phase 2 are exactly
    ``classify``'s racing pairs;
(c) at 2 threads and 20,000 states the racer finds a witness exactly when
    :func:`repro.exec.explore` does, and one as long, because both search
    breadth-first over the same successors.
"""

from functools import lru_cache

import pytest

from repro.exec import MultiProgram, explore
from repro.fuzz.gen import RACE_VAR, GenConfig, generate
from repro.lang.lower import lower_source
from repro.nesc import BENCHMARKS
from repro.portfolio.absint import absint_check
from repro.portfolio.racer import racer_check
from repro.static import classify, mhp_analysis

FIG1 = """
global int x, state;
thread main {
  local int old;
  while (1) {
    atomic { old = state; if (state == 0) { state = 1; } }
    if (old == 0) { x = x + 1; state = 0; }
  }
}
"""

MAX_STATES = 20_000


def _queries() -> dict[str, tuple[str, str | None, str]]:
    queries = {"fig1": (FIG1, None, "x")}
    for b in BENCHMARKS:
        queries[b.key] = (
            b.app.thread_source(), None, b.variable.replace("_buggy", "")
        )
    config = GenConfig(pointers=False)
    for seed in range(32):
        gp = generate(seed, config)
        queries[f"fuzz{seed}"] = (gp.source, gp.thread, RACE_VAR)
    return queries


QUERIES = _queries()


@lru_cache(maxsize=None)
def _run(name: str):
    source, thread, variable = QUERIES[name]
    cfa = lower_source(source, thread)
    facts = mhp_analysis(cfa)
    racer = racer_check(
        cfa, variable, max_threads=2, max_states=MAX_STATES, facts=facts
    )
    return cfa, variable, facts, racer


@pytest.mark.parametrize("name", QUERIES)
def test_phase1_safe_exactly_when_classify_prunes(name):
    cfa, variable, _, racer = _run(name)
    verdict = classify(cfa, [variable]).verdict(variable)
    assert (racer.verdict == "safe") == verdict.prunable


@pytest.mark.parametrize("name", QUERIES)
def test_racer_absint_and_facts_list_the_same_pairs(name):
    cfa, variable, facts, racer = _run(name)
    pairs = facts.access_pairs(cfa, variable)
    if not racer.reason.startswith("does not escape"):
        assert [p.pair for p in racer.pairs] == pairs
    absint = absint_check(cfa, variable, facts=facts)
    split = absint.pairs_refuted + absint.pairs_surviving
    if split:
        assert sorted(split) == pairs
    handed_on = tuple(
        p.pair for p in racer.pairs if p.status in ("undecided", "witnessed")
    )
    assert handed_on == classify(cfa, [variable]).verdict(variable).racing_pairs


@pytest.mark.parametrize("name", QUERIES)
def test_racer_witnesses_exactly_when_explore_does(name):
    cfa, variable, _, racer = _run(name)
    oracle = explore(
        MultiProgram.symmetric(cfa, 2), race_on=variable, max_states=MAX_STATES
    )
    assert (racer.verdict == "race") == oracle.found
    if oracle.found:
        assert len(racer.witness) == len(oracle.witness.steps)
