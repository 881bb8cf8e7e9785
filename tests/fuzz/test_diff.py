"""Unit tests for the differential runner and its disagreement taxonomy."""

from repro.engine.events import EventLog
from repro.fuzz.diff import (
    HARD_CLASSES,
    PATHS,
    Disagreement,
    FuzzConfig,
    PathResult,
    _classify,
    check_one,
    corpus_entry,
    parse_corpus_entry,
    run_fuzz,
)
from repro.fuzz.oracle import BoundCertificate, OracleVerdict
from repro.lang.lower import lower_source
from repro.lang.parser import parse_program
from repro.nesc.programs import TEST_AND_SET_SOURCE

RACY = "global int x; thread t0 { while (*) { x = 1 - x; } }"
SAFE = "global int x; thread t0 { while (*) { atomic { x = 1 - x; } } }"
MONITOR = """
global int x; global int f;
thread t0 {
  while (*) {
    atomic { assume(f == 0); f = 1; }
    x = 1 - x;
    f = 0;
  }
}
"""


def path(name, verdict, **kw):
    return PathResult(path=name, verdict=verdict, time_ms=0.0, **kw)


def oracle_race(n=2):
    return OracleVerdict(verdict="race", n_threads=n, steps=((0, None),))


def oracle_safe(max_threads=3, unbounded=False):
    return OracleVerdict(
        verdict="safe",
        certificate=BoundCertificate(
            max_threads=max_threads, max_states=1000, unbounded=unbounded
        ),
    )


def classify(paths, oracle, source=RACY):
    cfa = lower_source(source, "t0")
    return _classify(cfa, "x", paths, oracle)


def test_safe_claim_against_oracle_race_is_unsoundness():
    ds = classify([path("lockset", "safe")], oracle_race())
    assert [d.classification for d in ds] == ["unsoundness"]
    assert ds[0].hard


def test_race_claim_against_oracle_safe_is_incompleteness():
    ds = classify([path("lockset", "race")], oracle_safe())
    assert [d.classification for d in ds] == ["incompleteness"]
    assert not ds[0].hard


def test_unknown_against_oracle_safe_is_incompleteness():
    ds = classify([path("circ", "unknown")], oracle_safe())
    assert [d.classification for d in ds] == ["incompleteness"]


def test_oracle_budget_logs_unchecked_verdicts():
    oracle = OracleVerdict(verdict="budget")
    ds = classify([path("circ", "safe"), path("flow", "race")], oracle)
    assert {d.classification for d in ds} == {"budget"}
    assert not any(d.hard for d in ds)


def test_crash_is_hard():
    ds = classify([path("circ", "crash", detail="ZeroDivisionError")], oracle_safe())
    assert ds[0].classification == "crash" and ds[0].hard


def test_forged_witness_is_hard():
    # A race verdict whose steps cannot replay: flagged as 'witness'
    # even though the program genuinely races.
    bogus = path("circ", "race", n_threads=2, steps=((99, None),))
    ds = classify([bogus], oracle_race())
    assert [d.classification for d in ds] == ["witness"]
    assert ds[0].hard


def test_agreement_produces_no_disagreements():
    ds = classify([path("circ", "safe"), path("flow", "safe")], oracle_safe())
    assert ds == []


def test_check_one_racy_program_all_paths_agree():
    outcome = check_one(parse_program(RACY))
    assert outcome.oracle.is_race
    assert not outcome.hard
    for p in outcome.paths:
        assert p.verdict == "race", (p.path, p.verdict, p.detail)


def test_check_one_atomic_program_all_paths_agree():
    outcome = check_one(parse_program(SAFE))
    assert outcome.oracle.is_safe
    assert not outcome.hard
    for p in outcome.paths:
        assert p.verdict == "safe", (p.path, p.verdict, p.detail)


def test_check_one_monitor_flags_baseline_incompleteness():
    # The paper's Figure 1 motivation: lockset-style checkers warn on
    # the flag-monitor idiom, CIRC proves it safe.
    outcome = check_one(parse_program(MONITOR))
    assert outcome.oracle.is_safe
    assert not outcome.hard
    logged = {
        (d.path, d.classification) for d in outcome.disagreements
    }
    assert ("lockset", "incompleteness") in logged
    by_path = {p.path: p.verdict for p in outcome.paths}
    assert by_path["circ"] == "safe"
    assert by_path["engine-warm"] == "safe"


def test_check_one_give_up_is_unknown_not_crash():
    # Figure 1 needs a refinement, so one outer iteration makes a cold
    # CIRC run give up: an unknown verdict, never a crash.
    config = FuzzConfig(circ_options=(("max_outer", 1),))
    outcome = check_one(
        parse_program(TEST_AND_SET_SOURCE), "main", "x", config=config
    )
    assert not outcome.hard
    by_path = {p.path: p for p in outcome.paths}
    for name in ("circ", "omega", "prefilter", "engine-cold"):
        assert by_path[name].verdict == "unknown", by_path[name]
        assert by_path[name].detail == "no verdict after 1 outer iterations"
    # The cold run's predicates warm-start the second engine run, which
    # then converges within its one outer iteration.
    assert by_path["engine-warm"].verdict == "safe"
    assert by_path["portfolio"].verdict == "unknown"


def test_check_one_covers_all_paths():
    outcome = check_one(parse_program(RACY))
    assert tuple(p.path for p in outcome.paths) == PATHS


def test_run_fuzz_smoke_and_events():
    events = EventLog()
    report = run_fuzz(seed=0, iters=3, events=events)
    assert report.ok, report.hard
    assert len(report.rows) == 3 * len(PATHS)
    kinds = {e["event"] for e in events.events}
    assert {"fuzz_started", "fuzz_program", "fuzz_oracle", "fuzz_path",
            "fuzz_summary"} <= kinds
    # Telemetry rows follow the engine/events.py conventions.
    assert all("t" in e for e in events.events)


def test_corpus_entry_round_trip():
    d = Disagreement(
        path="lockset",
        classification="incompleteness",
        tool_verdict="race",
        oracle_verdict="safe",
        detail="expected false positive",
    )
    text = corpus_entry(42, d, RACY + "\n")
    meta = parse_corpus_entry(text)
    assert meta["path"] == "lockset"
    assert meta["classification"] == "incompleteness"
    assert meta["tool"] == "race" and meta["oracle"] == "safe"
    # The metadata header is comment-only: the file still parses.
    parse_program(text)


def test_hard_classes_are_the_documented_set():
    assert HARD_CLASSES == {"unsoundness", "witness", "oracle", "crash"}
