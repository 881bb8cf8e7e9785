"""Tests for the portfolio driver: cancellation, reconciliation, parity."""

import pytest

import repro.portfolio.driver as driver
from repro.circ.circ import circ
from repro.circ.result import CircSafe, CircUnsafe, CircUnknown
from repro.engine.cache import ArtifactCache
from repro.engine.events import EventLog
from repro.exec.interp import MultiProgram, replay
from repro.lang.lower import lower_source
from repro.portfolio.driver import (
    AnalysisOutcome,
    PortfolioConflict,
    _reconcile,
    _validate_witness,
    run_portfolio,
)
from repro.portfolio.winrate import DEFAULT_ORDER, WinRateBook, shape_class
from tests.exec.test_interp import forged_race

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

RACY = "global int x; thread t { while (1) { x = x + 1; } }"

ATOMIC = "global int x; thread t0 { while (*) { atomic { x = 1 - x; } } }"

LOCKED = (
    "global int m, x; "
    "thread t { while (1) { lock(m); x = x + 1; unlock(m); } }"
)

CORPUS = [("fig1", FIG1), ("racy", RACY), ("atomic", ATOMIC), ("locked", LOCKED)]

BUDGET = {"max_outer": 25, "max_inner": 25}


def _circ_only(source):
    return circ(lower_source(source), race_on="x", **BUDGET)


def test_baseline_win_cancels_circ():
    report = run_portfolio(lower_source(LOCKED), "x", **BUDGET)
    assert report.verdict == "safe"
    assert report.winner in ("racer", "absint")
    assert "circ" in report.cancelled


def test_circ_decides_what_baselines_cannot():
    report = run_portfolio(lower_source(FIG1), "x", **BUDGET)
    assert report.verdict == "safe"
    assert report.winner == "circ"
    racer = report.outcome("racer")
    assert racer is not None and racer.verdict == "unknown"


def test_race_verdict_carries_replaying_witness():
    report = run_portfolio(lower_source(RACY), "x", **BUDGET)
    assert report.verdict == "race"
    program = MultiProgram.symmetric(
        lower_source(RACY), max(2, report.n_threads)
    )
    ok, _ = replay(program, list(report.witness), race_on="x")
    assert ok


def test_reconciliation_portfolio_never_disagrees_with_circ_only():
    # The acceptance criterion: across the corpus, with cancellation off
    # (maximal disagreement surface) and on, a confident portfolio
    # verdict must match what a CIRC-only run concludes.
    for name, source in CORPUS:
        expected = _circ_only(source)
        for cancel in (False, True):
            report = run_portfolio(
                lower_source(source), "x", cancel=cancel, **BUDGET
            )
            if report.verdict == "unknown":
                continue  # abstention is never a disagreement
            if isinstance(expected, CircUnknown):
                continue  # circ abstained; nothing to compare against
            expected_verdict = (
                "safe" if isinstance(expected, CircSafe) else "race"
            )
            assert report.verdict == expected_verdict, (
                f"{name}: portfolio={report.verdict} (cancel={cancel}) "
                f"vs circ-only={expected_verdict}"
            )


def test_no_cancel_runs_every_analysis():
    report = run_portfolio(lower_source(RACY), "x", cancel=False, **BUDGET)
    assert not report.cancelled
    assert {o.analysis for o in report.outcomes} == {
        "racer",
        "absint",
        "circ",
    }


def test_schedule_follows_default_order_without_a_book():
    events = EventLog()
    report = run_portfolio(
        lower_source(RACY), "x", cancel=False, events=events, **BUDGET
    )
    assert [o.analysis for o in report.outcomes] == list(DEFAULT_ORDER)
    (started,) = events.of_kind("portfolio_started")
    assert started["order"] == list(DEFAULT_ORDER)


def test_cancelled_analyses_never_start(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a cancelled analysis ran")

    monkeypatch.setattr(driver, "circ", must_not_run)
    events = EventLog()
    report = run_portfolio(lower_source(LOCKED), "x", events=events, **BUDGET)
    assert (report.verdict, report.winner) == ("safe", "racer")
    assert report.cancelled == ("absint", "circ")
    started = events.of_kind("portfolio_analysis_started")
    assert [e["analysis"] for e in started] == ["racer"]


def test_schedule_follows_the_books_order(tmp_path):
    """Once the book has seen CIRC win a shape, CIRC runs first there,
    and its proof cancels both baselines."""
    cfa = lower_source(LOCKED)
    book = WinRateBook(tmp_path / "winrates.json")
    book.record(shape_class(cfa, "x"), "circ", True, 1.0)
    report = run_portfolio(cfa, "x", winrates=book, **BUDGET)
    assert [o.analysis for o in report.outcomes] == ["circ", "racer", "absint"]
    assert (report.verdict, report.winner) == ("safe", "circ")
    assert report.cancelled == ("racer", "absint")


def test_book_records_only_the_analyses_that_ran(tmp_path):
    book = WinRateBook(tmp_path / "winrates.json")
    report = run_portfolio(lower_source(LOCKED), "x", winrates=book, **BUDGET)
    assert report.cancelled == ("absint", "circ")
    book.save()  # run_portfolio only records; the book's creator saves
    cells = WinRateBook(tmp_path / "winrates.json").counts[report.shape]
    assert set(cells) == {"racer"}
    assert (cells["racer"]["wins"], cells["racer"]["runs"]) == (1, 1)


def test_baselines_share_one_phase1_analysis(monkeypatch):
    calls = []
    mhp_analysis = driver.mhp_analysis

    def counted(cfa, *args, **kwargs):
        calls.append(cfa)
        return mhp_analysis(cfa, *args, **kwargs)

    monkeypatch.setattr(driver, "mhp_analysis", counted)
    report = run_portfolio(lower_source(ATOMIC), "x", cancel=False, **BUDGET)
    assert report.outcome("racer").verdict == "safe"
    assert report.outcome("absint").verdict == "safe"
    assert len(calls) == 1


def test_conflicting_confident_verdicts_are_a_hard_error():
    safe = AnalysisOutcome(analysis="racer", verdict="safe", time_ms=1.0)
    race = AnalysisOutcome(analysis="circ", verdict="race", time_ms=1.0)
    with pytest.raises(PortfolioConflict):
        _reconcile("x", [safe, race])


def test_witness_that_leaves_the_cfa_is_a_conflict():
    cfa = lower_source(FIG1)
    forged = AnalysisOutcome(
        analysis="racer",
        verdict="race",
        time_ms=1.0,
        n_threads=2,
        witness=tuple(forged_race(cfa, "x")),
    )
    with pytest.raises(PortfolioConflict, match="does not replay"):
        _validate_witness(cfa, "x", forged)


def test_unknown_never_conflicts():
    safe = AnalysisOutcome(analysis="racer", verdict="safe", time_ms=1.0)
    unk = AnalysisOutcome(analysis="circ", verdict="unknown", time_ms=1.0)
    verdict, winner = _reconcile("x", [safe, unk])
    assert verdict == "safe" and winner == "racer"


def test_cancelled_outcome_is_never_confident():
    ghost = AnalysisOutcome(
        analysis="circ", verdict="cancelled", time_ms=0.0, cancelled=True
    )
    assert not ghost.confident
    verdict, winner = _reconcile("x", [ghost])
    assert verdict == "unknown" and winner == ""


def test_to_circ_result_synthesis():
    safe = run_portfolio(lower_source(LOCKED), "x", **BUDGET).to_circ_result()
    assert isinstance(safe, CircSafe) and safe.safe
    race = run_portfolio(lower_source(RACY), "x", **BUDGET).to_circ_result()
    assert isinstance(race, CircUnsafe) and not race.safe
    assert race.n_threads >= 2


def test_winrate_learning_reorders_schedule(tmp_path):
    book = WinRateBook(tmp_path / "winrates.json")
    for _ in range(3):
        run_portfolio(
            lower_source(FIG1), "x", winrates=book, **BUDGET
        )
    # On the atomic/small shape CIRC keeps winning, so it moves ahead
    # of the baselines that keep abstaining.
    order = book.order("atomic/small")
    assert order[0] == "circ"
    # And the book survives a reload, once its creator saves it.
    book.save()
    reloaded = WinRateBook(tmp_path / "winrates.json")
    assert reloaded.order("atomic/small")[0] == "circ"


def test_events_emitted(tmp_path):
    events_path = tmp_path / "events.jsonl"
    events = EventLog(str(events_path))
    run_portfolio(lower_source(LOCKED), "x", events=events, **BUDGET)
    events.close()
    import json

    names = [
        json.loads(line)["event"]
        for line in events_path.read_text().splitlines()
    ]
    assert "portfolio_started" in names
    assert "portfolio_verdict" in names
    assert "portfolio_cancelled" in names


def test_absint_warm_reuse_through_driver(tmp_path):
    cache = ArtifactCache(tmp_path)
    # Force absint to actually run by disabling cancellation.
    run_portfolio(lower_source(ATOMIC), "x", cancel=False, cache=cache, **BUDGET)
    report = run_portfolio(
        lower_source(ATOMIC), "x", cancel=False, cache=cache, **BUDGET
    )
    absint = report.outcome("absint")
    assert absint is not None
    assert "[cached]" in absint.detail
