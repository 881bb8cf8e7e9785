"""Tests for the portfolio driver: cancellation, reconciliation, parity."""

import os

import pytest

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
from repro.portfolio.winrate import WinRateBook
from repro.shard.worker import Worker
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

# The racer proves x safe in milliseconds; CIRC needs seconds.
SLOW_FOR_CIRC = """
global int x = 1;
global int s;
global int m;

int pick(int a) {
  if ((a > 0)) {
    return a;
  }
}

thread t0 {
  atomic {
    assert(*);
    lock(m);
    s = 2;
    unlock(m);
  }
  local int l0;
  atomic {
    atomic {
      if (*) {
        local int l1 = 2;
        s = pick((1 - x));
        assert((x == 1));
      }
      l0 = pick(l1);
    }
    x = (1 - l1);
  }
  lock(m);
  x = (1 - x);
  unlock(m);
  local int l2 = l0;
}
"""

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


def test_parallel_mode_two_way_cancellation():
    report = run_portfolio(
        lower_source(LOCKED), "x", source=LOCKED, parallel=True, **BUDGET
    )
    assert report.verdict == "safe"
    # A confident baseline verdict kills the CIRC process (unless CIRC
    # happened to answer first, in which case nothing was lost).
    assert report.winner in ("racer", "absint", "circ")
    report = run_portfolio(
        lower_source(FIG1), "x", source=FIG1, parallel=True, **BUDGET
    )
    assert report.verdict == "safe"
    assert report.winner == "circ"


def test_cancelled_parallel_circ_worker_is_reaped():
    events = EventLog()
    report = run_portfolio(
        lower_source(SLOW_FOR_CIRC),
        "x",
        source=SLOW_FOR_CIRC,
        parallel=True,
        events=events,
    )
    assert report.verdict == "safe" and "circ" in report.cancelled
    (cancelled,) = [
        e for e in events.of_kind("portfolio_cancelled")
        if e["analysis"] == "circ"
    ]
    with pytest.raises(ProcessLookupError):
        os.kill(cancelled["pid"], 0)


def test_crashed_parallel_circ_worker_leaves_baselines_running(
    monkeypatch,
):
    send = Worker.send

    def send_and_crash(self, frame):
        if frame.get("op") == "job":
            payload = {**frame["payload"], "_test_kill_worker": True}
            send(self, {**frame, "payload": payload})
            self.proc.wait()  # the crash is visible before any baseline runs
        else:
            send(self, frame)

    monkeypatch.setattr(Worker, "send", send_and_crash)
    report = run_portfolio(
        lower_source(RACY), "x", source=RACY, parallel=True, **BUDGET
    )
    assert report.verdict == "race" and report.winner == "racer"
    (circ_outcome,) = [o for o in report.outcomes if o.analysis == "circ"]
    assert circ_outcome.verdict == "unknown" and not circ_outcome.cancelled
    assert "died" in circ_outcome.detail


def test_parallel_portfolio_runs_serially_without_a_worker(monkeypatch):
    def fail(self):
        raise OSError("worker 0 failed its hello handshake")

    monkeypatch.setattr(Worker, "spawn", fail)
    events = EventLog()
    report = run_portfolio(
        lower_source(FIG1), "x", source=FIG1, parallel=True, events=events,
        **BUDGET,
    )
    assert report.verdict == "safe"
    assert [e["worker"] for e in events.of_kind("worker_failed")] == [0]
    assert {o.analysis for o in report.outcomes} == {"racer", "absint", "circ"}


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
    # And the book survives a reload.
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
