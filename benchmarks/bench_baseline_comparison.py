"""Section 1/6 claim: CIRC proves absence of races where previous
checkers give false positives.

For every *safe* benchmark variable, runs the two baselines (Eraser-style
lockset discipline, nesC-compiler flow analysis) and CIRC, and checks the
paper's claim: the state-variable / split-phase / conditional-locking
idioms are flagged by at least one baseline yet proved race-free by CIRC;
the trivially protected variables are clean everywhere; and on the buggy
variants CIRC agrees with the ground truth instead of over-warning.

The second half measures the **analysis portfolio**: per-analysis
latency, win rates, cross-cancellation savings (cancel-on vs cancel-off
wall clock), and the headline claim that on statically-easy programs the
portfolio beats a CIRC-only run while never changing a verdict.

Standalone run (writes ``BENCH_portfolio.json``)::

    PYTHONPATH=src python benchmarks/bench_baseline_comparison.py

Under pytest the same portfolio measurements gate CI::

    PYTHONPATH=src python -m pytest benchmarks/bench_baseline_comparison.py -q
"""

import json
import time

import pytest

from repro.baselines import flow_analysis, lockset_analysis
from repro.circ import circ
from repro.circ.result import CircSafe, CircUnsafe
from repro.lang import lower_source
from repro.nesc import BENCHMARKS
from repro.nesc.programs import TEST_AND_SET_SOURCE
from repro.portfolio import WinRateBook, run_portfolio, shape_class

_SLOW = {"sense/tosPort"}


def test_figure1_false_positive_matrix(benchmark):
    """The motivating example: lockset warns, CIRC proves."""
    cfa = lower_source(TEST_AND_SET_SOURCE)

    def run():
        return lockset_analysis(cfa), circ(cfa, race_on="x")

    lockset, verdict = benchmark.pedantic(run, rounds=1, iterations=1)
    assert lockset.warns_on("x"), "lockset must false-positive (paper claim)"
    assert verdict.safe, "CIRC must prove the idiom safe"


@pytest.mark.parametrize(
    "bench_case",
    [b for b in BENCHMARKS if b.expect_safe],
    ids=lambda b: b.key,
)
def test_false_positive_comparison(benchmark, bench_case, full_table1):
    if bench_case.key in _SLOW and not full_table1:
        pytest.skip("slow row; pass --full-table1 to include")
    var = bench_case.variable.replace("_buggy", "")
    cfa = bench_case.app.cfa()

    flow = flow_analysis(bench_case.app)
    lockset = lockset_analysis(cfa)
    baseline_warns = flow.warns_on(var) or lockset.warns_on(var)

    result = benchmark.pedantic(
        lambda: circ(cfa, race_on=var, max_states=500_000),
        rounds=1,
        iterations=1,
    )
    assert result.safe, "ground truth: these models are race-free"
    benchmark.extra_info["flow_warns"] = flow.warns_on(var)
    benchmark.extra_info["lockset_warns"] = lockset.warns_on(var)
    benchmark.extra_info["circ"] = "safe"

    if bench_case.paper_preds not in (0, None):
        # Non-trivial idioms: the paper's false-positive claim.
        assert baseline_warns, (
            f"{bench_case.key}: baselines should flag this idiom "
            "(it is why the variable was annotated norace)"
        )


@pytest.mark.parametrize(
    "bench_case",
    [b for b in BENCHMARKS if not b.expect_safe],
    ids=lambda b: b.key,
)
def test_true_positive_agreement(benchmark, bench_case):
    """On genuinely racy variants everyone warns, but only CIRC produces a
    concrete interleaved witness."""
    var = bench_case.variable.replace("_buggy", "")
    cfa = bench_case.app.cfa()
    result = benchmark.pedantic(
        lambda: circ(cfa, race_on=var, max_states=500_000),
        rounds=1,
        iterations=1,
    )
    assert not result.safe
    assert result.steps, "witness trace expected"
    assert flow_analysis(bench_case.app).warns_on(var)


# -- portfolio measurements ----------------------------------------------------

#: Portfolio workload.  ``easy`` marks the statically-easy subset: a
#: phase-1 kill rule or the interval domain decides these without ever
#: paying for context inference, which is where cross-cancellation must
#: show a wall-clock win.  Figure 1 is the hard row CIRC alone decides.
_PORTFOLIO_WORKLOAD = (
    (
        "locked-counter",
        "global int m, x; "
        "thread t { while (1) { lock(m); x = x + 1; unlock(m); } }",
        "x",
        True,
    ),
    (
        "atomic-toggle",
        "global int x; thread t0 { while (*) { atomic { x = 1 - x; } } }",
        "x",
        True,
    ),
    (
        "bare-racy-counter",
        "global int x; thread t { while (1) { x = x + 1; } }",
        "x",
        True,
    ),
    (
        "value-guarded-write",
        """
        global int x;
        thread t {
          local int a;
          while (1) { a = 0; if (a == 1) { x = x + 1; } }
        }
        """,
        "x",
        True,
    ),
    ("fig1-test-and-set", TEST_AND_SET_SOURCE, "x", False),
)

_PORTFOLIO_BUDGET = dict(max_outer=40, max_inner=40)


def _circ_only(cfa, var):
    return circ(cfa, race_on=var, **_PORTFOLIO_BUDGET)


def _verdict_of(result):
    if isinstance(result, CircSafe):
        return "safe"
    if isinstance(result, CircUnsafe):
        return "race"
    return "unknown"


def run_portfolio_bench(repeats: int = 2) -> dict:
    """Measure the portfolio against CIRC-only over the workload.

    Every item runs three ways -- CIRC alone, portfolio with
    cross-cancellation, portfolio with cancellation disabled -- and the
    verdicts of all three must agree wherever both sides are confident
    (the reconciliation soundness claim, measured rather than assumed).
    """
    items = {}
    wins: dict[str, dict[str, int]] = {}
    cancel_on_total = cancel_off_total = learned_total = 0.0
    easy_portfolio_ms = easy_circ_ms = 0.0

    # Warm a win-rate book over the whole workload first: the learned
    # pass below measures the deployed configuration, where the book has
    # already seen this workload shape and schedules the historical
    # winner first (e.g. CIRC ahead of the racer's bounded search on the
    # test-and-set shape).
    book = WinRateBook()
    for name, source, var, easy in _PORTFOLIO_WORKLOAD:
        run_portfolio(
            lower_source(source), var, winrates=book, **_PORTFOLIO_BUDGET
        )

    for name, source, var, easy in _PORTFOLIO_WORKLOAD:
        cfa = lower_source(source)

        circ_ms = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            circ_result = _circ_only(cfa, var)
            circ_ms = min(circ_ms, (time.perf_counter() - t0) * 1000.0)

        on_ms = off_ms = learned_ms = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            report = run_portfolio(cfa, var, **_PORTFOLIO_BUDGET)
            on_ms = min(on_ms, (time.perf_counter() - t0) * 1000.0)
            t0 = time.perf_counter()
            report_off = run_portfolio(
                cfa, var, cancel=False, **_PORTFOLIO_BUDGET
            )
            off_ms = min(off_ms, (time.perf_counter() - t0) * 1000.0)
            t0 = time.perf_counter()
            report_learned = run_portfolio(
                cfa, var, winrates=book, **_PORTFOLIO_BUDGET
            )
            learned_ms = min(
                learned_ms, (time.perf_counter() - t0) * 1000.0
            )

        # Verdict equivalence: the acceptance criterion of the portfolio.
        circ_verdict = _verdict_of(circ_result)
        for which, got in (
            ("cancel-on", report),
            ("cancel-off", report_off),
            ("learned", report_learned),
        ):
            if got.verdict != "unknown" and circ_verdict != "unknown":
                assert got.verdict == circ_verdict, (
                    f"{name} ({which}): portfolio={got.verdict} "
                    f"vs circ-only={circ_verdict}"
                )

        cancel_on_total += on_ms
        cancel_off_total += off_ms
        learned_total += learned_ms
        if easy:
            easy_portfolio_ms += on_ms
            easy_circ_ms += circ_ms

        for outcome in report_off.outcomes:
            tally = wins.setdefault(
                outcome.analysis, {"wins": 0, "runs": 0}
            )
            tally["runs"] += 1
            if outcome.analysis == report_off.winner:
                tally["wins"] += 1

        items[name] = {
            "verdict": report.verdict,
            "winner": report.winner,
            "shape": shape_class(cfa, var),
            "statically_easy": easy,
            "portfolio_ms": round(on_ms, 3),
            "portfolio_no_cancel_ms": round(off_ms, 3),
            "portfolio_learned_ms": round(learned_ms, 3),
            "learned_winner": report_learned.winner,
            "circ_only_ms": round(circ_ms, 3),
            "cancelled": sorted(report.cancelled),
            "per_analysis_ms": {
                o.analysis: round(o.time_ms, 3)
                for o in report_off.outcomes
            },
        }

    return {
        "items": items,
        "win_rates": {
            a: {
                **t,
                "rate": round(t["wins"] / t["runs"], 3) if t["runs"] else 0.0,
            }
            for a, t in sorted(wins.items())
        },
        "cancellation": {
            "cancel_on_total_ms": round(cancel_on_total, 3),
            "cancel_off_total_ms": round(cancel_off_total, 3),
            # The deployed configuration: learned scheduling order plus
            # cross-cancellation, against running every analysis to
            # completion in the default order.
            "learned_total_ms": round(learned_total, 3),
            "savings_pct": round(
                100.0 * (1.0 - learned_total / max(cancel_off_total, 1e-9)),
                1,
            ),
        },
        "easy_subset": {
            "portfolio_ms": round(easy_portfolio_ms, 3),
            "circ_only_ms": round(easy_circ_ms, 3),
            "speedup": round(
                easy_circ_ms / max(easy_portfolio_ms, 1e-9), 3
            ),
        },
    }


def test_portfolio_verdict_equivalence_and_easy_subset_win():
    """CI gate: run_portfolio_bench's internal asserts check verdict
    equivalence; on top of that the statically-easy subset must show a
    wall-clock win and cancellation must not cost time overall."""
    data = run_portfolio_bench(repeats=1)
    assert data["easy_subset"]["speedup"] > 1.0, data["easy_subset"]
    # Figure 1 is decided by CIRC, the easy rows by the baselines.
    assert data["items"]["fig1-test-and-set"]["winner"] == "circ"
    assert data["items"]["fig1-test-and-set"]["verdict"] == "safe"
    assert data["items"]["bare-racy-counter"]["verdict"] == "race"
    for name, row in data["items"].items():
        if row["statically_easy"]:
            assert row["winner"] in ("racer", "absint"), (name, row)
    # The learned schedule plus cancellation beats running everything.
    c = data["cancellation"]
    assert c["learned_total_ms"] < c["cancel_off_total_ms"], c


# -- standalone entry point ----------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="portfolio vs CIRC-only benchmark"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_portfolio.json")
    args = parser.parse_args(argv)

    data = run_portfolio_bench(repeats=args.repeats)

    for name, row in data["items"].items():
        print(
            f"{name:24s} {row['verdict']:7s} won by {row['winner']:6s} "
            f"portfolio {row['portfolio_ms']:8.1f}ms  "
            f"learned {row['portfolio_learned_ms']:8.1f}ms  "
            f"circ-only {row['circ_only_ms']:8.1f}ms"
        )
    c = data["cancellation"]
    print(
        f"cross-cancellation: learned order {c['learned_total_ms']:.1f}ms "
        f"vs {c['cancel_off_total_ms']:.1f}ms uncancelled "
        f"({c['savings_pct']:.0f}% saved)"
    )
    e = data["easy_subset"]
    print(
        f"statically-easy subset: {e['portfolio_ms']:.1f}ms vs "
        f"{e['circ_only_ms']:.1f}ms circ-only ({e['speedup']:.1f}x)"
    )

    payload = {"benchmark": "portfolio", **data}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if e["speedup"] <= 1.0:
        print("FAIL: no wall-clock win on the statically-easy subset")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
