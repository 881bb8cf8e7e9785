"""The prefilter driver: identical verdicts, strictly less CIRC work."""

import pytest

from repro.circ.result import CircSafe, CircUnsafe
from repro.engine.planner import _verdict_of
from repro.lang import lower_source
from repro.nesc import BENCHMARKS
from repro.races import check_race
from repro.static import StaticSafe, Verdict, prefilter_check

ATOMIC_ONLY = "global int x; thread t { while (1) { atomic { x = x + 1; } } }"
RACY = "global int x; thread t { while (1) { x = x + 1; } }"
READ_ONLY = (
    "global int ro, x; thread t { local int a; while (1) { a = ro; x = a; } }"
)

#: Rows excluded from the sweep: slow, or CIRC-undecided without tuning.
_SLOW = {"sense/tosPort"}


def test_protected_variable_skips_circ():
    result = check_race(ATOMIC_ONLY, "x", prefilter=True)
    assert isinstance(result, StaticSafe)
    assert result.safe
    assert result.static_verdict is Verdict.PROTECTED
    assert result.predicates == ()
    assert "statically" in str(result)


def test_read_only_variable_skips_circ():
    result = check_race(READ_ONLY, "ro", prefilter=True)
    assert isinstance(result, StaticSafe)
    assert result.static_verdict is Verdict.READ_SHARED
    # The unfiltered path agrees, the hard way.
    assert check_race(READ_ONLY, "ro", prefilter=False).safe


def test_must_check_variable_still_runs_circ():
    result = check_race(ATOMIC_ONLY.replace("atomic { x = x + 1; }", "x = x + 1;"), "x", prefilter=True)
    assert isinstance(result, CircUnsafe)
    assert not result.safe


def test_race_verdict_identical_with_and_without_prefilter():
    with_f = check_race(RACY, "x", prefilter=True)
    without = check_race(RACY, "x", prefilter=False)
    assert with_f.safe == without.safe is False
    assert with_f.n_threads == without.n_threads


def test_safe_verdict_identical_on_unprunable_variable():
    from repro.nesc.programs import TEST_AND_SET_SOURCE

    with_f = check_race(TEST_AND_SET_SOURCE, "x", prefilter=True)
    without = check_race(TEST_AND_SET_SOURCE, "x", prefilter=False)
    assert with_f.safe and without.safe
    # Not pruned: the proof really came from CIRC, predicates and all.
    assert not isinstance(with_f, StaticSafe)
    assert with_f.predicates


def test_prefilter_check_shares_a_report():
    from repro.static import classify

    cfa = lower_source(ATOMIC_ONLY)
    report = classify(cfa)
    result = prefilter_check(cfa, "x", report=report)
    assert isinstance(result, StaticSafe)


@pytest.mark.parametrize(
    "bench_case",
    [b for b in BENCHMARKS if b.key not in _SLOW],
    ids=lambda b: b.key,
)
def test_benchmark_verdicts_identical_under_prefilter(bench_case):
    """The acceptance bar: on the Table 1 models the prefiltered pipeline
    returns exactly the verdicts of the unfiltered one, pruning the
    trivially-protected rows."""
    cfa = bench_case.app.cfa()
    var = bench_case.variable.replace("_buggy", "")
    result = check_race(cfa, var, prefilter=True, max_states=500_000)
    assert _verdict_of(result) == ("safe" if bench_case.expect_safe else "race")
    if bench_case.key in (
        "secureTosBase/gTxProto",
        "secureTosBase/gRxTailIndex",
    ):
        assert isinstance(result, StaticSafe), "trivially-safe rows prune"
    else:
        assert not isinstance(result, StaticSafe)


def test_prefilter_prunes_strictly_more_than_nothing():
    """Across the benchmark models the prefilter removes at least the two
    trivially-protected variables from CIRC's worklist."""
    from repro.races.spec import racy_variables
    from repro.static import classify

    pruned_total = 0
    candidates_total = 0
    for b in BENCHMARKS:
        report = classify(b.app.cfa())
        racy = racy_variables(b.app.cfa())
        candidates_total += len(racy)
        pruned_total += len(set(report.pruned) & racy)
    assert 0 < pruned_total < candidates_total


def test_static_safe_result_quacks_like_circ_safe():
    result = check_race(ATOMIC_ONLY, "x", prefilter=True)
    assert isinstance(result, CircSafe)
    assert result.context.size >= 1
    assert result.stats.elapsed_seconds >= 0
