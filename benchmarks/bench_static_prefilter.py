"""Static pre-analysis as a CIRC accelerator on the nesC models.

Two measurements per application model:

* the verdict-class census -- how many shared variables the static
  pre-analysis settles per lattice class (local / read-shared /
  protected / must-check), i.e. how much of CIRC's worklist it prunes;
* wall-clock for ``check_race`` with and without the prefilter on the
  Table 1 variables, confirming the pruned rows collapse to
  near-instant static proofs while the must-check rows pay only the
  (cheap) classification on top of the unchanged CIRC run.

Emit machine-readable results the same way as the sibling scripts:

    PYTHONPATH=src python -m pytest benchmarks/bench_static_prefilter.py \
        --benchmark-json=prefilter.json
"""

import time

import pytest

from repro.engine.planner import _verdict_of
from repro.nesc import BENCHMARKS
from repro.races import check_race
from repro.static import Verdict, classify

#: The slow rows are skipped unless --full-table1 is given.
_SLOW = {"sense/tosPort"}

_ROWS = [b for b in BENCHMARKS if b.paper_preds is not None]
_APPS = list({b.app.name: b.app for b in _ROWS}.values())
_CENSUS: dict = {}
_TIMES: dict = {}


@pytest.mark.parametrize("app", _APPS, ids=lambda a: a.name)
def test_verdict_census(benchmark, app):
    """Classify every shared variable of one application model."""
    cfa = app.cfa()
    report = benchmark.pedantic(lambda: classify(cfa), rounds=1, iterations=1)
    counts = report.counts()
    _CENSUS[app.name] = counts
    for verdict in Verdict:
        benchmark.extra_info[verdict.value] = counts.get(verdict, 0)
    benchmark.extra_info["pruned"] = len(report.pruned)
    benchmark.extra_info["must_check"] = len(report.must_check)
    # The trivially-safe models are fully discharged statically; the
    # data-dependent idioms (test-and-set, conditional locking) keep at
    # least their race variable on CIRC's plate.
    if app.name in ("gTxProto", "gRxTailIndex"):
        assert not report.must_check, f"{app.name}: should prune everything"
    else:
        assert report.must_check, f"{app.name}: nothing left for CIRC?"


@pytest.mark.parametrize("mode", ["prefilter", "no-prefilter"])
@pytest.mark.parametrize("bench_case", _ROWS, ids=lambda b: b.key)
def test_check_race_wall_clock(benchmark, bench_case, mode, full_table1):
    if bench_case.key in _SLOW and not full_table1:
        pytest.skip("slow row; pass --full-table1 to include")
    cfa = bench_case.app.cfa()
    var = bench_case.variable.replace("_buggy", "")
    use_prefilter = mode == "prefilter"

    start = time.perf_counter()
    result = benchmark.pedantic(
        lambda: check_race(
            cfa, var, prefilter=use_prefilter, max_states=500_000
        ),
        rounds=1,
        iterations=1,
    )
    elapsed = time.perf_counter() - start
    assert _verdict_of(result) == ("safe" if bench_case.expect_safe else "race")
    pruned = type(result).__name__ == "StaticSafe"
    _TIMES[(bench_case.key, mode)] = (elapsed, pruned)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["statically_pruned"] = pruned
    if not use_prefilter:
        assert not pruned


def test_prefilter_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    if not _CENSUS or not _TIMES:
        pytest.skip("no rows were run")
    print("\n=== Static prefilter: verdict census per model ===")
    print(f"{'app':16s} " + " ".join(f"{v.value:>12s}" for v in Verdict))
    for name, counts in _CENSUS.items():
        print(
            f"{name:16s} "
            + " ".join(f"{counts.get(v, 0):12d}" for v in Verdict)
        )

    print("\n=== check_race wall-clock, with vs without prefilter ===")
    print(f"{'app/variable':34s} {'with':>9s} {'without':>9s}  pruned")
    for b in _ROWS:
        with_t = _TIMES.get((b.key, "prefilter"))
        without_t = _TIMES.get((b.key, "no-prefilter"))
        if with_t is None or without_t is None:
            continue
        print(
            f"{b.key:34s} {with_t[0]:8.3f}s {without_t[0]:8.3f}s"
            f"  {'yes' if with_t[1] else 'no'}"
        )
        if with_t[1]:
            # A pruned row skips CIRC entirely; it must not be slower
            # than the full run by more than the classification noise.
            assert with_t[0] <= without_t[0] + 0.1
