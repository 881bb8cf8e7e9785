"""Table 1: CIRC on the nesC application models.

Regenerates the paper's experimental table -- for each application/variable
pair, the number of discovered predicates, the size of the final context
ACFA, and the verification time -- on the synthetic re-creations of the
TinyOS synchronization idioms (see repro.nesc.programs for the
substitution rationale).  Absolute times are machine- and
substrate-dependent; the comparison targets are the verdicts and the
relative ordering (trivially-safe variables near-instant and
predicate-free; the multi-valued state machine and the combined
interrupt/state protocol the largest and slowest).
"""

import pytest

from repro.circ import circ
from repro.engine.planner import _verdict_of
from repro.nesc import BENCHMARKS

_TABLE1 = [b for b in BENCHMARKS if b.paper_preds is not None]
_RESULTS: dict = {}

#: The slow rows are skipped unless --full-table1 is given.
_SLOW = {"sense/tosPort"}


@pytest.mark.parametrize("bench_case", _TABLE1, ids=lambda b: b.key)
def test_table1_row(benchmark, bench_case, full_table1, request):
    if bench_case.key in _SLOW and not full_table1:
        pytest.skip("slow row; pass --full-table1 to include")
    cfa = bench_case.app.cfa()
    var = bench_case.variable.replace("_buggy", "")

    result = benchmark.pedantic(
        lambda: circ(cfa, race_on=var, max_states=500_000),
        rounds=1,
        iterations=1,
    )
    assert _verdict_of(result) == ("safe" if bench_case.expect_safe else "race")
    _RESULTS[bench_case.key] = (
        len(result.predicates),
        result.context.size if result.safe else 0,
        result.stats.elapsed_seconds,
    )
    benchmark.extra_info["predicates"] = len(result.predicates)
    benchmark.extra_info["acfa"] = result.context.size if result.safe else 0
    benchmark.extra_info["paper_preds"] = bench_case.paper_preds
    benchmark.extra_info["paper_acfa"] = bench_case.paper_acfa
    benchmark.extra_info["paper_time"] = bench_case.paper_time


def test_table1_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    """Print the regenerated table next to the paper's numbers."""
    if not _RESULTS:
        pytest.skip("no rows were run")
    print("\n=== Table 1 (reproduction vs paper) ===")
    header = (
        f"{'app/variable':34s} {'preds':>5s} {'ACFA':>5s} {'time':>8s}"
        f"   | {'paper':>5s} {'ACFA':>5s} {'time':>8s}"
    )
    print(header)
    for b in _TABLE1:
        if b.key not in _RESULTS:
            continue
        preds, acfa, secs = _RESULTS[b.key]
        print(
            f"{b.key:34s} {preds:5d} {acfa:5d} {secs:7.1f}s"
            f"   | {b.paper_preds:5d} {b.paper_acfa:5d} {b.paper_time:>8s}"
        )

    # Shape assertions (who is big/small), mirroring the paper's table.
    def row(key):
        return _RESULTS.get(key)

    trivial = [row("secureTosBase/gTxProto"), row("secureTosBase/gRxTailIndex")]
    heavy = [row("secureTosBase/gRxHeadIndex")]
    for t in trivial:
        if t is None:
            continue
        for h in heavy:
            if h is None:
                continue
            assert t[0] <= h[0], "trivial rows need fewer predicates"
            assert t[2] <= h[2], "trivial rows are faster"
    gtxproto = row("secureTosBase/gTxProto")
    if gtxproto:
        assert gtxproto[0] == 0, "atomic-only variable needs no predicates"
