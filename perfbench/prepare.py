"""Write a workload's queries with their known answers, as JSON.

    python3 perfbench/prepare.py table1 OUT.json [COUNT]
    python3 perfbench/prepare.py corpus OUT.json COUNT

``table1``: Figures 2-4 and the Table 1 rows other than ``sense/tosPort``
(the first COUNT of them when given), answered by
``NescBenchmark.expect_safe``.  ``corpus``: the first COUNT
fuzz programs, answered by ``repro.fuzz.oracle.oracle_check``.  This runs
in its own interpreter so that the oracle's explicit-state search never
counts in the measured process's peak memory.
"""

import json
import sys
from dataclasses import asdict

from repro.fuzz.gen import GenConfig, generate
from repro.fuzz.oracle import oracle_check
from repro.nesc import BENCHMARKS
from repro.nesc.programs import TEST_AND_SET_SOURCE

from workloads import RACE_VAR, Query


def table1_queries() -> list[Query]:
    queries = [Query("fig2-4/x", TEST_AND_SET_SOURCE, None, "x", "safe")]
    for b in BENCHMARKS:
        if b.key == "sense/tosPort":
            continue
        queries.append(
            Query(
                b.key,
                b.app.thread_source(),
                None,
                b.variable.replace("_buggy", ""),
                "safe" if b.expect_safe else "race",
            )
        )
    return queries


def corpus_queries(size: int) -> list[Query]:
    cfg = GenConfig(pointers=False)
    queries = []
    for i in range(size):
        gp = generate(i, cfg)
        answer = oracle_check(gp.program, gp.thread, RACE_VAR)
        queries.append(
            Query(
                f"fuzz{i}",
                gp.source,
                gp.thread,
                RACE_VAR,
                answer.verdict,
                bool(answer.certificate and answer.certificate.unbounded),
            )
        )
    return queries


def main(kind: str, out: str, count: str | None = None) -> None:
    if kind == "table1":
        queries = table1_queries()[: count and int(count)]
    elif kind == "corpus":
        queries = corpus_queries(int(count))
    else:
        raise SystemExit(f"error: unknown query kind {kind!r}")
    with open(out, "w") as fh:
        json.dump([asdict(q) for q in queries], fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
