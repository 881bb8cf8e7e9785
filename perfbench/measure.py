"""The timed phase of one benchmark run, in its own interpreter.

    python3 perfbench/measure.py SPEC.json

``run.py`` writes the spec and reads the result, one JSON object on the
last line of standard output.  Running the timed phase in a child of the
small ``run.py`` process keeps input generation, the oracle and set-up
out of ``peak_rss_mb``: this process only imports ``repro``, loads the
queries and serves them, and its only children are shard workers.
Request times are rescaled to reference speed (see ``workloads.py``)
with the reference loop run just before and just after each request.
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine import BatchItem, EventLog, run_batch
from repro.races.spec import check_race
from repro.smt.qcache import SAT_CACHE
from repro.smt.session import reset_default_session
from repro.static.prefilter import StaticSafe

from layers import LAYERS, Tracer
from workloads import SHARD_WORKERS, WORKLOADS, Query, at_reference_speed, reference_time


@dataclass
class Tally:
    """What one kind of pass (warm-up, untraced or traced) observed."""

    #: Request seconds per distinct request, as measured and at reference speed.
    elapsed: dict[str, list[float]] = field(default_factory=dict)
    scaled: dict[str, list[float]] = field(default_factory=dict)
    pass_elapsed: list[float] = field(default_factory=list)
    pass_scaled: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    # Counters read from the program's own results, kept on traced passes.
    rows: int = 0
    static_rows: int = 0
    portfolio_rows: int = 0
    racer_wins: int = 0
    inner_iterations: int = 0
    refinements: int = 0
    abstract_states: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    qcache_hits: int = 0
    qcache_lookups: int = 0
    computed_s: float = 0.0
    steals: int = 0
    respawns: int = 0

    def record(self, request: str, elapsed: float, scaled: float) -> None:
        self.elapsed.setdefault(request, []).append(elapsed)
        self.scaled.setdefault(request, []).append(scaled)
        self.pass_elapsed[-1] += elapsed
        self.pass_scaled[-1] += scaled


def batch_items(queries: list[Query]) -> list[BatchItem]:
    return [BatchItem(q.key, q.source, q.thread, (q.variable,)) for q in queries]


# -- known-answer gate --------------------------------------------------------


def judge(query: Query, verdict: str, tally: Tally) -> None:
    """Count one answer against the known one.

    Hard failures: safe where a race is known, and race where the answer
    is safe for every thread count.  A race against a safe answer that
    was only checked up to a bounded thread count is logged, because the
    race may need more threads than the oracle enumerated.
    """
    tally.attempted += 1
    if verdict == "unknown":
        tally.failed += 1
    elif verdict == query.expect or query.expect == "budget":
        pass
    elif verdict == "race" and query.expect == "safe" and not query.unbounded:
        print(
            f"note: {query.key}: race beyond the oracle's bounded safe answer",
            file=sys.stderr,
        )
    else:
        tally.failed += 1
        tally.wrong.append(f"{query.key}: got {verdict}, known answer {query.expect}")


def verdict_of(result) -> str:
    if result.unknown:
        return "unknown"
    return "safe" if result.safe else "race"


# -- timing -------------------------------------------------------------------


class Stopwatch:
    """Times requests, also at reference speed."""

    def __init__(self) -> None:
        self.before = reference_time()

    def time(self, request):
        start = time.perf_counter()
        result = request()
        elapsed = time.perf_counter() - start
        after = reference_time()
        scaled = at_reference_speed(elapsed, self.before, after)
        self.before = after
        return result, elapsed, scaled


# -- passes -------------------------------------------------------------------


def clear_process_tiers() -> None:
    SAT_CACHE.clear()
    reset_default_session()


def qcache_counts() -> tuple[int, int]:
    s = SAT_CACHE.stats()
    return s["hits"] + s["warm_hits"], s["hits"] + s["misses"]


def count_result(result, tally: Tally) -> None:
    stats = result.stats
    tally.inner_iterations += stats.inner_iterations
    # Every outer iteration after the first follows a refinement (new
    # predicates or a larger counter bound).
    tally.refinements += max(0, stats.outer_iterations - 1)
    tally.abstract_states += stats.abstract_states


def check_pass(order, clock, tracer, tally, traced) -> None:
    for q in order:
        clear_process_tiers()
        tracer.begin_query()
        try:
            result, elapsed, scaled = clock.time(
                lambda: check_race(q.source, q.variable, q.thread, prefilter=True)
            )
        except Exception as exc:  # an internal error is a failed query
            tally.problems.append(f"{q.key}: {type(exc).__name__}: {exc}")
            judge(q, "unknown", tally)
            continue
        tally.record(q.key, elapsed, scaled)
        judge(q, verdict_of(result), tally)
        if traced:
            tally.rows += 1
            if isinstance(result, StaticSafe):
                tally.static_rows += 1
            else:
                count_result(result, tally)


def batch_pass(workload, order, clock, tracer, tally, traced, cache) -> None:
    events = EventLog()
    clear_process_tiers()
    tracer.begin_query()
    report, elapsed, scaled = clock.time(
        lambda: run_batch(
            batch_items(order), cache_dir=str(cache), events=events, **workload.options
        )
    )
    tally.record("batch", elapsed, scaled)
    by_key = {q.key: q for q in order}
    for row in report.rows:
        judge(by_key[row.model], row.verdict, tally)
    if "shard_workers" in workload.options:
        # A child that cannot import repro fails its hello handshake and
        # run_batch quietly runs every job in-process, which would
        # measure the serial path under this workload's name.
        failed = events.of_kind("worker_failed")
        serial = [e for e in events.of_kind("job_started") if e.get("mode") == "serial"]
        if failed or serial:
            tally.problems.append(
                f"workers fell back to in-process execution "
                f"({len(failed)} worker_failed, {len(serial)} serial jobs)"
            )
    if not traced:
        return
    tally.rows += len(report.rows)
    for row in report.rows:
        if row.source == "static":
            tally.static_rows += 1
        elif row.source in ("circ", "circ-warm"):
            count_result(row.result, tally)
            tally.computed_s += row.time_ms / 1000.0
        elif row.source.startswith("portfolio:"):
            tally.portfolio_rows += 1
            tally.racer_wins += row.source == "portfolio:racer"
    stats = report.cache_stats
    tally.cache_hits += stats.get("hits", 0)
    tally.cache_lookups += stats.get("hits", 0) + stats.get("misses", 0)
    for summary in events.of_kind("shard_summary"):
        tally.steals += summary["steals"]
        tally.respawns += summary["respawns"]


# -- the run ------------------------------------------------------------------


def latency_summary(by_request: dict[str, list[float]]) -> tuple[float, float]:
    """(p50, p90) of one tally.

    The run repeats every distinct request once per pass to average out
    noise, so each request's time is its median over the passes, and the
    percentiles run over distinct requests.  A batch workload has one
    distinct request, the whole batch, so its p90 equals its p50.
    """
    medians = [statistics.median(v) for v in by_request.values()]
    p90 = medians[0] if len(medians) == 1 else statistics.quantiles(medians, n=10)[-1]
    return statistics.median(medians), p90


def measure(spec: dict) -> dict:
    """Run the timed phase the spec describes; returns the result object
    (``metrics`` without ``setup_s``, which ``run.py`` measures)."""
    workload = WORKLOADS[spec["workload"]]
    trace = spec["trace"]
    work = Path(spec["work"])
    primed = Path(spec["cache"]) if spec["cache"] else None
    with open(spec["queries"]) as fh:
        queries = [Query(**q) for q in json.load(fh)]

    rng = random.Random(spec["seed"])
    tracer = Tracer()
    warmup, plain, traced_tally = Tally(), Tally(), Tally()
    clock = Stopwatch()
    passes = 0
    pass_walls: list[float] = []
    begin = time.perf_counter()
    # The first pass in a process runs up to 40% slower (the interpreter
    # specialises code, term tables fill), so it is checked but not
    # counted.  Trace runs then alternate untraced and traced passes, so
    # the overhead is measured on the same work; at least one of each runs.
    while passes < (3 if trace else 2) or (
        time.perf_counter() - begin + statistics.mean(pass_walls) <= spec["seconds"]
    ):
        pass_start = time.perf_counter()
        traced = trace and passes % 2 == 0 and passes > 0
        tally = warmup if passes == 0 else traced_tally if traced else plain
        order = rng.sample(queries, len(queries))
        tally.pass_elapsed.append(0.0)
        tally.pass_scaled.append(0.0)
        qcache_before = qcache_counts()
        if traced:
            tracer.install()
        try:
            if workload.pool is None:
                check_pass(order, clock, tracer, tally, traced)
            else:
                cache = primed or work / f"pass{passes}"
                batch_pass(workload, order, clock, tracer, tally, traced, cache)
                if primed is None:
                    shutil.rmtree(cache)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            hits, lookups = qcache_counts()
            tally.qcache_hits += hits - qcache_before[0]
            tally.qcache_lookups += lookups - qcache_before[1]
        passes += 1
        pass_walls.append(time.perf_counter() - pass_start)
    # Set-up and input generation ran in other children of run.py, so
    # this process's children are only the shard workers.
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    if trace:
        metrics = layer_metrics(tracer, plain, traced_tally)
        if spec["spans"]:
            tracer.dump(spec["spans"])
    else:
        p50, p90 = latency_summary(plain.scaled)
        metrics = {
            "latency_p50_ms": (1000.0 * p50, "ms"),
            "latency_p90_ms": (1000.0 * p90, "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    raw = latency_summary(plain.elapsed)
    tallies = (warmup, plain, traced_tally)
    return {
        "correct": not any(t.wrong or t.problems for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wrong": [line for t in tallies for line in t.wrong],
        "problems": [line for t in tallies for line in t.problems],
        "raw": {
            "latency_p50_ms": 1000.0 * raw[0],
            "latency_p90_ms": 1000.0 * raw[1],
            "samples": sum(len(v) for v in plain.elapsed.values()),
            "passes": passes,
        },
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, plain: Tally, traced: Tally) -> dict:
    n = len(traced.pass_scaled)
    table = tracer.layer_table()
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (table[layer]["calls"] / n, "count/pass")
        metrics[f"{layer}.self_s"] = (table[layer]["self_s"] / n, "s/pass")
    shard_wall = sum(s.end - s.start for s in tracer.spans if s.layer == "shard")
    overhead = statistics.mean(traced.pass_scaled) / statistics.mean(plain.pass_scaled) - 1.0
    metrics.update(
        {
            "smt.qcache_hit_ratio": (ratio(traced.qcache_hits, traced.qcache_lookups), "ratio"),
            "predabs.memo_hit_ratio": (
                ratio(tracer.memo_hits.get("predabs", 0), table["predabs"]["calls"]),
                "ratio",
            ),
            "reach.states": (traced.abstract_states / n, "count/pass"),
            "circ.inner_iterations": (traced.inner_iterations / n, "count/pass"),
            "circ.refinements": (traced.refinements / n, "count/pass"),
            "engine.cache.hit_ratio": (ratio(traced.cache_hits, traced.cache_lookups), "ratio"),
            "static.pruned_ratio": (ratio(traced.static_rows, traced.rows), "ratio"),
            "shard.busy_ratio": (ratio(traced.computed_s, SHARD_WORKERS * shard_wall), "ratio"),
            "shard.steals": (traced.steals / n, "count/pass"),
            "shard.respawns": (traced.respawns / n, "count/pass"),
            "portfolio.racer_win_ratio": (ratio(traced.racer_wins, traced.portfolio_rows), "ratio"),
            "trace.coverage": (
                ratio(sum(r["self_s"] for r in table.values()), sum(traced.pass_elapsed)),
                "ratio",
            ),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
    )
    return metrics


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        print(json.dumps(measure(json.load(fh))))
