"""Job execution: cache, worker fleet, in-process fallback.

The scheduler takes the planner's deduplicated worklist and resolves
every job through a three-level strategy:

1. **cache** -- the artifact cache answers byte-identical slices
   immediately (and seeds predicates for near-matches via the shape
   index);
2. **worker fleet** -- with more than one worker, the remaining jobs
   run on worker processes (:mod:`repro.shard.worker`, through
   :func:`repro.shard.coordinator.execute_sharded`), with work
   stealing, bounded respawn and retry-as-fresh after a crash; each job
   runs CIRC under its iteration and wall-clock budgets, so a divergent
   refinement sequence degrades to a clean ``UNKNOWN`` instead of
   wedging a worker forever;
3. **in-process** -- with one worker, every job runs here; with a
   fleet, jobs that exhausted their retries or outlived every worker do,
   so a batch always completes with a full verdict table.  The serve
   daemon runs each of its jobs here too, as a one-job batch that
   carries the daemon's hot CFA and ArgStore.

Every path runs a job through the same :func:`_run_job_payload`, and
workers return JSON-ready artifact objects (see
:mod:`repro.engine.artifacts`) rather than pickled verifier internals:
transport stays robust to class-layout drift between engine versions.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Sequence

from ..cfa.cfa import CFA
from ..circ.circ import circ
from ..circ.result import CircResult, CircStats, CircUnknown
from ..lang.lower import lower_source
from .artifacts import result_from_obj, result_to_obj, term_from_obj, term_to_obj
from .cache import ArtifactCache
from .events import EventLog
from .planner import Job, JobResult, _verdict_of

__all__ = ["execute"]


def _run_job_payload(
    payload: dict,
    *,
    cfa=None,
    store=None,
    events: EventLog | None = None,
    books: dict,
) -> dict:
    """Execute one verification job (runs inside a worker process or
    in-process).  Pure function of its payload; returns a JSON-ready
    result record and never raises.

    ``cfa``, ``store`` and ``events`` are in-process hooks: ``cfa`` is
    the job's :attr:`~repro.engine.planner.Job.cfa`, so the payload's
    source is not lowered again, and it keeps a long-lived
    :attr:`~repro.engine.planner.Job.store` bound (an
    :class:`~repro.reach.store.ArgStore` resets when bound to a new CFA
    object); ``store`` is threaded into ``circ``, and ``events``
    receives a portfolio job's events.  Fleet workers pass none of them
    and lower the payload's source.  ``books`` holds the caller's
    :class:`~repro.portfolio.winrate.WinRateBook` per cache root: a
    portfolio job records its outcomes in its root's book, opened on
    first use, and the caller saves the books when its jobs are done.
    """
    start = time.perf_counter()
    variable = payload["variable"]
    extras: dict = {}
    try:
        if cfa is None:
            cfa = lower_source(payload["source"], payload["thread"])
        options = dict(payload["options"])
        seeds = tuple(
            term_from_obj(p) for p in payload.get("seed_predicates", ())
        )
        if seeds:
            existing = tuple(options.pop("initial_predicates", ()))
            options["initial_predicates"] = existing + seeds
        if options.pop("portfolio", False):
            result = _run_portfolio_job(
                cfa, variable, payload, options, extras, events, books
            )
        else:
            if store is not None:
                options.setdefault("store", store)
            result = circ(cfa, race_on=variable, **options)
    except Exception as exc:  # a verifier bug must not sink the batch
        result = CircUnknown(
            variable=variable,
            reason=f"internal error: {type(exc).__name__}: {exc}",
            predicates=(),
            stats=CircStats(),
        )
    # One timing record for every consumer: the verifier's own
    # CircStats.elapsed_seconds is authoritative (the CLI --stats table
    # reads the same field), and the scheduler's clock only fills in for
    # paths where circ never finalized its stats (lowering failures,
    # internal errors).
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if result.stats.elapsed_seconds > 0.0 and not extras:
        elapsed_ms = result.stats.elapsed_seconds * 1000.0
    record = {
        "job_id": payload["job_id"],
        "result": result_to_obj(result),
        "warm": bool(payload.get("seed_predicates")),
        "elapsed_ms": elapsed_ms,
    }
    record.update(extras)
    return record


def _run_portfolio_job(cfa, variable, payload, options, extras, events, books):
    """Resolve one job through the analysis portfolio.

    Every job opens the shared cache root's artifact cache itself (blob
    reads/writes are atomic and checksummed), so warm absint summaries
    carry from job to job, in-process and across workers alike.  The
    win-rate book comes from the caller's ``books``: one per batch
    in-process, one per fleet worker, so learned scheduling order
    carries from job to job in memory and reaches the cache root when
    the caller saves it.
    """
    # Imported here, not at module top: the portfolio package sits on
    # the engine's cache/events modules, so a top-level import would
    # close an import cycle through the engine package __init__.
    from ..portfolio.driver import PortfolioConflict, run_portfolio
    from ..portfolio.winrate import cache_book

    cache_root = payload.get("cache_root")
    cache = book = None
    if cache_root:
        cache = ArtifactCache(cache_root)
        if cache_root not in books:
            books[cache_root] = cache_book(cache_root)
        book = books[cache_root]
    try:
        report = run_portfolio(
            cfa, variable, cache=cache, winrates=book, events=events, **options
        )
    except PortfolioConflict as exc:
        # A confident disagreement between analyses is evidence of an
        # unsoundness bug.  It must not sink the batch, but it must stay
        # loudly visible: the verdict is UNKNOWN (never either party's
        # claim) and the reason names the conflict for the event log.
        extras["conflict"] = exc.detail
        return CircUnknown(
            variable=variable,
            reason=f"PORTFOLIO CONFLICT: {exc.detail}",
            predicates=(),
            stats=CircStats(),
        )
    extras["portfolio_winner"] = report.winner
    extras["portfolio_cancelled"] = list(report.cancelled)
    extras["portfolio_ms"] = {
        o.analysis: round(o.time_ms, 3) for o in report.outcomes
    }
    return report.to_circ_result()


def _job_payload(job: Job, seeds: tuple, cache_root: str | None = None) -> dict:
    payload = {
        "job_id": job.job_id,
        "source": job.source,
        "thread": job.thread,
        "variable": job.variable,
        "options": dict(job.options),
        "seed_predicates": [term_to_obj(p) for p in seeds],
    }
    if cache_root is not None and job.options.get("portfolio"):
        payload["cache_root"] = cache_root
    return payload


def _fan_out(
    job: Job,
    result: CircResult,
    time_ms: float,
    source: str,
    results: dict[tuple[str, str], JobResult],
) -> None:
    """Translate one job's result into a JobResult per (model, variable)."""
    for model, variable in job.aliases:
        results[(model, variable)] = JobResult(
            model=model,
            variable=variable,
            verdict=_verdict_of(result),
            source=source,
            time_ms=time_ms,
            detail=getattr(result, "reason", ""),
            result=result,
            digest=job.digest,
        )


def _finish(
    job: Job,
    record: dict,
    events: EventLog,
    cache: ArtifactCache | None,
    results: dict[tuple[str, str], JobResult],
) -> None:
    """Cache, log, and fan out one computed job record."""
    result = result_from_obj(record["result"])
    if "portfolio_winner" in record:
        winner = record["portfolio_winner"] or "none"
        source = f"portfolio:{winner}"
    else:
        source = "circ-warm" if record.get("warm") else "circ"
    if cache is not None:
        cache.put(job.digest, result, job.options_fp, shape=job.shape)
    reuse = result.stats.reuse or {}
    events.emit(
        "job_finished",
        job_id=job.job_id,
        verdict=_verdict_of(result),
        warm=bool(record.get("warm")),
        elapsed_ms=round(record["elapsed_ms"], 3),
        iterations=result.stats.inner_iterations,
        reuse_hits=sum(
            v for k, v in reuse.items() if k.endswith("_hits")
        ),
        store_digest=result.stats.store_digest or "",
        **{
            k: record[k]
            for k in (
                "portfolio_winner",
                "portfolio_cancelled",
                "portfolio_ms",
                "conflict",
            )
            if k in record
        },
    )
    _fan_out(job, result, record["elapsed_ms"], source, results)


def _warm_seeds(job: Job, cache: ArtifactCache | None, events: EventLog) -> tuple:
    """Warm-start predicates for ``job`` from the cache's shape index."""
    if cache is None:
        return ()
    seeds = cache.seed_predicates(job.shape, job.options_fp)
    if seeds:
        events.emit("warm_start", job_id=job.job_id, n_predicates=len(seeds))
    return seeds


def _run_in_process(
    work: Iterable[tuple[Job, dict]],
    cache: ArtifactCache | None,
    events: EventLog,
    results: dict[tuple[str, str], JobResult],
) -> None:
    """Run (job, payload) pairs here, one after another.  In-process
    execution cannot lose a job.

    The portfolio jobs of a cache root share one win-rate book, so each
    job sees the outcomes of the jobs before it, and the book is saved
    once, after the last job.  Jobs planned from the plan index carry no
    CFA; the jobs of one program share its one lowering here.
    """
    books: dict = {}
    lowered: dict[tuple[str, str | None], CFA] = {}
    try:
        for job, payload in work:
            events.emit("job_started", job_id=job.job_id, mode="serial")
            cfa = job.cfa
            if cfa is None:
                key = (job.source, job.thread)
                if key not in lowered:
                    lowered[key] = lower_source(job.source, job.thread)
                cfa = lowered[key]
            record = _run_job_payload(
                payload, cfa=cfa, store=job.store, events=events, books=books
            )
            _finish(job, record, events, cache, results)
    finally:
        for book in books.values():
            book.save()


def execute(
    jobs: Sequence[Job],
    cache: ArtifactCache | None = None,
    events: EventLog | None = None,
    workers: int | None = None,
    shards: int | None = None,
    before_run: Callable[[], None] | None = None,
) -> dict[tuple[str, str], JobResult]:
    """Run a worklist to completion; returns results per (model, variable).

    ``workers=None`` picks ``os.cpu_count()``; either way the count is
    capped by the number of cache misses.  More than one worker runs the
    misses on the worker fleet, partitioned into ``shards`` digest
    buckets (default: two per worker, so stealing has work to move); one
    worker runs them in-process.  ``before_run`` is called once before
    the first job the cache cannot answer runs, and never when the cache
    answers every job.
    """
    events = events or EventLog()
    results: dict[tuple[str, str], JobResult] = {}
    pending: list[Job] = []
    for job in jobs:
        entry = cache.get(job.digest, job.options_fp) if cache is not None else None
        if entry is not None:
            events.emit(
                "cache_hit",
                job_id=job.job_id,
                digest=job.digest[:12],
                verdict=_verdict_of(entry.result),
            )
            _fan_out(job, entry.result, 0.0, "cache", results)
            continue
        events.emit("cache_miss", job_id=job.job_id, digest=job.digest[:12])
        pending.append(job)

    if not pending:
        return results
    if before_run is not None:
        before_run()

    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, len(pending)))
    if workers > 1:
        # Imported here: the coordinator builds on this module.
        from ..shard.coordinator import execute_sharded

        results.update(
            execute_sharded(
                pending,
                shards=shards if shards is not None else 2 * workers,
                workers=workers,
                cache=cache,
                events=events,
            )
        )
        return results

    # Every seed is computed before any job runs.
    cache_root = str(cache.root) if cache is not None else None
    work = [
        (
            job,
            _job_payload(job, _warm_seeds(job, cache, events), cache_root=cache_root),
        )
        for job in pending
    ]
    _run_in_process(work, cache, events, results)
    return results
