"""The batch verification engine: planner -> scheduler -> cache.

``run_batch`` is the bulk entry point (the ``repro-race batch``
subcommand and ``bench_engine.py`` sit on it); ``verify_one`` runs a
single query of an already-lowered program as a one-job batch, the
cached counterpart of ``check_race`` that the fuzzer's engine paths
use.

A batch run:

1. plans a job per must-check variable, discharging variables the
   static lattice proves safe without spawning any work;
2. answers byte-identical slices from the content-addressed cache and
   warm-starts near-matches from the shape index;
3. loads the persistent SMT tier, if some job remains, and runs the
   remaining jobs on the worker fleet with budgets and crash recovery,
   or in-process with one worker;
4. emits JSONL telemetry throughout and returns a :class:`BatchReport`
   whose rows are ordered exactly like the input queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..cfa.cfa import CFA
from ..circ.result import CircResult
from ..smt.profile import PROFILER
from ..smt.qcache import SAT_CACHE
from .cache import ArtifactCache
from .digest import shape_key, slice_digest
from .events import EventLog
from .planner import BatchItem, Job, JobResult, plan
from .scheduler import execute

__all__ = ["BatchReport", "run_batch", "verify_one"]


@dataclass
class BatchReport:
    """The outcome of one engine run."""

    rows: list[JobResult] = field(default_factory=list)
    wall_ms: float = 0.0
    n_jobs: int = 0
    n_static: int = 0
    n_deduped: int = 0
    cache_stats: dict = field(default_factory=dict)

    @property
    def races(self) -> list[JobResult]:
        return [r for r in self.rows if r.verdict == "race"]

    @property
    def unknown(self) -> list[JobResult]:
        return [r for r in self.rows if r.verdict == "unknown"]

    @property
    def hit_rate(self) -> float:
        """Fraction of planned jobs answered by the cache."""
        hits = self.cache_stats.get("hits", 0)
        misses = self.cache_stats.get("misses", 0)
        total = hits + misses
        return hits / total if total else 0.0


def run_batch(
    items: Sequence[BatchItem],
    cache_dir: str | None = None,
    workers: int | None = None,
    events: EventLog | str | None = None,
    prefilter: bool = True,
    shards: int | None = None,
    shard_id: int | None = None,
    shard_workers: int | None = None,
    **circ_options,
) -> BatchReport:
    """Verify every (model, variable) query of ``items``.

    ``cache_dir=None`` disables persistence (every job computes, and
    every item is lowered and classified); with a cache, the planner
    reads each item through the cache's plan index.  ``events`` may be
    an :class:`EventLog` or a path for JSONL output, which this call
    opens and closes.
    Keyword options are forwarded to :func:`repro.circ.circ` and are
    part of the cache key.  The cache's persistent SMT tier is loaded
    just before the first job the cache cannot answer, and saved after
    the batch only if it was loaded: a batch answered entirely by the
    cache and static proofs neither reads nor writes it.

    ``workers`` is the number of worker processes (``None``: one per
    CPU; either way capped by the jobs the cache cannot answer).  More
    than one runs the jobs on the work-stealing worker fleet (see
    :mod:`repro.shard`), partitioned into ``shards`` digest buckets
    (default: two per worker, so stealing has work to move); one runs
    them in-process.  ``shard_workers`` is the same setting under its
    older name.

    ``shards`` + ``shard_id`` is *dry-run* mode: plan everything, but run
    only the jobs whose digest falls in bucket ``shard_id`` of a
    ``shards``-way partition.  Static discharges are reported by every
    shard (planning is cheap; the merge dedups them).  The report's rows
    cover only this shard's queries; merge the N shard payloads with
    ``repro-race merge-reports``.
    """
    start = time.perf_counter()
    # A log this call opens is closed however the batch ends.
    owned = EventLog(events) if isinstance(events, str) else None
    events = owned or events or EventLog()
    try:
        cache = ArtifactCache(cache_dir) if cache_dir is not None else None

        if shard_id is not None and shards is None:
            raise ValueError("shard_id requires shards")
        if shard_workers is not None:
            if workers is not None and workers != shard_workers:
                raise ValueError(
                    f"workers={workers} and shard_workers={shard_workers} "
                    "name the same setting"
                )
            workers = shard_workers

        events.emit("batch_started", items=len(items))
        tier_loaded = False

        def load_tier() -> None:
            nonlocal tier_loaded
            tier_loaded = True
            warmed = SAT_CACHE.load(cache)
            if warmed:
                events.emit("smt_warm_start", entries=warmed)

        the_plan = plan(
            items,
            options=circ_options,
            events=events,
            prefilter=prefilter,
            cache=cache,
        )

        jobs = the_plan.jobs
        if shard_id is not None:
            from ..shard.partition import filter_shard

            jobs, foreign = filter_shard(jobs, shards, shard_id)
            events.emit(
                "shard_filtered",
                shards=shards,
                shard_id=shard_id,
                owned=len(jobs),
                foreign=len(foreign),
            )
        results = execute(
            jobs,
            cache=cache,
            events=events,
            workers=workers,
            # A dry-run shard owns one bucket of its partition, so the fleet
            # buckets its jobs afresh.
            shards=shards if shard_id is None else None,
            before_run=load_tier if cache is not None else None,
        )

        by_query = {(r.model, r.variable): r for r in the_plan.done}
        by_query.update(results)
        rows = [by_query[key] for key in the_plan.order if key in by_query]

        n_deduped = sum(len(j.aliases) - 1 for j in jobs)
        report = BatchReport(
            rows=rows,
            wall_ms=(time.perf_counter() - start) * 1000.0,
            n_jobs=len(jobs),
            n_static=len(the_plan.done),
            n_deduped=n_deduped,
            cache_stats=cache.stats() if cache is not None else {},
        )
        if tier_loaded:
            saved = SAT_CACHE.save(cache)
            if saved:
                events.emit("smt_tier_saved", entries=saved)
        events.emit(
            "smt_stats",
            **{f"qcache_{k}": v for k, v in SAT_CACHE.stats().items()},
            **{f"smt_{k}": v for k, v in PROFILER.totals().items()},
        )
        events.emit(
            "batch_summary",
            rows=len(report.rows),
            jobs=report.n_jobs,
            static=report.n_static,
            deduped=report.n_deduped,
            races=len(report.races),
            unknown=len(report.unknown),
            wall_ms=round(report.wall_ms, 3),
            **{f"cache_{k}": v for k, v in report.cache_stats.items()},
        )
        return report
    finally:
        if owned is not None:
            owned.close()


def verify_one(
    cfa: CFA,
    variable: str,
    cache_dir: str | None = None,
    events: EventLog | None = None,
    **circ_options,
) -> CircResult:
    """Verify one query of an already-lowered program as a one-job batch.

    The job runs in-process through the same cache lookup, warm-start
    seeding, portfolio dispatch and cache publish as every
    :func:`run_batch` job, so the result is the cached artifact's
    round-trip: a give-up is a :class:`~repro.circ.result.CircUnknown`,
    and iteration history is not kept.
    """
    cfa.require_global(variable)
    job = Job(
        job_id=0,
        source=None,
        thread=None,
        variable=variable,
        digest=slice_digest(cfa, variable),
        shape=shape_key(cfa, variable),
        options=circ_options,
        aliases=[("", variable)],
        cfa=cfa,
    )
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    results = execute([job], cache=cache, events=events, workers=1)
    return results[("", variable)].result
