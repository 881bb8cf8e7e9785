"""The worker fleet: digest buckets, work-stealing, crash retry.

``execute_sharded`` is the scheduler's out-of-process stage: when
:func:`repro.engine.scheduler.execute` is asked for more than one
worker, it answers cache hits itself and hands the misses here.  The
output is the same as in-process execution -- a
:class:`~repro.engine.planner.JobResult` per (model, variable) query,
with the same artifact-cache discipline.  The topology:

1. jobs are partitioned by slice digest into ``shards`` buckets
   (:mod:`repro.shard.partition`), each bucket *homed* to worker
   ``bucket % workers``;
2. workers are real OS processes (``python -m repro.shard.worker``,
   or forks of a single-threaded caller) driven over NDJSON pipes with
   the serve daemon's framing -- the same frames would travel a TCP
   socket to a remote machine unchanged;
3. a worker whose home buckets drain **steals** from the tail of the
   most-loaded foreign bucket, so one straggler bucket cannot idle the
   rest of the fleet (``shard_steal`` telemetry records every theft);
4. a crashed worker's in-flight job **re-enters its bucket as if
   fresh** -- artifact writes are atomic, the shape index merges under
   a lock, and the SMT tier and the win-rate book only publish on
   clean shutdown, so a retry can never observe (or leave) a
   half-written artifact; a crashed worker's tier entries and win-rate
   counts are lost, never half-merged.  Jobs that exhaust their retry
   budget, and jobs left over when every worker is gone, run in-process
   through the scheduler's own loop: a fleet run always completes with
   a full verdict table.

Warm starts flow through the content-addressed layer, not through
process memory: the coordinator publishes each finished job's artifact
and shape predicates immediately, and computes warm-start seeds *at
dispatch time* (in-process execution seeds before any job has run), so
a job dispatched late warm-starts from predicates a different worker
discovered minutes earlier.
"""

from __future__ import annotations

import threading
from typing import Sequence

from ..engine.cache import ArtifactCache
from ..engine.events import EventLog
from ..engine.planner import Job, JobResult
from ..engine.scheduler import (
    _finish,
    _job_payload,
    _run_in_process,
    _warm_seeds,
)
from .partition import bucket_of

__all__ = ["execute_sharded"]

#: A job crashing this many workers is run serially by the coordinator.
MAX_JOB_RETRIES = 2

#: Worker slots are respawned after a crash at most this many times.
MAX_RESPAWNS = 3


class _Buckets:
    """The shared worklist: per-bucket deques with stealing.

    All mutation happens under one lock.  ``take(worker)`` prefers the
    worker's home buckets (front-of-queue, preserving planner order)
    and otherwise steals from the *tail* of the most-loaded foreign
    bucket -- the classic deque discipline: owners and thieves touch
    opposite ends, and the straggler keeps its earliest (likely
    in-progress-adjacent) work local.
    """

    def __init__(self, jobs: Sequence[Job], shards: int, workers: int):
        self.shards = shards
        self.workers = workers
        self.lock = threading.Lock()
        self.queues: list[list[Job]] = [[] for _ in range(shards)]
        for job in jobs:
            self.queues[bucket_of(job.digest, shards)].append(job)
        self.steals = 0

    def home_buckets(self, worker: int) -> list[int]:
        return [b for b in range(self.shards) if b % self.workers == worker]

    def take(self, worker: int) -> tuple[Job, int, bool] | None:
        """Next job for ``worker`` as (job, bucket, stolen); None when
        every bucket is empty."""
        with self.lock:
            for b in self.home_buckets(worker):
                if self.queues[b]:
                    return self.queues[b].pop(0), b, False
            victim = max(
                (b for b in range(self.shards) if self.queues[b]),
                key=lambda b: len(self.queues[b]),
                default=None,
            )
            if victim is None:
                return None
            self.steals += 1
            return self.queues[victim].pop(), victim, True

    def requeue(self, job: Job, bucket: int) -> None:
        """Re-enter a crashed worker's job at the front of its bucket."""
        with self.lock:
            self.queues[bucket].insert(0, job)

    def drain(self) -> list[Job]:
        with self.lock:
            leftover = [job for q in self.queues for job in q]
            for q in self.queues:
                q.clear()
            return leftover


def execute_sharded(
    jobs: Sequence[Job],
    shards: int,
    workers: int,
    cache: ArtifactCache | None = None,
    events: EventLog | None = None,
) -> dict[tuple[str, str], JobResult]:
    """Run cache-missed ``jobs`` on ``workers`` worker processes.

    See the module docstring for the topology.
    """
    # Imported here, not at module top: ``python -m repro.shard.worker``
    # imports this package first, and must not find the module loaded.
    from .worker import Worker

    events = events or EventLog()
    results: dict[tuple[str, str], JobResult] = {}
    results_lock = threading.Lock()
    buckets = _Buckets(jobs, shards, workers)
    events.emit(
        "shard_planned",
        shards=shards,
        workers=workers,
        jobs=len(jobs),
        buckets=[len(q) for q in buckets.queues],
    )

    retries: dict[int, int] = {}
    exhausted: list[Job] = []
    cache_root = str(cache.root) if cache is not None else None

    def build_payload(job: Job) -> dict:
        # Seeds are computed at dispatch time so this job warm-starts
        # from predicates published by jobs that finished *during* this
        # run -- on any worker, through the shared shape index.
        seeds = _warm_seeds(job, cache, events)
        return _job_payload(job, seeds, cache_root=cache_root)

    def start(slot: Worker) -> bool:
        try:
            slot.spawn()
        except OSError as exc:
            events.emit("worker_failed", worker=slot.id, reason=str(exc))
            return False
        events.emit("worker_spawned", worker=slot.id, spawns=slot.spawns)
        return True

    def run_worker(slot: Worker) -> None:
        while True:
            item = buckets.take(slot.id)
            if item is None:
                return
            job, bucket, stolen = item
            if stolen:
                events.emit(
                    "shard_steal",
                    shard=bucket,
                    job_id=job.job_id,
                    thief=slot.id,
                    victim=bucket % workers,
                )
            if not slot.alive() and (
                slot.spawns > MAX_RESPAWNS or not start(slot)
            ):
                buckets.requeue(job, bucket)
                return
            events.emit(
                "job_started",
                job_id=job.job_id,
                mode="shard",
                shard=bucket,
                worker=slot.id,
            )
            try:
                slot.send({"op": "job", "payload": build_payload(job)})
                frame = slot.recv()
            except (OSError, ValueError):
                frame = None
            if frame is None or frame.get("frame") != "result":
                # The worker died mid-job (or spoke garbage, which we
                # treat identically).  The job re-enters its bucket as
                # if fresh; nothing half-written is visible because
                # every store publishes atomically.
                slot.kill()
                retries[job.job_id] = retries.get(job.job_id, 0) + 1
                events.emit(
                    "worker_crashed",
                    worker=slot.id,
                    job_id=job.job_id,
                    shard=bucket,
                )
                if retries[job.job_id] <= MAX_JOB_RETRIES:
                    events.emit(
                        "job_retry",
                        job_id=job.job_id,
                        shard=bucket,
                        attempt=retries[job.job_id] + 1,
                    )
                    buckets.requeue(job, bucket)
                else:
                    # Out of worker attempts: park the job for the
                    # in-process pass (it is in no bucket, so drain()
                    # alone would lose it).
                    with results_lock:
                        exhausted.append(job)
                continue
            with results_lock:
                _finish(job, frame["record"], events, cache, results)

    slots = [Worker(i, cache_root) for i in range(workers)]
    # Started before the slot threads, so that a single-threaded caller
    # forks them (see Worker.spawn).  A slot whose worker fails to start
    # gets no thread; the others steal its buckets.
    threads = [
        threading.Thread(
            target=run_worker, args=(slot,), name=f"shard-worker-{slot.id}"
        )
        for slot in slots
        if start(slot)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for slot in slots:
        slot.shutdown()

    # Jobs that exhausted their retries or outlived every worker slot.
    _run_in_process(
        (
            (job, _job_payload(job, (), cache_root=cache_root))
            for job in buckets.drain() + exhausted
        ),
        cache,
        events,
        results,
    )
    events.emit(
        "shard_summary",
        shards=shards,
        workers=workers,
        steals=buckets.steals,
        retries=sum(retries.values()),
        respawns=sum(max(0, s.spawns - 1) for s in slots),
    )
    return results
