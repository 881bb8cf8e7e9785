"""The serve daemon's job manager: dedup, budgets, worker scheduling.

A *job* is one deduplicated verification task -- the unit the engine's
planner already produces, keyed by ``(slice digest, options
fingerprint)``.  The manager extends the planner's within-request dedup
across the whole daemon:

* a job identical to one **in flight** attaches the new request as a
  subscriber: the engine runs once per digest, and every subscriber
  receives the job's event stream and an identical report-v1 row;
* a job identical to one **recently completed** is answered from the
  bounded in-memory verdict map without touching the worker pool
  (UNKNOWN verdicts are never held there -- a repeat query should
  retry, mirroring the artifact cache's contract);
* otherwise the job is scheduled on the worker pool, throttled by its
  submitting client's ``max_jobs`` budget, and run as a one-job batch
  through :func:`repro.engine.scheduler.execute` -- the same cache
  lookup, warm start, events and row attribution as ``batch`` -- with
  the daemon's hot CFA + ArgStore riding on the job, so verdicts match
  the CLI exactly while later variables of a program reuse its
  exploration.

Per-client budgets: ``max_jobs`` caps a client's concurrently *running*
jobs (excess jobs wait in a FIFO the completion path drains);
``solver_quota_s`` is a cumulative solver-time allowance -- every
completed job charges its wall time to each subscribed client, and once
a client is over quota its further non-cached jobs return the typed
UNKNOWN verdict (source ``budget``) that maps to exit code 4, exactly
like an engine budget exhaustion.

Threading model: all manager state is mutated on the asyncio event-loop
thread; worker threads only execute jobs against the (internally
locked) hot state and re-enter the loop via ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..engine.events import EventLog
from ..engine.planner import Job, JobResult
from ..engine.scheduler import execute
from ..races.report import REPORT_SCHEMA, ReportRow
from ..smt.qcache import LruCache
from .protocol import ErrorCode, error_frame, exit_code_for
from .state import HotState

__all__ = ["ClientBudget", "JobManager", "RequestTracker", "ServeJob"]

#: Bound on the in-memory completed-verdict map.
COMPLETED_MAX = 4_096


@dataclass
class ClientBudget:
    """One client's allowances and live accounting."""

    max_jobs: int = 4
    solver_quota_s: float | None = None
    used_solver_s: float = 0.0
    running: int = 0
    waiting: deque = field(default_factory=deque)

    def exhausted(self) -> bool:
        return (
            self.solver_quota_s is not None
            and self.used_solver_s >= self.solver_quota_s
        )

    def charge(self, seconds: float) -> None:
        self.used_solver_s += seconds

    def to_obj(self) -> dict:
        return {
            "max_jobs": self.max_jobs,
            "solver_quota_s": self.solver_quota_s,
            "used_solver_s": round(self.used_solver_s, 6),
            "running": self.running,
            "waiting": len(self.waiting),
        }


class RequestTracker:
    """Aggregates one submit request's rows into its result frame."""

    def __init__(
        self,
        request_id: str,
        send: Callable[[dict], None],
        order: list[tuple[str, str]],
        stream: bool = True,
        counts: dict | None = None,
        on_done: Callable[["RequestTracker"], None] | None = None,
        budget: "ClientBudget | None" = None,
    ):
        self.request_id = request_id
        self.send = send
        self.order = order
        self.stream = stream
        self.counts = counts or {}
        self.on_done = on_done
        #: The submitting client's budget; dedup charging reads it.
        self.budget = budget
        self.rows: dict[tuple[str, str], dict] = {}
        self.pending: set[tuple[str, str]] = set(order)
        self.failed = False
        self.done = False
        self._t0 = time.perf_counter()

    def add_row(self, query: tuple[str, str], row: dict) -> None:
        if self.failed or self.done:
            return
        self.rows[query] = row
        self.pending.discard(query)
        if not self.pending:
            self._finish()

    def maybe_finish(self) -> None:
        """Finish now if nothing is pending (all-static or empty plans
        never get a job completion to trigger the result frame)."""
        if not self.pending and not (self.failed or self.done):
            self._finish()

    def send_event(self, job_digest: str, event: dict) -> None:
        if self.stream and not (self.failed or self.done):
            self.send(
                {
                    "frame": "event",
                    "id": self.request_id,
                    "job": job_digest[:12],
                    "event": event,
                }
            )

    def fail(self, code: str, message: str) -> None:
        """Terminal error for the whole request (e.g. drain RETRYABLE)."""
        if self.failed or self.done:
            return
        self.failed = True
        self.send(error_frame(code, message, self.request_id))
        if self.on_done is not None:
            self.on_done(self)

    def _finish(self) -> None:
        self.done = True
        rows = [self.rows[q] for q in self.order]
        summary = {
            "queries": len(rows),
            "races": sum(1 for r in rows if r["verdict"] == "race"),
            "unknown": sum(
                1 for r in rows if r["verdict"] == "unknown"
            ),
            "wall_ms": round(
                (time.perf_counter() - self._t0) * 1000.0, 3
            ),
            **self.counts,
        }
        self.send(
            {
                "frame": "result",
                "id": self.request_id,
                "schema": REPORT_SCHEMA,
                "rows": rows,
                "summary": summary,
                "exit_code": exit_code_for(rows),
            }
        )
        if self.on_done is not None:
            self.on_done(self)


@dataclass
class ServeJob:
    """One deduplicated in-flight verification task."""

    key: tuple[str, str]  # (slice digest, options fingerprint)
    job: Job  # the planner's job (source, thread, variable, shape)
    owner: ClientBudget  # whose max_jobs slot the job occupies
    #: (tracker, model, variable) triples to fan the result out to.
    subscribers: list[tuple[RequestTracker, str, str]] = field(
        default_factory=list
    )
    state: str = "held"  # held -> queued -> running -> done
    future: Any = None

    @property
    def digest(self) -> str:
        return self.key[0]


class JobManager:
    """Digest-keyed dedup and budgeted scheduling over a worker pool."""

    def __init__(
        self,
        hot: HotState,
        executor,
        loop: asyncio.AbstractEventLoop,
        events: EventLog | None = None,
        completed_max: int = COMPLETED_MAX,
    ):
        self.hot = hot
        self.executor = executor
        self.loop = loop
        self.events = events or hot.events
        self.jobs: dict[tuple[str, str], ServeJob] = {}
        self.completed = LruCache(completed_max)
        self.draining = False
        self.counters = {
            "jobs_run": 0,
            "dedup_inflight": 0,
            "dedup_completed": 0,
            "quota_unknowns": 0,
            "retryable": 0,
        }

    # -- submission (event-loop thread) --------------------------------------

    def submit_planned_job(
        self,
        job: Job,
        tracker: RequestTracker,
        budget: ClientBudget,
    ) -> str:
        """Route one planner job; returns its disposition
        (``new`` | ``dedup`` | ``completed`` | ``quota``)."""
        key = (job.digest, job.options_fp)

        answer = self.completed.get(key)
        if answer is not None:
            self.counters["dedup_completed"] += len(job.aliases)
            for model, variable in job.aliases:
                tracker.add_row(
                    (model, variable),
                    _row(model, variable, answer, source="cache"),
                )
            return "completed"

        live = self.jobs.get(key)
        if live is not None:
            self.counters["dedup_inflight"] += len(job.aliases)
            self.events.emit(
                "serve_job_deduped",
                digest=job.digest[:12],
                subscribers=len(live.subscribers) + len(job.aliases),
            )
            for model, variable in job.aliases:
                live.subscribers.append((tracker, model, variable))
            return "dedup"

        if budget.exhausted():
            self.counters["quota_unknowns"] += len(job.aliases)
            detail = (
                "solver-time quota exhausted "
                f"({budget.used_solver_s:.3f}s of "
                f"{budget.solver_quota_s:.3f}s used)"
            )
            self.events.emit(
                "serve_quota_exhausted",
                digest=job.digest[:12],
                used_s=round(budget.used_solver_s, 6),
                quota_s=budget.solver_quota_s,
            )
            for model, variable in job.aliases:
                tracker.add_row(
                    (model, variable),
                    ReportRow(
                        model=model,
                        variable=variable,
                        verdict="unknown",
                        source="budget",
                        time_ms=0.0,
                        detail=detail,
                    ).to_obj(),
                )
            return "quota"

        serve_job = ServeJob(key=key, job=job, owner=budget)
        serve_job.subscribers = [
            (tracker, model, variable)
            for model, variable in job.aliases
        ]
        self.jobs[key] = serve_job
        if budget.running < budget.max_jobs:
            self._start(serve_job)
        else:
            budget.waiting.append(serve_job)
        return "new"

    def _start(self, serve_job: ServeJob) -> None:
        serve_job.state = "queued"
        serve_job.owner.running += 1
        serve_job.future = self.executor.submit(
            self._execute, serve_job
        )
        # Reach the loop the way run_in_executor delivers a finished plan,
        # so the loop handles pool results in the order the pool finished
        # them: a request planned before this job finished attaches to it
        # in flight instead of finding its completed record.
        done = asyncio.wrap_future(serve_job.future, loop=self.loop)
        done.add_done_callback(lambda fut: self._job_done(serve_job, fut))

    # -- execution (worker thread) -------------------------------------------

    def _execute(self, serve_job: ServeJob) -> JobResult:
        job = serve_job.job
        serve_job.state = "running"
        ctx = self.hot.context_for(job.source, job.thread, job.cfa)
        job.cfa, job.store = ctx.cfa, ctx.store
        job_events = EventLog(
            listener=lambda ev: self.loop.call_soon_threadsafe(
                self._fan_event, serve_job, ev
            )
        )
        with ctx.lock:
            results = execute(
                [job], cache=self.hot.cache, events=job_events, workers=1
            )
        self.hot.enforce_ceiling()
        return results[job.aliases[0]]

    # -- completion (event-loop thread) --------------------------------------

    def _fan_event(self, serve_job: ServeJob, event: dict) -> None:
        for tracker, _model, _variable in serve_job.subscribers:
            tracker.send_event(serve_job.digest, event)

    def _job_done(self, serve_job: ServeJob, future) -> None:
        budget = serve_job.owner
        if serve_job.state != "held":
            budget.running -= 1
        serve_job.state = "done"
        self.jobs.pop(serve_job.key, None)
        self._kick(budget)

        if future.cancelled():
            self._fail_subscribers(serve_job)
            return
        exc = future.exception()
        if exc is not None:
            # A job's verifier errors become UNKNOWN rows inside the
            # scheduler; anything here is a manager bug -- surface it to
            # subscribers rather than hanging them.
            for tracker, _m, _v in _distinct_trackers(serve_job):
                tracker.fail(
                    ErrorCode.INTERNAL, f"job failed: {exc}"
                )
            return
        answer = future.result()

        for tracker_budget in _distinct_budgets(serve_job):
            tracker_budget.charge(answer.time_ms / 1000.0)

        if answer.verdict != "unknown":
            self.completed.put(serve_job.key, answer)
        self.counters["jobs_run"] += 1
        self.events.emit(
            "serve_job_finished",
            digest=serve_job.digest[:12],
            verdict=answer.verdict,
            elapsed_ms=round(answer.time_ms, 3),
            subscribers=len(serve_job.subscribers),
        )
        for tracker, model, variable in serve_job.subscribers:
            tracker.add_row((model, variable), _row(model, variable, answer))

    def _kick(self, budget: ClientBudget) -> None:
        if self.draining:
            return
        while budget.waiting and budget.running < budget.max_jobs:
            nxt = budget.waiting.popleft()
            if nxt.state == "held":
                self._start(nxt)

    # -- drain ----------------------------------------------------------------

    def _fail_subscribers(self, serve_job: ServeJob) -> None:
        self.counters["retryable"] += 1
        for tracker, _m, _v in _distinct_trackers(serve_job):
            tracker.fail(
                ErrorCode.RETRYABLE,
                "server draining; job was queued, not started -- "
                "resubmit to a live server",
            )

    def drain(self) -> list:
        """Stop starting work: queued jobs fail RETRYABLE, running jobs
        are left to finish.  Returns the futures still in flight."""
        self.draining = True
        in_flight = []
        for serve_job in list(self.jobs.values()):
            if serve_job.state == "held":
                serve_job.state = "done"  # _kick must never start it
                serve_job.owner.waiting = deque(
                    j for j in serve_job.owner.waiting if j is not serve_job
                )
                self.jobs.pop(serve_job.key, None)
                self._fail_subscribers(serve_job)
            elif serve_job.future is not None and serve_job.future.cancel():
                # Submitted to the pool but no worker picked it up yet:
                # _job_done's cancelled() branch sends the RETRYABLE.
                pass
            elif serve_job.future is not None:
                in_flight.append(serve_job.future)
        return in_flight

    def stats(self) -> dict:
        return {
            **self.counters,
            "in_flight": len(self.jobs),
            "completed_cached": len(self.completed),
        }


def _row(
    model: str, variable: str, answer: JobResult, source: str | None = None
) -> dict:
    """The report-v1 row of ``(model, variable)`` from a job's answer.

    ``source="cache"`` marks a completed-map hit, which took no time.
    """
    return ReportRow(
        model=model,
        variable=variable,
        verdict=answer.verdict,
        source=source or answer.source,
        time_ms=0.0 if source == "cache" else answer.time_ms,
        detail=answer.detail,
    ).to_obj()


def _distinct_trackers(serve_job: ServeJob):
    seen: set[int] = set()
    out = []
    for tracker, _m, _v in serve_job.subscribers:
        if id(tracker) not in seen:
            seen.add(id(tracker))
            out.append((tracker, _m, _v))
    return out


def _distinct_budgets(serve_job: ServeJob):
    """Every distinct client budget subscribed to a job.

    Each subscriber is charged the job's full solver time: without the
    daemon each would have paid it alone, so dedup never lets a client
    spend another client's quota.
    """
    seen: set[int] = set()
    out = [serve_job.owner]
    seen.add(id(serve_job.owner))
    for tracker, _m, _v in serve_job.subscribers:
        budget = getattr(tracker, "budget", None)
        if budget is not None and id(budget) not in seen:
            seen.add(id(budget))
            out.append(budget)
    return out
