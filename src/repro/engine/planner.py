"""Job planning: from batch items to a deduplicated verification worklist.

The planner is the first stage of the engine pipeline
(planner -> scheduler -> cache).  It lowers every batch item once (the
jobs it plans carry that CFA to in-process execution), classifies its
shared variables through the static pre-analysis (:mod:`repro.static`),
and

* discharges ``local`` / ``read-shared`` / ``protected`` variables
  immediately as static proofs -- no job is spawned for them;
* plans one :class:`Job` per remaining ``must-check`` query, keyed by
  the content digest of its relevant slice;
* deduplicates jobs with identical (digest, options) keys: queries
  whose slices for a variable are byte-identical are verified once and
  fanned out, not recomputed per query.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..cfa.cfa import CFA
from ..circ.circ import circ
from ..circ.result import CircResult
from ..lang.lower import lower_source
from ..races.spec import racy_variables
from ..reach.store import ArgStore
from .digest import shape_key, slice_digest
from .events import EventLog

__all__ = ["BatchItem", "Job", "JobResult", "Plan", "options_fingerprint", "plan"]


@dataclass(frozen=True)
class BatchItem:
    """One program in a batch request."""

    model: str
    source: str
    thread: str | None = None
    #: None means "every written global".
    variables: tuple[str, ...] | None = None


@dataclass
class Job:
    """One deduplicated verification task.

    ``aliases`` lists every (model, variable) query this job answers;
    the first alias is the canonical one.  ``cfa`` is the lowered
    ``source``: :func:`plan` sets it to the CFA it planned the job from,
    so a job run in-process is never lowered again, and the serve daemon
    replaces it with its hot context's CFA.  ``store`` is a persistent
    :class:`~repro.reach.store.ArgStore` bound to that CFA (the daemon's
    hot context).  Neither ever leaves the process: a fleet worker gets
    ``source`` and ``thread`` and lowers them itself.
    """

    job_id: int
    source: str | None
    thread: str | None
    variable: str
    digest: str
    shape: str
    options: dict
    aliases: list[tuple[str, str]] = field(default_factory=list)
    cfa: CFA | None = None
    store: ArgStore | None = None


@dataclass
class JobResult:
    """The engine's answer to one (model, variable) query."""

    model: str
    variable: str
    verdict: str  # 'safe' | 'race' | 'unknown'
    source: str  # 'static' | 'cache' | 'circ' | 'circ-warm'
    time_ms: float
    detail: str = ""
    result: CircResult | None = None
    digest: str = ""


@dataclass
class Plan:
    """Planner output: immediate results plus the remaining worklist."""

    jobs: list[Job]
    done: list[JobResult]
    #: (model, variable) pairs per item, in report order.
    order: list[tuple[str, str]]


#: Options that change verdicts or artifacts and therefore key the cache.
_SALIENT_OPTIONS = (
    "variant",
    "k",
    "strategy",
    "abstraction",
    "max_outer",
    "max_inner",
    "max_states",
    "max_iterations",
    "timeout_s",
    # Portfolio runs may resolve a query with a baseline analysis, so
    # their artifacts must never serve a CIRC-only lookup (or vice
    # versa): the flag keys the cache like any verdict-relevant option.
    "portfolio",
)


#: :func:`~repro.circ.circ`'s defaults for the salient options it takes.
_SALIENT_DEFAULTS = {
    name: param.default
    for name, param in inspect.signature(circ).parameters.items()
    if name in _SALIENT_OPTIONS
}


def options_fingerprint(options: dict) -> str:
    """A stable fingerprint of the verdict-relevant verifier options.

    An option the caller left out counts as :func:`~repro.circ.circ`'s
    default, so omitting an option and passing its default key alike.
    """
    options = {**_SALIENT_DEFAULTS, **options}
    salient = {
        key: options[key]
        for key in _SALIENT_OPTIONS
        if key in options and options[key] is not None
    }
    blob = json.dumps(salient, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _verdict_of(result: CircResult) -> str:
    if result.unknown:
        return "unknown"
    return "safe" if result.safe else "race"


def plan(
    items: Sequence[BatchItem],
    options: dict | None = None,
    events: EventLog | None = None,
    prefilter: bool = True,
) -> Plan:
    """Lower, classify, digest, and deduplicate a batch of queries."""
    from ..static.classify import classify
    from ..static.prefilter import StaticSafe

    options = dict(options or {})
    events = events or EventLog()
    jobs_by_key: dict[tuple[str, str], Job] = {}
    done: list[JobResult] = []
    order: list[tuple[str, str]] = []
    fp = options_fingerprint(options)

    for item in items:
        start = time.perf_counter()
        cfa: CFA = lower_source(item.source, item.thread)
        variables: Iterable[str] = (
            item.variables
            if item.variables is not None
            else sorted(racy_variables(cfa))
        )
        variables = list(variables)
        for v in variables:
            if v not in cfa.globals:
                raise ValueError(
                    f"{v!r} is not a global of model {item.model!r}"
                )
        report = classify(cfa, variables) if prefilter else None
        lower_ms = (time.perf_counter() - start) * 1000.0

        for v in variables:
            order.append((item.model, v))
            vstart = time.perf_counter()
            if report is not None:
                vv = report.verdict(v)
                if vv.prunable:
                    proof = StaticSafe.from_verdict(
                        vv, time.perf_counter() - vstart
                    )
                    done.append(
                        JobResult(
                            model=item.model,
                            variable=v,
                            verdict="safe",
                            source="static",
                            time_ms=(time.perf_counter() - vstart)
                            * 1000.0,
                            detail=f"{vv.verdict.value}: {vv.reason}",
                            result=proof,
                        )
                    )
                    events.emit(
                        "job_planned",
                        model=item.model,
                        variable=v,
                        disposition="static",
                        verdict=vv.verdict.value,
                    )
                    continue
            digest = slice_digest(cfa, v)
            shape = shape_key(cfa, v)
            key = (digest, fp)
            job = jobs_by_key.get(key)
            if job is None:
                job = Job(
                    job_id=len(jobs_by_key),
                    source=item.source,
                    thread=item.thread,
                    variable=v,
                    digest=digest,
                    shape=shape,
                    options=options,
                    cfa=cfa,
                )
                jobs_by_key[key] = job
            job.aliases.append((item.model, v))
            events.emit(
                "job_planned",
                model=item.model,
                variable=v,
                disposition="job" if len(job.aliases) == 1 else "dedup",
                job_id=job.job_id,
                digest=digest[:12],
                lower_ms=round(lower_ms, 3),
            )

    return Plan(jobs=list(jobs_by_key.values()), done=done, order=order)
