"""Job planning: from batch items to a deduplicated verification worklist.

The planner is the first stage of the engine pipeline
(planner -> scheduler -> cache).  It lowers every batch item at most
once (the jobs it plans carry that CFA to in-process execution),
classifies its shared variables through the static pre-analysis
(:mod:`repro.static`), and

* discharges ``local`` / ``read-shared`` / ``protected`` variables
  immediately as static proofs -- no job is spawned for them;
* plans one :class:`Job` per remaining ``must-check`` query, keyed by
  the content digest of its relevant slice;
* deduplicates jobs with identical (digest, options) keys: queries
  whose slices for a variable are byte-identical are verified once and
  fanned out, not recomputed per query.

Given the batch's artifact cache, the planner reads each item through a
plan index (blob namespace ``plans/``) keyed by the item's source text,
thread, variable list, ``prefilter`` flag and a fingerprint of this
package's source: an item planned before by the same code skips
lowering, classification and digests.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..cfa.cfa import CFA
from ..circ.circ import circ
from ..circ.result import CircResult
from ..lang.lower import lower_source
from ..races.spec import racy_variables
from ..reach.store import ArgStore
from ..static.classify import VariableVerdict, Verdict, classify
from ..static.prefilter import StaticSafe
from .cache import ArtifactCache
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
    replaces it with its hot context's CFA.  A job planned from the plan
    index has none, and is lowered only if it runs.  ``store`` is a
    persistent :class:`~repro.reach.store.ArgStore` bound to that CFA
    (the daemon's hot context).  Neither ever leaves the process: a fleet
    worker gets ``source`` and ``thread`` and lowers them itself.
    ``options_fp`` is :func:`options_fingerprint` of ``options``: the
    planner passes the one it computed for the batch, and a job built
    without it computes its own.
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
    options_fp: str = ""

    def __post_init__(self) -> None:
        if not self.options_fp:
            self.options_fp = options_fingerprint(self.options)


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


#: The cache's blob namespace of the plan index.
PLAN_NAMESPACE = "plans"


def _verdict_of(result: CircResult) -> str:
    if result.unknown:
        return "unknown"
    return "safe" if result.safe else "race"


@dataclass(frozen=True)
class _Planned:
    """What planning found for one variable of a batch item: a static
    proof (``static`` is the prunable verdict) or a job key."""

    variable: str
    static: Verdict | None = None
    reason: str = ""
    digest: str = ""
    shape: str = ""

    def to_obj(self) -> dict:
        if self.static is not None:
            return {
                "variable": self.variable,
                "static": self.static.value,
                "reason": self.reason,
            }
        return {
            "variable": self.variable,
            "digest": self.digest,
            "shape": self.shape,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "_Planned":
        static = obj.get("static")
        return cls(
            variable=obj["variable"],
            static=None if static is None else Verdict(static),
            reason=obj.get("reason", ""),
            digest=obj.get("digest", ""),
            shape=obj.get("shape", ""),
        )


@functools.cache
def _code_fingerprint() -> str:
    """A SHA-256 of the ``repro`` package's own source, once per process:
    the plan index's entries hold only for the code that planned them."""
    root = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\n{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def _plan_key(item: BatchItem, prefilter: bool) -> str:
    """The plan-index key of one item: everything its plan depends on."""
    variables = None if item.variables is None else list(item.variables)
    blob = json.dumps(
        [_code_fingerprint(), item.source, item.thread, variables, prefilter]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _recall(cache: ArtifactCache, key: str) -> list[_Planned] | None:
    """The item's plan from the index; None on a miss or an entry this
    code cannot read (the item is planned afresh and the entry rewritten)."""
    data = cache.get_blob(PLAN_NAMESPACE, key)
    if data is None:
        return None
    try:
        return [_Planned.from_obj(obj) for obj in data]
    except (KeyError, TypeError, ValueError):
        return None


def _plan_item(item: BatchItem, prefilter: bool) -> tuple[CFA, list[_Planned]]:
    """Lower, classify and digest one item."""
    cfa = lower_source(item.source, item.thread)
    variables = list(
        item.variables
        if item.variables is not None
        else sorted(racy_variables(cfa))
    )
    for v in variables:
        if v not in cfa.globals:
            raise ValueError(f"{v!r} is not a global of model {item.model!r}")
    report = classify(cfa, variables) if prefilter else None
    planned = []
    for v in variables:
        vv = report.verdict(v) if report is not None else None
        if vv is not None and vv.prunable:
            planned.append(_Planned(v, static=vv.verdict, reason=vv.reason))
        else:
            planned.append(
                _Planned(v, digest=slice_digest(cfa, v), shape=shape_key(cfa, v))
            )
    return cfa, planned


def plan(
    items: Sequence[BatchItem],
    options: dict | None = None,
    events: EventLog | None = None,
    prefilter: bool = True,
    cache: ArtifactCache | None = None,
) -> Plan:
    """Lower, classify, digest, and deduplicate a batch of queries.

    With a ``cache``, each item's lowering, classification and digests
    are read through the cache's plan index: an item planned before, by
    the same code and with the same thread, variables and ``prefilter``,
    is planned from its entry without being lowered, and its jobs carry
    no CFA (jobs the verdict cache cannot answer lower their program when
    they run, once per program in-process).  The other items are planned
    afresh, and their entries are written once the whole batch has
    planned, so a plan that raises writes nothing.
    """
    options = dict(options or {})
    events = events or EventLog()
    jobs_by_key: dict[tuple[str, str], Job] = {}
    done: list[JobResult] = []
    order: list[tuple[str, str]] = []
    fresh: dict[str, list[_Planned]] = {}
    fp = options_fingerprint(options)

    for item in items:
        start = time.perf_counter()
        cfa: CFA | None = None
        key = planned = None
        if cache is not None:
            key = _plan_key(item, prefilter)
            planned = _recall(cache, key)
        if planned is None:
            cfa, planned = _plan_item(item, prefilter)
            if key is not None:
                fresh[key] = planned
        lower_ms = (time.perf_counter() - start) * 1000.0

        for p in planned:
            v = p.variable
            order.append((item.model, v))
            if p.static is not None:
                vstart = time.perf_counter()
                proof = StaticSafe.from_verdict(
                    VariableVerdict(v, p.static, p.reason),
                    time.perf_counter() - vstart,
                )
                done.append(
                    JobResult(
                        model=item.model,
                        variable=v,
                        verdict="safe",
                        source="static",
                        time_ms=(time.perf_counter() - vstart) * 1000.0,
                        detail=f"{p.static.value}: {p.reason}",
                        result=proof,
                    )
                )
                events.emit(
                    "job_planned",
                    model=item.model,
                    variable=v,
                    disposition="static",
                    verdict=p.static.value,
                )
                continue
            job = jobs_by_key.get((p.digest, fp))
            if job is None:
                job = Job(
                    job_id=len(jobs_by_key),
                    source=item.source,
                    thread=item.thread,
                    variable=v,
                    digest=p.digest,
                    shape=p.shape,
                    options=options,
                    cfa=cfa,
                    options_fp=fp,
                )
                jobs_by_key[(p.digest, fp)] = job
            job.aliases.append((item.model, v))
            events.emit(
                "job_planned",
                model=item.model,
                variable=v,
                disposition="job" if len(job.aliases) == 1 else "dedup",
                job_id=job.job_id,
                digest=p.digest[:12],
                lower_ms=round(lower_ms, 3),
            )

    for key, planned in fresh.items():
        cache.put_blob(PLAN_NAMESPACE, key, [p.to_obj() for p in planned])
    return Plan(jobs=list(jobs_by_key.values()), done=done, order=order)
