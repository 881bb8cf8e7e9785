"""Digest-keyed abstract interpretation over the CFA: intervals + locks.

A thread-modular interval analysis in the style of the digest-driven
abstract interpretation line of work: each location gets an interval
environment for the variables in scope, computed as a two-level fixpoint.

* The **inner** fixpoint is a standard intra-thread worklist analysis:
  assignments evaluate their right-hand side in interval arithmetic,
  assumes refine the environment from comparison atoms (and prune the
  branch outright when the guard is definitely false), and per-location
  widening after a few joins guarantees termination on unbounded
  counters.
* The **outer** fixpoint accounts for *interference*: every reachable
  write to a global contributes its abstract value to a global
  interference summary, which is re-joined into the environment at every
  non-atomic location (while a thread occupies an atomic location no
  other thread is scheduled, so atomic regions are interference-free --
  the same scheduling rule that powers the MHP atomic kill).  The
  summary is widened between rounds, so the outer loop terminates too.

The **lock domain** rides along unchanged from the phase-1 facts of
:class:`repro.static.mhp.MhpReport`: per-location must-held monitors
(including the atomic pseudo-lock) refute pairs exactly as in MHP.

The verdict is deliberately one-sided: ``safe`` when every conflicting
access pair is refuted -- by *semantic* unreachability (interval-bottom
locations the graph-level MHP cannot see) or by the lock domain -- and
``unknown`` otherwise.  The abstraction over-approximates reachability,
so ``safe`` is sound for every thread count; the analysis never claims a
race, because an abstract race state proves nothing concrete.

Results are keyed by the slice digest of :mod:`repro.engine.digest` and
stored as blobs in the artifact cache: a warm run answers from disk
without touching the fixpoint, and the digest guarantees the cached
summary was computed on a byte-identical relevant slice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping, Optional

from ..cfa.cfa import CFA, AssignOp, AssumeOp
from ..engine.cache import ArtifactCache
from ..engine.digest import slice_digest
from ..engine.events import EventLog
from ..smt import terms as T
from ..static.mhp import MhpReport, mhp_analysis

__all__ = ["Interval", "AbsintReport", "absint_check", "ABSINT_SCHEMA"]

#: Bump when the summary format or the transfer functions change; keyed
#: into every cache blob so stale summaries can never be replayed.
ABSINT_SCHEMA = "absint-v1"

#: Widen a location after this many joins changed its environment.
_WIDEN_AFTER = 4
#: Outer interference rounds before widening the summary, and the hard
#: round cap after which the summary is forced to top (always sound).
_OUTER_WIDEN_AFTER = 3
_OUTER_MAX_ROUNDS = 8


@dataclass(frozen=True)
class Interval:
    """A (possibly unbounded) integer interval; ``None`` means infinity."""

    lo: int | None
    hi: int | None

    def __contains__(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Classic interval widening: drop any bound the newer value moved."""
        lo = self.lo
        if lo is not None and (newer.lo is None or newer.lo < lo):
            lo = None
        hi = self.hi
        if hi is not None and (newer.hi is None or newer.hi > hi):
            hi = None
        return Interval(lo, hi)

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)

#: An abstract environment: variable -> interval.  ``None`` stands for
#: bottom (the location is semantically unreachable).
Env = dict[str, Interval]


def _point(value: int) -> Interval:
    return Interval(value, value)


def _env_join(a: Env, b: Env) -> Env:
    out = {}
    for var in set(a) | set(b):
        out[var] = a.get(var, TOP).join(b.get(var, TOP))
    return out


def _eval(term: T.Term, env: Env) -> Interval:
    """Interval evaluation; anything unrecognized is soundly TOP."""
    if isinstance(term, T.IntConst):
        return _point(term.value)
    if isinstance(term, T.Var):
        return env.get(term.name, TOP)
    if isinstance(term, T.Neg):
        a = _eval(term.arg, env)
        hi = None if a.lo is None else -a.lo
        lo = None if a.hi is None else -a.hi
        return Interval(lo, hi)
    if isinstance(term, T.Add):
        lo, hi = 0, 0
        for arg in term.args:
            a = _eval(arg, env)
            lo = None if lo is None or a.lo is None else lo + a.lo
            hi = None if hi is None or a.hi is None else hi + a.hi
        return Interval(lo, hi)
    if isinstance(term, T.Sub):
        a = _eval(term.lhs, env)
        b = _eval(term.rhs, env)
        lo = None if a.lo is None or b.hi is None else a.lo - b.hi
        hi = None if a.hi is None or b.lo is None else a.hi - b.lo
        return Interval(lo, hi)
    if isinstance(term, T.Mul):
        a = _eval(term.lhs, env)
        b = _eval(term.rhs, env)
        if None in (a.lo, a.hi, b.lo, b.hi):
            return TOP
        products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return Interval(min(products), max(products))
    return TOP


def _definitely_false(pred: T.Term, env: Env) -> bool:
    """Can ``pred`` be refuted over the intervals?  (Sound one-sided.)"""
    if isinstance(pred, T.BoolConst):
        return not pred.value
    if isinstance(pred, T.And):
        return any(_definitely_false(a, env) for a in pred.args)
    if isinstance(pred, T.Or):
        return all(_definitely_false(a, env) for a in pred.args)
    if isinstance(pred, T.Not):
        return _definitely_true(pred.arg, env)
    if isinstance(pred, T.Cmp):
        a = _eval(pred.lhs, env)
        b = _eval(pred.rhs, env)
        if pred.op == "==":
            return _disjoint(a, b)
        if pred.op == "!=":
            return (
                a.lo is not None
                and a.lo == a.hi == b.lo == b.hi
            )
        if pred.op == "<":  # false iff a >= b always
            return a.lo is not None and b.hi is not None and a.lo >= b.hi
        if pred.op == "<=":
            return a.lo is not None and b.hi is not None and a.lo > b.hi
        if pred.op == ">":
            return a.hi is not None and b.lo is not None and a.hi <= b.lo
        if pred.op == ">=":
            return a.hi is not None and b.lo is not None and a.hi < b.lo
    return False


def _definitely_true(pred: T.Term, env: Env) -> bool:
    if isinstance(pred, T.BoolConst):
        return pred.value
    if isinstance(pred, T.And):
        return all(_definitely_true(a, env) for a in pred.args)
    if isinstance(pred, T.Or):
        return any(_definitely_true(a, env) for a in pred.args)
    if isinstance(pred, T.Not):
        return _definitely_false(pred.arg, env)
    if isinstance(pred, T.Cmp):
        a = _eval(pred.lhs, env)
        b = _eval(pred.rhs, env)
        if pred.op == "==":
            return (
                a.lo is not None
                and a.lo == a.hi == b.lo == b.hi
            )
        if pred.op == "!=":
            return _disjoint(a, b)
        if pred.op == "<":
            return a.hi is not None and b.lo is not None and a.hi < b.lo
        if pred.op == "<=":
            return a.hi is not None and b.lo is not None and a.hi <= b.lo
        if pred.op == ">":
            return a.lo is not None and b.hi is not None and a.lo > b.hi
        if pred.op == ">=":
            return a.lo is not None and b.hi is not None and a.lo >= b.hi
    return False


def _disjoint(a: Interval, b: Interval) -> bool:
    if a.hi is not None and b.lo is not None and a.hi < b.lo:
        return True
    if b.hi is not None and a.lo is not None and b.hi < a.lo:
        return True
    return False


def _refine(pred: T.Term, env: Env) -> Optional[Env]:
    """Environment after assuming ``pred``; None when definitely false.

    Only comparison atoms with a variable on one side tighten bounds;
    everything else passes the environment through unchanged (sound:
    dropping a constraint only loses precision).
    """
    if _definitely_false(pred, env):
        return None
    out = dict(env)
    if isinstance(pred, T.And):
        for arg in pred.args:
            refined = _refine(arg, out)
            if refined is None:
                return None
            out = refined
        return out
    if isinstance(pred, T.Or):
        branches = [
            r for r in (_refine(a, env) for a in pred.args) if r is not None
        ]
        if not branches:
            return None
        joined = branches[0]
        for b in branches[1:]:
            joined = _env_join(joined, b)
        return joined
    if isinstance(pred, T.Not) and isinstance(pred.arg, T.Cmp):
        inner = pred.arg
        return _refine(
            T.Cmp(T.CMP_NEGATION[inner.op], inner.lhs, inner.rhs), out
        )
    if isinstance(pred, T.Cmp):
        for var_side, other, op in (
            (pred.lhs, pred.rhs, pred.op),
            (pred.rhs, pred.lhs, T.CMP_SWAP[pred.op]),
        ):
            if not isinstance(var_side, T.Var):
                continue
            name = var_side.name
            bound = _eval(other, env)
            cur = out.get(name, TOP)
            out[name] = _tighten(cur, op, bound)
    return out


def _tighten(cur: Interval, op: str, bound: Interval) -> Interval:
    lo, hi = cur.lo, cur.hi
    if op == "==":
        if bound.lo is not None:
            lo = bound.lo if lo is None else max(lo, bound.lo)
        if bound.hi is not None:
            hi = bound.hi if hi is None else min(hi, bound.hi)
    elif op in ("<", "<="):
        limit = bound.hi
        if limit is not None:
            limit = limit - 1 if op == "<" else limit
            hi = limit if hi is None else min(hi, limit)
    elif op in (">", ">="):
        limit = bound.lo
        if limit is not None:
            limit = limit + 1 if op == ">" else limit
            lo = limit if lo is None else max(lo, limit)
    return Interval(lo, hi)


@dataclass
class AbsintReport:
    """The abstract-interpretation verdict for one (template, variable).

    ``reachable`` is the set of *semantically* reachable locations (those
    whose interval environment is not bottom); ``intervals`` maps each of
    them to its post-fixpoint environment; ``locks`` is the unchanged
    must-lockset domain.
    """

    variable: str
    verdict: str  # 'safe' | 'unknown'
    reason: str
    reachable: frozenset[int]
    intervals: dict[int, dict[str, Interval]]
    locks: dict[int, frozenset[str]]
    pairs_refuted: tuple[tuple[int, int], ...] = ()
    pairs_surviving: tuple[tuple[int, int], ...] = ()
    time_ms: float = 0.0
    cached: bool = False
    digest: str = ""


def _fixpoint(
    cfa: CFA, interference: Mapping[str, Interval]
) -> dict[int, Optional[Env]]:
    """One intra-thread interval pass under a fixed interference summary."""
    init: Env = {v: _point(cfa.global_init.get(v, 0)) for v in cfa.globals}
    init.update({v: _point(0) for v in cfa.locals})

    def disturb(q: int, env: Env) -> Env:
        if cfa.is_atomic(q) or not interference:
            return env
        out = dict(env)
        for g, iv in interference.items():
            out[g] = out.get(g, TOP).join(iv)
        return out

    facts: dict[int, Optional[Env]] = {q: None for q in cfa.locations}
    facts[cfa.q0] = disturb(cfa.q0, init)
    joins: dict[int, int] = {}
    worklist = [cfa.q0]
    while worklist:
        q = worklist.pop()
        env = facts[q]
        if env is None:
            continue
        for e in cfa.out(q):
            op = e.op
            if isinstance(op, AssumeOp):
                post = _refine(op.pred, env)
                if post is None:
                    continue
            elif isinstance(op, AssignOp):
                post = dict(env)
                post[op.lhs] = _eval(op.rhs, env)
            else:  # pragma: no cover - the CFA has no other op kinds
                post = dict(env)
            post = disturb(e.dst, post)
            cur = facts[e.dst]
            if cur is None:
                facts[e.dst] = post
                worklist.append(e.dst)
                continue
            joined = _env_join(cur, post)
            if joined == cur:
                continue
            joins[e.dst] = joins.get(e.dst, 0) + 1
            if joins[e.dst] > _WIDEN_AFTER:
                joined = {
                    v: cur.get(v, TOP).widen(iv)
                    for v, iv in joined.items()
                }
            facts[e.dst] = joined
            worklist.append(e.dst)
    return facts


def _interference_of(
    cfa: CFA, facts: dict[int, Optional[Env]]
) -> dict[str, Interval]:
    """The written-value summary: what another thread may do to a global."""
    summary: dict[str, Interval] = {}
    for e in cfa.edges:
        op = e.op
        if not isinstance(op, AssignOp) or op.lhs not in cfa.globals:
            continue
        env = facts.get(e.src)
        if env is None:
            continue  # the write site is itself unreachable
        value = _eval(op.rhs, env)
        prev = summary.get(op.lhs)
        summary[op.lhs] = value if prev is None else prev.join(value)
    return summary


def _summary_leq(
    a: Mapping[str, Interval], b: Mapping[str, Interval]
) -> bool:
    for g, iv in a.items():
        cur = b.get(g)
        if cur is None:
            return False
        if iv.join(cur) != cur:
            return False
    return True


def _analyze(cfa: CFA) -> tuple[dict[int, Optional[Env]], int]:
    """The outer interference fixpoint; returns (facts, rounds)."""
    interference: dict[str, Interval] = {}
    rounds = 0
    while True:
        rounds += 1
        facts = _fixpoint(cfa, interference)
        new = _interference_of(cfa, facts)
        if _summary_leq(new, interference):
            return facts, rounds
        merged = dict(interference)
        for g, iv in new.items():
            prev = merged.get(g)
            grown = iv if prev is None else prev.join(iv)
            if rounds > _OUTER_WIDEN_AFTER and prev is not None:
                grown = prev.widen(grown)
            merged[g] = grown
        if rounds >= _OUTER_MAX_ROUNDS:
            # Force stabilization: top out every written global.
            merged = {g: TOP for g in merged}
            return _fixpoint(cfa, merged), rounds + 1
        interference = merged


def _verdict(
    cfa: CFA,
    variable: str,
    envs: dict[int, Optional[Env]],
    facts: MhpReport,
) -> tuple[str, str, tuple, tuple, frozenset[int]]:
    """Refute conflicting pairs with semantic reachability + locks.

    Reuses the MHP kill machinery verbatim, but with graph reachability
    replaced by non-bottom interval environments -- a strict refinement,
    since the abstract semantics over-approximates every interleaving.
    """
    reachable = frozenset(q for q, env in envs.items() if env is not None)
    mhp = replace(facts, reachable=reachable)
    sites = sorted(q for q in reachable if variable in cfa.accesses_at(q))
    writes = [q for q in sites if variable in cfa.writes_at(q)]
    if not sites:
        return "safe", "no semantically reachable access site", (), (), reachable
    if not writes:
        return "safe", "no semantically reachable write site", (), (), reachable
    refuted = []
    surviving = []
    for pair in mhp.access_pairs(cfa, variable):
        (surviving if mhp.race_pair(*pair) else refuted).append(pair)
    if not surviving:
        return (
            "safe",
            "every conflicting pair refuted by intervals or locks",
            tuple(refuted),
            (),
            reachable,
        )
    return (
        "unknown",
        f"{len(surviving)} pair(s) not refuted by the abstraction",
        tuple(refuted),
        tuple(surviving),
        reachable,
    )


# -- cache serialization ------------------------------------------------------


def _iv_obj(iv: Interval) -> list:
    return [iv.lo, iv.hi]


def _summary_obj(report: AbsintReport) -> dict:
    return {
        "schema": ABSINT_SCHEMA,
        "variable": report.variable,
        "verdict": report.verdict,
        "reason": report.reason,
        "reachable": sorted(report.reachable),
        "intervals": {
            str(q): {v: _iv_obj(iv) for v, iv in sorted(env.items())}
            for q, env in sorted(report.intervals.items())
        },
        "locks": {
            str(q): sorted(ls) for q, ls in sorted(report.locks.items())
        },
        "pairs_refuted": [list(p) for p in report.pairs_refuted],
        "pairs_surviving": [list(p) for p in report.pairs_surviving],
    }


def _summary_from_obj(obj: dict, digest: str) -> AbsintReport:
    return AbsintReport(
        variable=obj["variable"],
        verdict=obj["verdict"],
        reason=obj["reason"],
        reachable=frozenset(obj["reachable"]),
        intervals={
            int(q): {v: Interval(*iv) for v, iv in env.items()}
            for q, env in obj["intervals"].items()
        },
        locks={
            int(q): frozenset(ls) for q, ls in obj["locks"].items()
        },
        pairs_refuted=tuple(tuple(p) for p in obj["pairs_refuted"]),
        pairs_surviving=tuple(tuple(p) for p in obj["pairs_surviving"]),
        cached=True,
        digest=digest,
    )


def absint_check(
    cfa: CFA,
    variable: str,
    cache: ArtifactCache | None = None,
    events: EventLog | None = None,
    facts: MhpReport | None = None,
) -> AbsintReport:
    """Run (or recall) the abstract interpretation for one query.

    With a cache, the summary is keyed by the slice digest: any program
    whose relevant slice is byte-identical -- reformatted, renamed
    outside the slice, edited in unrelated threads -- answers from disk.
    ``facts`` lets callers share one :func:`~repro.static.mhp.mhp_analysis`
    run across analyses of the same CFA.
    """
    cfa.require_global(variable)
    events = events or EventLog()
    digest = slice_digest(cfa, variable)
    key = f"{ABSINT_SCHEMA}:{digest}"
    if cache is not None:
        blob = cache.get_blob("absint", key)
        if blob is not None and blob.get("schema") == ABSINT_SCHEMA:
            events.emit("absint_cache_hit", digest=digest[:12])
            try:
                return _summary_from_obj(blob, digest)
            except (KeyError, TypeError, ValueError):
                pass  # treat a malformed blob as a miss; recompute below
        events.emit("absint_cache_miss", digest=digest[:12])

    start = time.perf_counter()
    if facts is None:
        facts = mhp_analysis(cfa)
    envs, _rounds = _analyze(cfa)
    verdict, reason, refuted, surviving, reachable = _verdict(
        cfa, variable, envs, facts
    )
    report = AbsintReport(
        variable=variable,
        verdict=verdict,
        reason=reason,
        reachable=reachable,
        intervals={
            q: env for q, env in envs.items() if env is not None
        },
        locks=facts.held,
        pairs_refuted=refuted,
        pairs_surviving=surviving,
        time_ms=(time.perf_counter() - start) * 1000.0,
        digest=digest,
    )
    if cache is not None:
        cache.put_blob("absint", key, _summary_obj(report))
    return report
