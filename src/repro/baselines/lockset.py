"""Eraser-style static lockset analysis (the paper's lockset baseline).

The paper's motivation: lockset-based checkers flag race-free programs that
synchronize through state variables instead of locks.  This module
implements the classic static variant:

1. a forward must-dataflow computes the set of locks held at every CFA
   location (``lock``/``unlock`` sites are tagged by the frontend; atomic
   sections count as holding a distinguished pseudo-lock);
2. for each shared variable, the *candidate lockset* is the intersection of
   the locks held at all access sites; an empty candidate set with at least
   one write yields a warning.

Sound for lock-disciplined programs, but -- by design -- it warns on the
test-and-set idiom of Figure 1, which CIRC proves safe.

The analysis keeps its own tag-only dataflow (:func:`_locks_held`) on
purpose.  It stands for the lockset checkers the paper compares against,
which see only ``lock()`` tags and atomic sections.  The monitor-aware
phase-1 facts of :class:`repro.static.mhp.MhpReport`, which the static
pass and the portfolio's racer and abstract interpreter share, also
validate test-and-set flags, and would make the baseline a different
analysis.  The :data:`ATOMIC_LOCK` pseudo-lock lives in
:mod:`repro.static.protect` and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..cfa.cfa import CFA, AssumeOp, Edge
from ..static.protect import ATOMIC_LOCK

__all__ = [
    "ATOMIC_LOCK",
    "LocksetWarning",
    "LocksetReport",
    "lockset_analysis",
]


@dataclass(frozen=True)
class LocksetWarning:
    """A potential race reported by the lockset discipline."""

    variable: str
    candidate_lockset: frozenset[str]
    access_sites: tuple[int, ...]
    has_write: bool

    def __str__(self) -> str:
        sites = ", ".join(map(str, self.access_sites))
        return (
            f"lockset: possible race on {self.variable!r} "
            f"(candidate lockset empty; accesses at locations {sites})"
        )


@dataclass
class LocksetReport:
    """Analysis result: per-variable candidate locksets and warnings."""

    locks_held: dict[int, frozenset[str]]
    candidate: dict[str, frozenset[str]]
    warnings: list[LocksetWarning] = field(default_factory=list)

    def warns_on(self, variable: str) -> bool:
        return any(w.variable == variable for w in self.warnings)


def _locks_held(cfa: CFA) -> dict[int, frozenset[str]]:
    """Must-analysis: the set of locks surely held at each location."""
    all_locks: set[str] = {ATOMIC_LOCK}
    for e in cfa.edges:
        if e.lock_info:
            all_locks.add(e.lock_info[1])
    universe = frozenset(all_locks)

    held: dict[int, frozenset[str]] = {
        q: universe for q in cfa.locations
    }
    held[cfa.q0] = frozenset()

    def transfer(before: frozenset[str], e: Edge) -> frozenset[str]:
        after = set(before)
        if e.lock_info:
            kind, mutex = e.lock_info
            # The acquire completes on the assignment edge (m := 1); the
            # assume edge alone has not claimed the lock yet.
            if kind == "acquire" and not isinstance(e.op, AssumeOp):
                after.add(mutex)
            elif kind == "release":
                after.discard(mutex)
        if cfa.is_atomic(e.dst):
            after.add(ATOMIC_LOCK)
        else:
            after.discard(ATOMIC_LOCK)
        return frozenset(after)

    changed = True
    while changed:
        changed = False
        for e in cfa.edges:
            out = transfer(held[e.src], e)
            new = held[e.dst] & out
            if new != held[e.dst]:
                held[e.dst] = new
                changed = True
    return held


def lockset_analysis(
    cfa: CFA, variables: Iterable[str] | None = None
) -> LocksetReport:
    """Run the static lockset discipline over one thread template.

    In the symmetric multithreaded program every thread runs the same CFA,
    so a single-thread analysis covers all cross-thread pairs.
    """
    held = _locks_held(cfa)
    if variables is None:
        variables = (
            v
            for v in cfa.globals
            if any(cfa.may_access(q, v) for q in cfa.locations)
        )
    # Sort up front so the candidate map, the warning list, and therefore
    # the CLI output are stable regardless of the caller's iteration order.
    variables = sorted(variables)

    report = LocksetReport(locks_held=held, candidate={})
    for x in variables:
        sites = []
        has_write = False
        candidate: frozenset[str] | None = None
        for e in cfa.edges:
            reads = x in e.op.reads()
            writes = x in e.op.writes()
            if not (reads or writes):
                continue
            # Skip accesses that implement a lock on x itself.
            if e.lock_info and e.lock_info[1] == x:
                continue
            sites.append(e.src)
            has_write = has_write or writes
            site_locks = held[e.src]
            if cfa.is_atomic(e.src):
                site_locks = site_locks | {ATOMIC_LOCK}
            candidate = (
                site_locks if candidate is None else candidate & site_locks
            )
        if candidate is None:
            candidate = frozenset()
        report.candidate[x] = candidate
        if sites and has_write and not candidate and len(sites) >= 1:
            report.warnings.append(
                LocksetWarning(
                    variable=x,
                    candidate_lockset=candidate,
                    access_sites=tuple(sorted(set(sites))),
                    has_write=has_write,
                )
            )
    report.warnings.sort(key=lambda w: w.variable)
    return report
