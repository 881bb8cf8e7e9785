"""Shared-variable classification: the verdict lattice of the pre-analysis.

Every global of the thread template gets one of four verdicts, ordered by
how much work remains for the heavyweight checker:

* ``local`` -- never accessed at any reachable location: the variable is
  dead to this template (a thread-local or unused global) and cannot race;
* ``read-shared`` -- accessed but never written: a race needs a write;
* ``protected`` -- written, but every location pair that could witness a
  race (two accesses, one a write) is killed by the MHP analysis: an
  atomic member, or a common must-held monitor;
* ``must-check`` -- everything else; only these are handed to CIRC.

Soundness of pruning (why a skipped variable cannot hide a race): a race
on ``x`` is a reachable state where two distinct threads have enabled
accesses to ``x``, one a write, and no thread occupies an atomic location
(Section 4.1).  Such a state exhibits a location pair ``(q1, q2)`` with an
access at each side and a write at one -- exactly a *conflicting pair*.
``local`` and ``read-shared`` verdicts mean no conflicting pair exists at
all; ``protected`` means every one is refuted by a sound impossibility
argument (reachability, single-occupancy of atomic locations, or monitor
mutual exclusion as proved in :mod:`repro.static.protect`).  No conflicting
pair, no race state: the verdict implies the same ``SAFE`` answer CIRC
would return, without constructing a context.  The converse direction is
deliberately absent -- ``must-check`` never claims a race, it only refuses
to rule one out -- so the pipeline can only lose speed, never precision.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from ..cfa.cfa import CFA
from .mhp import MhpReport, mhp_analysis
from .protect import Monitor, describe_locks

__all__ = ["Verdict", "VariableVerdict", "StaticReport", "classify"]


class Verdict(str, enum.Enum):
    """The per-variable verdict lattice, weakest knowledge last."""

    LOCAL = "local"
    READ_SHARED = "read-shared"
    PROTECTED = "protected"
    MUST_CHECK = "must-check"


@dataclass(frozen=True)
class VariableVerdict:
    """The classification of one global, with its evidence."""

    variable: str
    verdict: Verdict
    reason: str
    read_sites: tuple[int, ...] = ()
    write_sites: tuple[int, ...] = ()
    #: Monitors held at *every* access site (Eraser-style common lockset);
    #: may be empty even for ``protected`` -- pairwise exclusion suffices.
    protectors: tuple[str, ...] = ()
    #: Surviving conflicting pairs (non-empty iff ``must-check``).
    racing_pairs: tuple[tuple[int, int], ...] = ()

    @property
    def prunable(self) -> bool:
        """May the heavyweight checker skip this variable?"""
        return self.verdict is not Verdict.MUST_CHECK

    def __str__(self) -> str:
        return f"{self.variable}: {self.verdict.value} ({self.reason})"


@dataclass
class StaticReport:
    """The pre-analysis result for one thread template."""

    cfa_name: str
    verdicts: dict[str, VariableVerdict]
    monitors: tuple[Monitor, ...]
    mhp: MhpReport

    def verdict(self, variable: str) -> VariableVerdict:
        return self.verdicts[variable]

    @property
    def must_check(self) -> tuple[str, ...]:
        """The variables that still need CIRC, sorted."""
        return tuple(
            sorted(
                v.variable
                for v in self.verdicts.values()
                if not v.prunable
            )
        )

    @property
    def pruned(self) -> tuple[str, ...]:
        """The variables discharged statically, sorted."""
        return tuple(
            sorted(
                v.variable for v in self.verdicts.values() if v.prunable
            )
        )

    def counts(self) -> dict[str, int]:
        """Verdict-class histogram (benchmark and CLI summary lines)."""
        out = {v.value: 0 for v in Verdict}
        for vv in self.verdicts.values():
            out[vv.verdict.value] += 1
        return out

    def __str__(self) -> str:
        lines = [f"static pre-analysis of {self.cfa_name!r}"]
        if self.monitors:
            mons = ", ".join(str(m) for m in self.monitors)
            lines.append(f"  monitors: {mons}")
        width = max((len(v) for v in self.verdicts), default=0)
        for name in sorted(self.verdicts):
            vv = self.verdicts[name]
            lines.append(
                f"  {name:<{width}s}  {vv.verdict.value:<12s} {vv.reason}"
            )
        c = self.counts()
        lines.append(
            "  summary: "
            + ", ".join(f"{c[v.value]} {v.value}" for v in Verdict)
            + f" -> {len(self.must_check)}/{len(self.verdicts)} need CIRC"
        )
        return "\n".join(lines)


def _common_protectors(
    mhp: MhpReport, sites: Iterable[int]
) -> tuple[str, ...]:
    common: frozenset[str] | None = None
    for q in sites:
        held = mhp.held[q]
        common = held if common is None else common & held
    return tuple(sorted(common or ()))


def classify(
    cfa: CFA, variables: Iterable[str] | None = None
) -> StaticReport:
    """Classify ``variables`` (default: every global) of the template.

    One phase-1 facts run (:func:`~repro.static.mhp.mhp_analysis`) is
    shared across all variables, so classifying a whole program costs
    little more than one variable.
    """
    mhp = mhp_analysis(cfa)
    if variables is None:
        variables = sorted(cfa.globals)
    else:
        variables = sorted(variables)
        unknown = set(variables) - cfa.globals
        if unknown:
            raise ValueError(
                f"not globals of the program: {sorted(unknown)}"
            )

    verdicts: dict[str, VariableVerdict] = {}
    for x in variables:
        read_sites = tuple(
            sorted(
                q
                for q in mhp.reachable
                if x in cfa.reads_at(q)
            )
        )
        write_sites = tuple(
            sorted(
                q
                for q in mhp.reachable
                if x in cfa.writes_at(q)
            )
        )
        access_sites = tuple(sorted(set(read_sites) | set(write_sites)))
        if not access_sites:
            verdicts[x] = VariableVerdict(
                x,
                Verdict.LOCAL,
                "never accessed at a reachable location",
            )
            continue
        if not write_sites:
            verdicts[x] = VariableVerdict(
                x,
                Verdict.READ_SHARED,
                f"read-only: {len(read_sites)} read sites, no writes",
                read_sites=read_sites,
            )
            continue
        pairs = tuple(mhp.conflicting_pairs(cfa, x))
        protectors = _common_protectors(mhp, access_sites)
        if not pairs:
            if protectors:
                reason = f"every access holds {describe_locks(protectors)}"
            else:
                reason = (
                    "every conflicting access pair is excluded "
                    "(atomic sections / pairwise monitors)"
                )
            verdicts[x] = VariableVerdict(
                x,
                Verdict.PROTECTED,
                reason,
                read_sites=read_sites,
                write_sites=write_sites,
                protectors=protectors,
            )
            continue
        verdicts[x] = VariableVerdict(
            x,
            Verdict.MUST_CHECK,
            f"{len(pairs)} co-enabled conflicting access pair(s)",
            read_sites=read_sites,
            write_sites=write_sites,
            protectors=protectors,
            racing_pairs=pairs,
        )
    return StaticReport(
        cfa_name=cfa.name,
        verdicts=verdicts,
        monitors=mhp.monitors,
        mhp=mhp,
    )
