"""May-happen-in-parallel analysis over CFA location pairs.

For the paper's symmetric multithreaded program every thread runs the same
template, so co-enabledness is a relation on *location pairs of one CFA*:
can two distinct threads simultaneously occupy locations ``q1`` and ``q2``?
(``q1 == q2`` is a legal pair -- two copies of the thread at the same
point.)

Three sound kill rules prune the full cross product:

* **reachability** -- a thread only ever occupies graph-reachable
  locations, under any environment;
* **atomicity** -- at most one thread occupies an atomic location at any
  time (while it does, nobody else is scheduled, so a second thread cannot
  take the step that would enter one), killing atomic/atomic pairs;
* **mutual exclusion** -- locations that both must-hold a common monitor
  (the :data:`~repro.static.protect.ATOMIC_LOCK` pseudo-lock or a
  validated flag from :func:`repro.static.protect.infer_monitors`) can
  never be co-occupied.

``race_pair`` adds the race-state condition of Section 4.1: a race is only
observed when *no* thread occupies an atomic location, so pairs with an
atomic member cannot witness one.  This is where atomic sections get their
protective power in the pre-analysis.

The :class:`MhpReport` is the one record of these phase-1 facts per CFA.
The static classifier, the portfolio's two-phase racer and its abstract
interpreter all read it; each enumerates a variable's access pairs through
:meth:`MhpReport.access_pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfa.cfa import CFA
from .protect import Monitor, held_locks, infer_monitors, reachable_locations

__all__ = ["MhpReport", "mhp_analysis"]


@dataclass(frozen=True)
class MhpReport:
    """The phase-1 facts of one CFA and the co-enabledness they imply."""

    cfa_name: str
    reachable: frozenset[int]
    atomic: frozenset[int]
    #: Per-location kill-set: monitors surely held (incl. ``ATOMIC_LOCK``).
    held: dict[int, frozenset[str]]
    monitors: tuple[Monitor, ...]

    def co_enabled(self, q1: int, q2: int) -> bool:
        """May two distinct threads occupy ``q1`` and ``q2`` at once?"""
        if q1 not in self.reachable or q2 not in self.reachable:
            return False
        if q1 in self.atomic and q2 in self.atomic:
            return False
        return not (self.held[q1] & self.held[q2])

    def race_pair(self, q1: int, q2: int) -> bool:
        """May ``(q1, q2)`` be co-occupied in a *race state*?

        Race states additionally require that no thread sits at an atomic
        location (the Section 4.1 definition), so any pair with an atomic
        member is excluded.
        """
        if q1 in self.atomic or q2 in self.atomic:
            return False
        return self.co_enabled(q1, q2)

    def excluded_by(self, q1: int, q2: int) -> frozenset[str]:
        """The common monitors that kill the pair (diagnostics)."""
        return self.held.get(q1, frozenset()) & self.held.get(q2, frozenset())

    def access_pairs(self, cfa: CFA, variable: str) -> list[tuple[int, int]]:
        """Every unordered location pair that could witness a race on
        ``variable`` before any kill rule: both sides access it and at
        least one side writes it.

        Sites range over all locations, reachable or not, in ascending
        order, so each pair's kill rule can be named.  Access and write
        sets are location-level (``cfa.writes_at`` / ``cfa.accesses_at``),
        matching the race definition of :mod:`repro.races.spec` exactly --
        the pre-analysis prunes the same events CIRC would search for.
        """
        sites = sorted(
            q for q in cfa.locations if variable in cfa.accesses_at(q)
        )
        writes = {q for q in sites if variable in cfa.writes_at(q)}
        return [
            (q1, q2)
            for i, q1 in enumerate(sites)
            for q2 in sites[i:]
            if q1 in writes or q2 in writes
        ]

    def conflicting_pairs(
        self, cfa: CFA, variable: str
    ) -> list[tuple[int, int]]:
        """The :meth:`access_pairs` that survive every kill rule."""
        return [
            pair
            for pair in self.access_pairs(cfa, variable)
            if self.race_pair(*pair)
        ]


def mhp_analysis(cfa: CFA) -> MhpReport:
    """Compute the phase-1 facts and MHP relation of one thread template."""
    monitors = infer_monitors(cfa)
    return MhpReport(
        cfa_name=cfa.name,
        reachable=reachable_locations(cfa),
        atomic=cfa.atomic,
        held=held_locks(cfa, monitors),
        monitors=monitors,
    )
