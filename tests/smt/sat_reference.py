"""Test-only reference: the CDCL solver with a branching scan per decision.

:class:`SatSolver` here is :class:`repro.smt.sat.SatSolver` before its
activity heap, kept verbatim: ``_decide`` scans every variable of the
instance for the unassigned one of highest activity (lowest index among
ties), and ``_propagate`` reads each literal through ``_value`` and
assigns through ``_enqueue``.  The parity suite (``test_sat_parity.py``)
drives both solvers through the same calls and checks that every solve
leaves the same answer, trail, learned clauses, activities and model.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["SatSolver", "SAT", "UNSAT"]

SAT = "sat"
UNSAT = "unsat"

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


def _luby(i: int) -> int:
    """The i-th element (0-based) of the Luby restart sequence (MiniSat)."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i = i % size
    return 1 << seq


class SatSolver:
    """CDCL solver over integer DIMACS literals."""

    def __init__(self):
        self._num_vars = 0
        self._clauses: list[list[int]] = []
        self._learned: list[list[int]] = []
        # Watch lists indexed by literal; lazily grown.
        self._watches: dict[int, list[list[int]]] = {}
        self._assign: list[int] = [_UNASSIGNED]  # 1-indexed by variable
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._prop_head = 0
        self._activity: list[float] = [0.0]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._conflicts_total = 0
        self._empty_clause = False

    # -- problem construction -------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self._num_vars += 1
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        return self._num_vars

    def ensure_var(self, v: int) -> None:
        while self._num_vars < v:
            self.new_var()

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause; duplicate literals are removed, tautologies skipped."""
        seen: set[int] = set()
        clause: list[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            self.ensure_var(abs(lit))
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not clause:
            self._empty_clause = True
            return
        self._backtrack(0)
        # Evaluate against the (permanent) level-0 assignment: satisfied
        # clauses are dropped, false literals removed.
        live: list[int] = []
        for lit in clause:
            val = self._value(lit)
            if val == _TRUE:
                return
            if val == _UNASSIGNED:
                live.append(lit)
        if not live:
            self._empty_clause = True
            return
        if len(live) == 1:
            if not self._enqueue(live[0], None):
                self._empty_clause = True
            return
        self._clauses.append(live)
        self._watch(live)

    def _watch(self, clause: list[int]) -> None:
        self._watches.setdefault(-clause[0], []).append(clause)
        self._watches.setdefault(-clause[1], []).append(clause)

    # -- assignment helpers ----------------------------------------------------

    def _value(self, lit: int) -> int:
        v = self._assign[abs(lit)]
        if v == _UNASSIGNED:
            return _UNASSIGNED
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self._value(lit)
        if val == _TRUE:
            return True
        if val == _FALSE:
            return False
        v = abs(lit)
        self._assign[v] = _TRUE if lit > 0 else _FALSE
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)
        return True

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        target = self._trail_lim[level]
        for lit in self._trail[target:]:
            v = abs(lit)
            self._assign[v] = _UNASSIGNED
            self._reason[v] = None
        del self._trail[target:]
        del self._trail_lim[level:]
        self._prop_head = min(self._prop_head, len(self._trail))

    # -- propagation -------------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        while self._prop_head < len(self._trail):
            lit = self._trail[self._prop_head]
            self._prop_head += 1
            # Clauses watching -lit must be inspected.
            watchers = self._watches.get(lit)
            if not watchers:
                continue
            i = 0
            while i < len(watchers):
                clause = watchers[i]
                # Normalize: the falsified watch is -lit; put it at index 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == _TRUE:
                    i += 1
                    continue
                # Search replacement watch.
                found = False
                for j in range(2, len(clause)):
                    if self._value(clause[j]) != _FALSE:
                        clause[1], clause[j] = clause[j], clause[1]
                        self._watches.setdefault(-clause[1], []).append(clause)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                if self._value(first) == _FALSE:
                    return clause
                self._enqueue(first, clause)
                i += 1
        return None

    # -- conflict analysis ----------------------------------------------------------

    def _bump(self, v: int) -> None:
        self._activity[v] += self._var_inc
        if self._activity[v] > 1e100:
            for i in range(1, self._num_vars + 1):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning: returns (learned clause, backjump level)."""
        cur_level = len(self._trail_lim)
        learned: list[int] = []
        seen: set[int] = set()
        counter = 0
        clause: Sequence[int] | None = conflict
        index = len(self._trail) - 1
        uip = 0
        while True:
            assert clause is not None
            for lit in clause:
                v = abs(lit)
                if v in seen or self._level[v] == 0:
                    continue
                seen.add(v)
                self._bump(v)
                if self._level[v] == cur_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Walk the trail backwards to the next marked literal.
            while abs(self._trail[index]) not in seen:
                index -= 1
            uip_lit = self._trail[index]
            v = abs(uip_lit)
            seen.discard(v)
            counter -= 1
            index -= 1
            if counter == 0:
                uip = -uip_lit
                break
            clause = self._reason[v]
            assert clause is not None, "non-decision must have a reason"
            clause = [l for l in clause if abs(l) != v]
        learned.insert(0, uip)
        if len(learned) == 1:
            return learned, 0
        back_level = max(self._level[abs(l)] for l in learned[1:])
        # Put a literal of back_level in the second watch position.
        for j in range(1, len(learned)):
            if self._level[abs(learned[j])] == back_level:
                learned[1], learned[j] = learned[j], learned[1]
                break
        return learned, back_level

    # -- branching --------------------------------------------------------------

    def _decide(self) -> int:
        best = 0
        best_act = -1.0
        for v in range(1, self._num_vars + 1):
            if self._assign[v] == _UNASSIGNED and self._activity[v] > best_act:
                best = v
                best_act = self._activity[v]
        return best

    # -- main loop -----------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> str:
        """Solve the current clause set; returns :data:`SAT` or :data:`UNSAT`.

        ``assumptions`` are literals temporarily held true for this call
        only (MiniSat-style): each is made as a forced decision before any
        free branching, so learned clauses never depend on them except as
        ordinary literals and remain valid for later calls under different
        assumptions.  An assumption falsified by the permanent clause set
        (or by earlier assumptions) yields :data:`UNSAT` *under the
        assumptions* without touching the clause database.
        """
        if self._empty_clause:
            return UNSAT
        self._backtrack(0)
        for lit in assumptions:
            self.ensure_var(abs(lit))
        if self._propagate() is not None:
            return UNSAT
        restart_count = 0
        conflicts_until_restart = 32 * _luby(restart_count)
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self._conflicts_total += 1
                conflicts_here += 1
                if not self._trail_lim:
                    return UNSAT
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        return UNSAT
                else:
                    self._learned.append(learned)
                    self._watch(learned)
                    self._enqueue(learned[0], learned)
                self._var_inc /= self._var_decay
                if conflicts_here >= conflicts_until_restart:
                    conflicts_here = 0
                    restart_count += 1
                    conflicts_until_restart = 32 * _luby(restart_count)
                    self._backtrack(0)
                continue
            # Assumptions come first, as forced decisions; a backjump (or
            # restart) below the assumption levels re-makes them here.
            decision = 0
            while len(self._trail_lim) < len(assumptions):
                a = assumptions[len(self._trail_lim)]
                val = self._value(a)
                if val == _FALSE:
                    return UNSAT  # unsat under the assumptions
                if val == _TRUE:
                    # Already implied: open an empty decision level so
                    # the level <-> assumption indexing stays aligned.
                    self._trail_lim.append(len(self._trail))
                    continue
                decision = a
                break
            if decision == 0:
                v = self._decide()
                if v == 0:
                    return SAT
                # Phase saving would go here; default to negative polarity,
                # which is a good fit for sparse models.
                decision = -v
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)

    # -- model access -----------------------------------------------------------------

    def model(self) -> dict[int, bool]:
        """The satisfying assignment after a SAT answer (unassigned -> False)."""
        return {
            v: self._assign[v] == _TRUE
            for v in range(1, self._num_vars + 1)
        }

    def value(self, v: int) -> bool:
        return self._assign[v] == _TRUE
