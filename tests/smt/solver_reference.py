"""Test-only reference: the single-query lazy DPLL(T) solver.

:class:`Solver` here is the throwaway one-formula solver that the
incremental :class:`repro.smt.session.Session` replaced on every
production path, kept verbatim: it Tseitin-encodes one formula into a
fresh SAT instance and runs the lazy loop -- solve the propositional
skeleton, check the implied theory literals with the LIA procedure, and
block an inconsistent set by its unsat core.  ``test_session.py`` holds
one long-lived session to its answers, the soundness contract that
makes learned-clause and theory-lemma retention safe.
"""

from __future__ import annotations

from repro.smt import lia
from repro.smt.cnf import AtomTable, rewrite_to_le, to_nnf, tseitin
from repro.smt.linear import LinExpr, LinLe
from repro.smt.sat import SAT, SatSolver
from repro.smt.solver import MAX_THEORY_ROUNDS, SmtResult
from repro.smt.terms import TRUE, Term, free_vars


class Solver:
    """A single-query lazy SMT solver instance."""

    def __init__(self, formula: Term):
        self.formula = formula
        self._sat = SatSolver()
        self._table = AtomTable(self._sat.new_var)

    def check(self) -> SmtResult:
        le_form = rewrite_to_le(self.formula)
        nnf = to_nnf(le_form)
        if nnf == TRUE:
            return SmtResult("sat", {name: 0 for name in free_vars(self.formula)})
        tseitin(nnf, self._sat, self._table)
        for _ in range(MAX_THEORY_ROUNDS):
            if self._sat.solve() != SAT:
                return SmtResult("unsat")
            model = self._sat.model()
            constraints: list[LinLe] = []
            origins: list[int] = []  # SAT literal for each constraint
            one = LinExpr({}, 1)
            for v in self._table.theory_vars():
                expr = self._table.expr_for(v)
                assert expr is not None
                if model.get(v, False):
                    constraints.append(LinLe(expr))
                    origins.append(v)
                else:
                    # not (expr <= 0)  ==  -expr + 1 <= 0   (integers)
                    constraints.append(LinLe((-expr) + one))
                    origins.append(-v)
            result = lia.solve_conjunction(constraints)
            if result.is_sat:
                env = dict(result.model or {})
                for name in free_vars(self.formula):
                    env.setdefault(name, 0)
                return SmtResult("sat", env)
            core = result.core or frozenset(range(len(constraints)))
            blocking = [-origins[i] for i in core]
            if not blocking:
                return SmtResult("unsat")
            self._sat.add_clause(blocking)
        raise RuntimeError("DPLL(T) loop exceeded its round budget")
