"""Incremental SMT sessions: one live CDCL instance across many queries.

The verifier's abstraction passes issue long runs of *near-identical*
queries -- the same region conjoined with one more predicate literal, the
same trace prefix with a different suffix.  A fresh :class:`~repro.smt
.solver.Solver` pays full Tseitin encoding, fresh variable allocation, and
re-derivation of every theory lemma on each of them.  A :class:`Session`
instead keeps the SAT instance alive and solves each formula *under an
assumption literal*:

* every distinct subformula is Tseitin-encoded **once** -- the structural
  encode cache is shared across queries, so two queries differing in one
  conjunct share every other gate and atom variable;
* the formula's root gate is passed to :meth:`SatSolver.solve` as an
  assumption, never asserted, so past queries place no constraints on
  future ones;
* CDCL **learned clauses** survive between queries (they are resolution
  consequences of the permanent clause set -- assumptions only ever enter
  them as ordinary literals);
* **theory lemmas** -- the blocking clauses built from LIA unsat cores in
  the DPLL(T) loop -- are tautologies of linear integer arithmetic over
  the shared atom table, so they are added permanently and prune theory
  conflicts from all later queries.

The DPLL(T) loop checks theory consistency of the *current query's*
atoms only, not the whole shared atom table.  Atoms belonging to other
queries are unconstrained by the root assumption, so their polarities in
the SAT model are don't-cares: a model consistent on the query's own
atoms satisfies the query (sat answers are sound), and an unsat core over
the query's atoms is a genuine LIA conflict (unsat answers are sound;
the loop terminates because each blocking clause removes at least one
assignment of the query's finitely many atoms).  Restricting the check
also keeps its cost proportional to the query, not to the session's
lifetime -- a long-lived session accumulates thousands of atoms, and
handing them all to the conjunction procedure on every round is a
memory and time cliff, not a soundness requirement.

Sessions auto-reset once the accumulated instance exceeds ``max_vars``
variables, bounding both memory and the per-round theory-check cost.
"""

from __future__ import annotations

import threading

from .cnf import AtomTable, _encode, nnf_of
from . import lia
from .linear import LinExpr, LinLe
from .sat import SAT, SatSolver
from .solver import MAX_THEORY_ROUNDS, SmtResult
from .terms import FALSE, TRUE, And, Cmp, Or, Term, free_vars

__all__ = ["Session", "SessionStats", "default_session", "reset_default_session"]


class SessionStats:
    """Counters for one session's lifetime (survives auto-resets)."""

    __slots__ = (
        "queries",
        "sat",
        "unsat",
        "theory_conflicts",
        "encode_hits",
        "resets",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.sat = 0
        self.unsat = 0
        self.theory_conflicts = 0
        self.encode_hits = 0
        self.resets = 0

    def to_obj(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "sat": self.sat,
            "unsat": self.unsat,
            "theory_conflicts": self.theory_conflicts,
            "encode_hits": self.encode_hits,
            "resets": self.resets,
        }


class Session:
    """A long-lived incremental DPLL(T) solver."""

    def __init__(self, max_vars: int = 4096):
        self.max_vars = max_vars
        self.stats = SessionStats()
        self._fresh()

    def _fresh(self) -> None:
        self._sat = SatSolver()
        self._table = AtomTable(self._sat.new_var)
        self._encode_cache: dict[Term, int] = {}
        #: root formula -> (root gate literal, its theory atom variables)
        self._roots: dict[Term, tuple[int, tuple[int, ...]]] = {}

    def _atom_vars(self, nnf: Term) -> tuple[int, ...]:
        """The table variables of every comparison atom in ``nnf``, which
        must already be encoded: the encode cache maps each atom to its
        table variable."""
        encoded = self._encode_cache
        out: set[int] = set()
        stack = [nnf]
        while stack:
            t = stack.pop()
            if isinstance(t, Cmp):
                out.add(encoded[t])
            elif isinstance(t, (And, Or)):
                stack.extend(t.args)
        return tuple(sorted(out))

    def reset(self) -> None:
        """Discard the live instance (encodings, lemmas, learned clauses)."""
        self.stats.resets += 1
        self._fresh()

    @property
    def num_vars(self) -> int:
        return self._sat.num_vars

    # -- queries -------------------------------------------------------------

    def check(self, formula: Term) -> SmtResult:
        """Satisfiability of ``formula``, reusing the live instance."""
        nnf = nnf_of(formula)
        return self.check_nnf(nnf, formula)

    def check_nnf(self, nnf: Term, original: Term | None = None) -> SmtResult:
        """Like :meth:`check` for an already-normalized NNF formula.

        ``original`` supplies the variable set for model completion (the
        NNF rewrite never drops variables, but callers that normalized
        the formula themselves can pass the source term for clarity).
        """
        self.stats.queries += 1
        source = original if original is not None else nnf
        if nnf == TRUE:
            self.stats.sat += 1
            return SmtResult("sat", {name: 0 for name in free_vars(source)})
        if nnf == FALSE:
            self.stats.unsat += 1
            return SmtResult("unsat")
        if self._sat.num_vars > self.max_vars:
            self.reset()
        entry = self._roots.get(nnf)
        if entry is None:
            root = _encode(nnf, self._sat, self._table, self._encode_cache)
            atom_vars = self._atom_vars(nnf)
            self._roots[nnf] = (root, atom_vars)
        else:
            root, atom_vars = entry
            self.stats.encode_hits += 1

        one = LinExpr({}, 1)
        for _ in range(MAX_THEORY_ROUNDS):
            if self._sat.solve(assumptions=(root,)) != SAT:
                self.stats.unsat += 1
                return SmtResult("unsat")
            model = self._sat.model()
            constraints: list[LinLe] = []
            origins: list[int] = []  # SAT literal for each constraint
            for v in atom_vars:
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
                self.stats.sat += 1
                env = dict(result.model or {})
                for name in free_vars(source):
                    env.setdefault(name, 0)
                return SmtResult("sat", env)
            core = result.core or frozenset(range(len(constraints)))
            blocking = [-origins[i] for i in core]
            if not blocking:
                self.stats.unsat += 1
                return SmtResult("unsat")
            # A theory lemma: valid over the atom table in any context,
            # so it is added permanently and survives into later queries.
            self.stats.theory_conflicts += 1
            self._sat.add_clause(blocking)
        raise RuntimeError("DPLL(T) loop exceeded its round budget")


#: Lazily-created per-thread session used by the module-level query API.
#: Thread-local rather than global: a Session holds one live CDCL
#: instance whose state machine cannot survive interleaved use, and the
#: serve daemon runs verification jobs on a thread pool.  Each worker
#: thread gets its own session (its own learned lemmas); the shared
#: query cache, not the session, carries cross-thread warmth.
_LOCAL = threading.local()


def default_session() -> Session:
    session = getattr(_LOCAL, "session", None)
    if session is None:
        session = _LOCAL.session = Session()
    return session


def reset_default_session() -> None:
    """Drop the calling thread's session (tests and cold benchmark runs)."""
    _LOCAL.session = None
