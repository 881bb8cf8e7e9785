"""Lazy DPLL(T) SMT solver for quantifier-free linear integer arithmetic.

Combines the CDCL SAT solver (:mod:`repro.smt.sat`) with the LIA conjunction
procedure (:mod:`repro.smt.lia`) in the classic lazy loop: the propositional
skeleton is solved first; the implied set of theory literals is checked for
consistency; an inconsistent set yields a blocking clause built from the
theory unsat core, and the loop repeats.

Also exposes the fast conjunction-level entry points the verifier uses on its
hot paths (:func:`is_sat_conjunction`, :func:`entails`), which bypass the SAT
engine entirely.

Every verdict computed here is memoized in the shared, bounded
:data:`repro.smt.qcache.SAT_CACHE` under canonicalized keys, every query is
attributed to its calling stage by :mod:`repro.smt.profile`, and
non-conjunctive queries run on the incremental :mod:`repro.smt.session`
rather than a throwaway :class:`Solver`.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from . import lia
from .cnf import AtomTable, nnf_of, rewrite_to_le, to_nnf, tseitin
from .linear import LinEq, LinExpr, LinLe, normalize_atom
from .profile import PROFILER
from .qcache import (
    SAT_CACHE,
    alias_key,
    conjunction_idkey,
    literal_key,
    remember_alias,
    term_key,
)
from .sat import SAT, SatSolver
from .terms import (
    And,
    BoolConst,
    Cmp,
    FALSE,
    TRUE,
    Term,
    and_,
    free_vars,
    not_,
)

__all__ = [
    "SmtResult",
    "Solver",
    "ConjunctionContext",
    "is_sat",
    "is_valid",
    "entails",
    "equivalent",
    "get_model",
    "is_sat_conjunction",
    "conjunction_constraints",
]


class SmtResult:
    """Outcome of a satisfiability query."""

    __slots__ = ("status", "model")

    def __init__(self, status: str, model: dict[str, int] | None = None):
        self.status = status
        self.model = model

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    def __repr__(self):
        return f"SmtResult({self.status}, model={self.model})"


#: Safety valve on the number of lazy refinement rounds.
MAX_THEORY_ROUNDS = 10_000


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


# ---------------------------------------------------------------------------
# Convenience API
# ---------------------------------------------------------------------------


def is_sat(formula: Term) -> bool:
    """Is the formula satisfiable over the integers?"""
    conj = _try_conjunction(formula)
    if conj is not None:
        return is_sat_conjunction(conj)
    return _is_sat_general(formula)


def _is_sat_general(formula: Term) -> bool:
    """Cached, session-backed satisfiability for disjunctive formulas."""
    t0 = time.perf_counter()
    nnf = nnf_of(formula)
    if isinstance(nnf, BoolConst):
        PROFILER.record(nnf.value, time.perf_counter() - t0)
        return nnf.value
    key = term_key(nnf)
    cached = SAT_CACHE.lookup(key)
    if cached is not None:
        PROFILER.record(cached, time.perf_counter() - t0, cache_hit=True)
        return cached
    from .session import default_session

    session = default_session()
    before = session.stats.theory_conflicts
    verdict = session.check_nnf(nnf, formula).is_sat
    SAT_CACHE.store(key, verdict)
    PROFILER.record(
        verdict,
        time.perf_counter() - t0,
        theory_conflicts=session.stats.theory_conflicts - before,
    )
    return verdict


def get_model(formula: Term) -> dict[str, int] | None:
    """A satisfying integer assignment, or None when unsat."""
    from .session import default_session

    result = default_session().check(formula)
    return result.model if result.is_sat else None


def is_valid(formula: Term) -> bool:
    """Is the formula true under every integer assignment?

    Routed through the shared cache with a negation-aware key: the
    canonical key of ``not formula`` is computed on its negation normal
    form, so a prior ``is_sat`` result for the negation is reused here
    (and vice versa) instead of building a fresh solver.
    """
    return not is_sat(not_(formula))


def entails(antecedent: Term, consequent: Term) -> bool:
    """Does ``antecedent`` entail ``consequent``?

    Shares cache entries with any prior satisfiability query of the
    canonically equal formula ``antecedent and not consequent``.
    """
    return not is_sat(and_(antecedent, not_(consequent)))


def equivalent(a: Term, b: Term) -> bool:
    """Are two formulas equivalent over the integers?"""
    return entails(a, b) and entails(b, a)


# ---------------------------------------------------------------------------
# Conjunction fast path
# ---------------------------------------------------------------------------


def _try_conjunction(formula: Term) -> list[Term] | None:
    """Flatten into a list of possibly-negated atoms, or None if disjunctive."""
    from .terms import Not

    literals: list[Term] = []
    stack = [formula]
    while stack:
        t = stack.pop()
        if isinstance(t, And):
            stack.extend(t.args)
        elif isinstance(t, BoolConst):
            if not t.value:
                return [FALSE]
        elif isinstance(t, Cmp):
            literals.append(t)
        elif isinstance(t, Not) and isinstance(t.arg, Cmp):
            literals.append(t)
        else:
            return None
    return literals


def conjunction_constraints(literals: Iterable[Term]) -> list[list[LinLe | LinEq]]:
    """Convert literals into constraint alternatives.

    Returns a list of disjunctive *branches*; each branch is a conjunction of
    constraints.  Most literals contribute to every branch; a disequality
    doubles the branch count.  (Branch count is exponential in the number of
    disequalities, which stays tiny in practice.)
    """
    from .terms import Not

    branches: list[list[LinLe | LinEq]] = [[]]
    for lit in literals:
        if lit == TRUE:
            continue
        if lit == FALSE:
            return []
        negated = False
        atom = lit
        if isinstance(lit, Not):
            negated = True
            atom = lit.arg
        parts = normalize_atom(atom, negated=negated)
        for part in parts:
            if isinstance(part, tuple):  # disjunction of two LinLe
                new_branches = []
                for br in branches:
                    new_branches.append(br + [part[0]])
                    new_branches.append(br + [part[1]])
                branches = new_branches
            else:
                for br in branches:
                    br.append(part)
    return branches


def clear_conjunction_cache() -> None:
    """Drop every memoized verdict (now the unified, bounded cache)."""
    SAT_CACHE.clear()


def is_sat_conjunction(literals: Sequence[Term]) -> bool:
    """Satisfiability of a conjunction of (possibly negated) atoms.

    This is the hot path for predicate-abstraction queries: no CNF, no SAT
    engine, just the LIA procedure with *lazy* disequality splitting -- a
    disequality is split into its two strict branches only when the current
    model violates it, avoiding the eager 2^d product.

    Verdicts are memoized in the shared LRU cache under the canonical
    constraint key, so permutations and equivalent spellings of the same
    region hit the same entry, across every caller in the process.
    """
    t0 = time.perf_counter()
    # A previously seen conjunction resolves its canonical string key
    # through the compact intern-id alias instead of re-normalizing every
    # literal.  The alias is a pure memo: exactly one SAT_CACHE lookup
    # happens either way, so it never moves the cache counters.
    idkey = conjunction_idkey(literals)
    key = alias_key(idkey) if idkey is not None else None
    if key is None:
        keys: set[str] = set()
        base: list[LinLe | LinEq] = []
        diseqs: list[tuple[LinLe, LinLe]] = []
        for lit in literals:
            if lit == TRUE:
                continue
            if lit == FALSE:
                PROFILER.record(False, time.perf_counter() - t0)
                return False
            ks, parts = literal_key(lit)
            if keys.issuperset(ks):
                continue  # canonically duplicate literal
            keys.update(ks)
            for part in parts:
                if isinstance(part, tuple):
                    diseqs.append(part)
                else:
                    base.append(part)
        key = tuple(sorted(keys))
        if idkey is not None:
            # FALSE conjunctions returned above, so an aliased id key
            # always denotes a normalizable conjunction.
            remember_alias(idkey, key)
        cached = SAT_CACHE.lookup(key)
        if cached is not None:
            PROFILER.record(cached, time.perf_counter() - t0, cache_hit=True)
            return cached
        result = _sat_with_diseqs(base, diseqs)
        SAT_CACHE.store(key, result)
        PROFILER.record(result, time.perf_counter() - t0)
        return result
    cached = SAT_CACHE.lookup(key)
    if cached is not None:
        PROFILER.record(cached, time.perf_counter() - t0, cache_hit=True)
        return cached
    # Alias hit but the verdict was evicted: rebuild the constraints and
    # store under the same key without a second lookup.
    base = []
    diseqs = []
    keys = set()
    for lit in literals:
        if lit == TRUE:
            continue
        ks, parts = literal_key(lit)
        if keys.issuperset(ks):
            continue
        keys.update(ks)
        for part in parts:
            if isinstance(part, tuple):
                diseqs.append(part)
            else:
                base.append(part)
    result = _sat_with_diseqs(base, diseqs)
    SAT_CACHE.store(key, result)
    PROFILER.record(result, time.perf_counter() - t0)
    return result


class ConjunctionContext:
    """Repeated ``base and literal`` queries against one fixed conjunction.

    The cartesian predicate abstractor probes every predicate (and its
    negation) against the same region: the base literals are identical
    across the whole sweep.  This context canonicalizes the base once and
    memoizes each query literal's canonical key, so a repeated literal
    costs one dict hit and one :data:`SAT_CACHE` lookup.

    Observable behavior is *identical* to calling
    ``is_sat_conjunction(base + [lit])``: same canonical cache key, one
    :data:`SAT_CACHE` lookup and at most one store per query, one
    profiler record -- so cache statistics and stage query counts are
    the same either way.  A cache miss solves ``base + lit`` from
    scratch, exactly as :func:`is_sat_conjunction` would.
    """

    __slots__ = ("_false", "_keys", "_base_key", "_base", "_diseqs", "_key_memo")

    def __init__(self, base_literals: Sequence[Term]):
        self._false = False
        keys: set[str] = set()
        base: list[LinLe | LinEq] = []
        diseqs: list[tuple[LinLe, LinLe]] = []
        for lit in base_literals:
            if lit == TRUE:
                continue
            if lit == FALSE:
                self._false = True
                break
            ks, parts = literal_key(lit)
            if keys.issuperset(ks):
                continue
            keys.update(ks)
            for part in parts:
                if isinstance(part, tuple):
                    diseqs.append(part)
                else:
                    base.append(part)
        self._keys = keys
        self._base_key = tuple(sorted(keys))
        self._base = base
        self._diseqs = diseqs
        #: literal -> (canonical key, normalized extra parts); the
        #: lookup is a pointer-hash dict hit on interned terms.
        self._key_memo: dict[Term, tuple] = {}

    def query(self, lit: Term) -> bool:
        """Satisfiability of ``base and lit`` (cache-parity fast path)."""
        t0 = time.perf_counter()
        if self._false or lit == FALSE:
            PROFILER.record(False, time.perf_counter() - t0)
            return False
        entry = self._key_memo.get(lit)
        if entry is None:
            if lit == TRUE:
                ks: tuple[str, ...] = ()
                parts: tuple[object, ...] = ()
            else:
                ks, parts = literal_key(lit)
            if self._keys.issuperset(ks):
                entry = (self._base_key, ())
            else:
                entry = (tuple(sorted(self._keys.union(ks))), parts)
            self._key_memo[lit] = entry
        key, parts = entry
        cached = SAT_CACHE.lookup(key)
        if cached is not None:
            PROFILER.record(cached, time.perf_counter() - t0, cache_hit=True)
            return cached
        result = self._solve_miss(parts)
        SAT_CACHE.store(key, result)
        PROFILER.record(result, time.perf_counter() - t0)
        return result

    def _solve_miss(self, parts: tuple[object, ...]) -> bool:
        extras = [p for p in parts if not isinstance(p, tuple)]
        extra_diseqs = [p for p in parts if isinstance(p, tuple)]
        return _sat_with_diseqs(self._base + extras, self._diseqs + extra_diseqs)


class _ZeroDefault(dict):
    """A model that reads unassigned variables as 0."""

    def __missing__(self, key):
        return 0


def _sat_with_diseqs(
    base: list[LinLe | LinEq], diseqs: list[tuple[LinLe, LinLe]]
) -> bool:
    result = lia.solve_conjunction(base)
    if not result.is_sat:
        return False
    env = _ZeroDefault(result.model or {})
    for i, (lo, hi) in enumerate(diseqs):
        if not lo.holds(env) and not hi.holds(env):
            rest = diseqs[:i] + diseqs[i + 1 :]
            return _sat_with_diseqs(base + [lo], rest) or _sat_with_diseqs(
                base + [hi], rest
            )
    return True
