"""SMT entry points for quantifier-free linear integer arithmetic.

The conjunction-level entry point the verifier uses on its hot paths
(:func:`is_sat_conjunction`) goes straight to the LIA conjunction
procedure (:mod:`repro.smt.lia`), bypassing the SAT engine entirely.
:func:`is_sat` (and so :func:`is_valid` and :func:`entails`) pushes
negations down to the comparison atoms first: a conjunction of literals
is one conjunction query, and a conjunction plus one clause of literals
is one conjunction query per disjunct.  Any other formula runs on the
incremental :mod:`repro.smt.session`, whose lazy DPLL(T) loop combines
the CDCL SAT solver (:mod:`repro.smt.sat`) with the LIA procedure.

Every verdict computed here is memoized in the shared, bounded
:data:`repro.smt.qcache.SAT_CACHE` under canonicalized keys, and every
query is attributed to its calling stage by :mod:`repro.smt.profile`.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from . import lia
from .cnf import nnf_of
from .linear import LinEq, LinLe
from .profile import PROFILER
from .qcache import (
    SAT_CACHE,
    alias_key,
    conjunction_idkey,
    literal_key,
    remember_alias,
    term_key,
)
from .terms import And, BoolConst, Cmp, FALSE, Not, Or, TRUE, Term, and_, not_

__all__ = [
    "SmtResult",
    "ConjunctionContext",
    "is_sat",
    "is_valid",
    "entails",
    "equivalent",
    "get_model",
    "is_sat_conjunction",
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


# ---------------------------------------------------------------------------
# Convenience API
# ---------------------------------------------------------------------------


def is_sat(formula: Term) -> bool:
    """Is the formula satisfiable over the integers?

    With negations pushed down to the comparison atoms, a conjunction of
    literals is one :func:`is_sat_conjunction` query, and a conjunction
    plus exactly one clause of literals is one query per disjunct (sat
    when any is), so no product of clauses is ever expanded.  Any other
    formula goes to the incremental session.
    """
    form = _clause_form(formula)
    if form is None:
        return _is_sat_general(formula)
    units, clause = form
    if clause is None:
        return is_sat_conjunction(units)
    return any(is_sat_conjunction(units + [lit]) for lit in clause)


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


def _clause_form(formula: Term) -> tuple[list[Term], list[Term] | None] | None:
    """``formula`` as unit literals and at most one clause of literals.

    Negations are pushed down to the comparison atoms, so ``!(a || b)``
    gives the units ``!a`` and ``!b``, and ``!(a && b)`` the clause
    ``!a || !b``.  None when the formula has a second disjunction, a
    disjunct that is not a literal, or a connective other than And, Or
    and Not.
    """
    units: list[Term] = []
    clause: list[Term] | None = None
    stack = [(formula, False)]
    while stack:
        t, negated = stack.pop()
        while isinstance(t, Not):
            t, negated = t.arg, not negated
        if isinstance(t, Cmp):
            units.append(Not(t) if negated else t)
        elif isinstance(t, BoolConst):
            if t.value == negated:
                return [FALSE], None
        elif isinstance(t, Or if negated else And):
            stack.extend((a, negated) for a in reversed(t.args))
        elif isinstance(t, And if negated else Or) and clause is None:
            # The clause negates a conjunction of literals: its dual.
            dual = _clause_form(t if negated else Not(t))
            if dual is None or dual[1] is not None:
                return None
            clause = [not_(lit) for lit in dual[0]]
        else:
            return None
    return units, clause


def clear_conjunction_cache() -> None:
    """Drop every memoized verdict (now the unified, bounded cache)."""
    SAT_CACHE.clear()


def _normalize(
    literals: Iterable[Term],
) -> tuple[set[str], list[LinLe | LinEq], list[tuple[LinLe, LinLe]]] | None:
    """Canonical keys, constraints and disequalities of a conjunction.

    ``TRUE`` and canonically duplicate literals contribute nothing; a
    ``FALSE`` literal makes the result ``None``.  Each disequality is the
    pair of strict halves :func:`~repro.smt.linear.normalize_atom` builds.
    """
    keys: set[str] = set()
    base: list[LinLe | LinEq] = []
    diseqs: list[tuple[LinLe, LinLe]] = []
    for lit in literals:
        if lit == TRUE:
            continue
        if lit == FALSE:
            return None
        ks, parts = literal_key(lit)
        if keys.issuperset(ks):
            continue  # canonically duplicate literal
        keys.update(ks)
        for part in parts:
            if isinstance(part, tuple):
                diseqs.append(part)
            else:
                base.append(part)
    return keys, base, diseqs


def is_sat_conjunction(literals: Sequence[Term]) -> bool:
    """Satisfiability of a conjunction of (possibly negated) atoms.

    This is the hot path for predicate-abstraction queries: no CNF, no SAT
    engine, just :func:`~repro.smt.lia.is_sat_with_diseqs`.  It substitutes
    away every equality with a +-1 coefficient, and when only disequalities
    over free variables are left it answers without a solve; anything else
    goes to Fourier-Motzkin, which splits a disequality into its two strict
    halves only when a model violates it.

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
    normal = None
    if key is None:
        normal = _normalize(literals)
        if normal is None:
            PROFILER.record(False, time.perf_counter() - t0)
            return False
        key = tuple(sorted(normal[0]))
        if idkey is not None:
            # FALSE conjunctions returned above, so an aliased id key
            # always denotes a normalizable conjunction.
            remember_alias(idkey, key)
    cached = SAT_CACHE.lookup(key)
    if cached is not None:
        PROFILER.record(cached, time.perf_counter() - t0, cache_hit=True)
        return cached
    if normal is None:
        # Alias hit but the verdict was evicted: rebuild the constraints
        # and store under the same key without a second lookup.
        normal = _normalize(literals)
    _, base, diseqs = normal
    result = lia.is_sat_with_diseqs(base, diseqs)
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
        normal = _normalize(base_literals)
        self._false = normal is None
        keys, base, diseqs = normal or (set(), [], [])
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
        return lia.is_sat_with_diseqs(self._base + extras, self._diseqs + extra_diseqs)
