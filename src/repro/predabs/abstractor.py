"""The ``Abs.P`` operator and abstract post for thread and context moves.

``Abstractor`` answers the two queries the abstract reachability of
Section 3.4 needs:

* ``post_op``: the abstract successor region of a main-thread CFA operation,
  ``Abs.P(sp(region, op))`` -- the strongest postcondition in the chosen
  predicate domain;
* ``post_havoc``: the abstract successor region of a context ACFA move,
  ``Abs.P((exists Y. region and r(src)) and r(dst))`` -- labels act at move
  time (see DESIGN.md section 5 for the soundness discussion).

Existential quantification over the havoced globals is exact: the variables
are renamed to fresh symbols, which a satisfiability query treats as free.
Queries go through the SMT conjunction fast path and are memoized, since
the same (region, operation) pairs recur heavily during fixpoint iteration.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..cfa.cfa import Op
from ..cfa.ops import sp
from ..smt import terms as T
from ..smt.profile import stage
from ..smt.qcache import LruCache
from ..smt.solver import ConjunctionContext, is_sat, is_sat_conjunction
from .region import BOTTOM, PredicateSet, Region

__all__ = ["Abstractor"]

#: Suffix for renamed (existentially projected) variables.
_HAVOC_SUFFIX = "__h"
_OLD_SUFFIX = "__old"


def _flatten_conjunction(parts: Sequence[T.Term]):
    """Flatten formulas into a literal list for the conjunction fast path.

    Returns the literals, ``False`` if a part contains an unsatisfiable
    constant, or ``None`` when some part is not conjunctive.
    """
    literals: list[T.Term] = []
    for part in parts:
        stack = [part]
        while stack:
            t = stack.pop()
            if isinstance(t, T.And):
                stack.extend(t.args)
            elif isinstance(t, T.Cmp) or (
                isinstance(t, T.Not) and isinstance(t.arg, T.Cmp)
            ):
                literals.append(t)
            elif isinstance(t, T.BoolConst):
                if not t.value:
                    return False
            else:
                return None
    return literals


def _query_sat(parts: Sequence[T.Term]) -> bool:
    """Satisfiability of a conjunction of formulas (not just literals)."""
    literals = _flatten_conjunction(parts)
    if literals is False:
        return False
    if literals is None:
        return is_sat(T.and_(*parts))
    return is_sat_conjunction(literals)


class Abstractor:
    """Predicate abstraction engine over a fixed predicate set.

    ``mode`` selects the abstract domain:

    * ``"cartesian"`` (default, BLAST's choice): regions are conjunctions
      of predicate literals -- each ``Abs.P`` costs at most 2|P| theory
      queries;
    * ``"boolean"`` (the paper's exact ``Abs.P``): regions are the
      smallest boolean combination over P, represented as a disjunction of
      full cubes enumerated with satisfiability pruning -- exponential in
      |P| in the worst case but exact.
    """

    #: Bound on the per-instance region memo (LRU, instrumented).
    CACHE_SIZE = 16_384

    def __init__(self, preds: PredicateSet, mode: str = "cartesian"):
        if mode not in ("cartesian", "boolean"):
            raise ValueError(f"unknown abstraction mode {mode!r}")
        self.preds = preds
        self.mode = mode
        self._cache: LruCache = LruCache(self.CACHE_SIZE)
        self.query_count = 0

    # -- the Abs.P operator ------------------------------------------------------

    def abstract(self, parts: Sequence[T.Term]) -> Region:
        """Strongest region of the selected domain implied by ``parts``."""
        key = ("abs", self.mode, tuple(parts))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self.query_count += 1
        with stage("predabs"):
            if not _query_sat(parts):
                self._cache.put(key, BOTTOM)
                return BOTTOM
            if self.mode == "boolean":
                region = self._abstract_boolean(parts)
            else:
                region = self._abstract_cartesian(parts)
        self._cache.put(key, region)
        return region

    # -- incremental predicate-set upgrade ---------------------------------------

    def extend(self, preds: PredicateSet) -> dict[str, int]:
        """Upgrade in place to the extended predicate set ``preds``.

        Requires the current predicates to be a prefix of ``preds`` (the
        refinement loop only ever appends, keeping region literal indices
        stable) and the cartesian domain, where the upgrade is exact:
        ``Abs_{P∪NP}(φ) = Abs_P(φ) ∪ Δ`` with ``Δ`` ranging over the new
        predicates only.  A memo entry whose key formulas share no
        variables with the new predicates has an empty ``Δ`` -- a formula
        over disjoint variables implies neither a (two-sided satisfiable)
        predicate nor its negation -- so it is kept verbatim; overlapping
        entries are evicted and recomputed on demand.  Bottom entries are
        always kept: an unsatisfiable conjunction stays unsatisfiable
        under more predicates.

        Returns ``{"kept": n, "evicted": m, "cleared": 0|1}``.
        """
        if self.mode != "cartesian":
            raise ValueError("extend() requires the cartesian domain")
        old_n = len(self.preds)
        if len(preds) < old_n or any(
            self.preds[i] != preds[i] for i in range(old_n)
        ):
            raise ValueError("extend() requires a predicate-set extension")
        new_preds = [preds[i] for i in range(old_n, len(preds))]
        self.preds = preds
        if not new_preds:
            return {"kept": len(self._cache), "evicted": 0, "cleared": 0}
        for p in new_preds:
            if not _query_sat([p]) or not _query_sat([T.not_(p)]):
                # A degenerate (valid or unsatisfiable) predicate adds a
                # literal to every non-bottom region: nothing survives.
                size = len(self._cache)
                self._cache.clear()
                return {"kept": 0, "evicted": size, "cleared": 1}
        support: set[str] = set()
        for p in new_preds:
            support.update(T.free_vars(p))
        doomed = []
        kept = 0
        for key, region in self._cache.items():
            if region.is_bottom():
                kept += 1
                continue
            parts_vars: set[str] = set()
            for part in key[2]:
                parts_vars.update(T.free_vars(part))
            if parts_vars & support:
                doomed.append(key)
            else:
                kept += 1
        for key in doomed:
            self._cache.pop(key)
        return {"kept": kept, "evicted": len(doomed), "cleared": 0}

    def _abstract_cartesian(self, parts: Sequence[T.Term]) -> Region:
        literals: set[tuple[int, bool]] = set()
        base = list(parts)
        # The whole sweep probes the same base conjunction: share one
        # ConjunctionContext so the base's canonical key and normalised
        # constraints are computed once instead of 2|P| times.  A cache
        # miss still solves base plus literal from scratch.  Observable
        # behavior (cache keys, hit counts, verdicts) is identical to the
        # per-query path.
        base_lits = _flatten_conjunction(base)
        ctx = (
            ConjunctionContext(base_lits)
            if isinstance(base_lits, list)
            else None
        )
        for idx, p in enumerate(self.preds):
            if ctx is not None and isinstance(p, T.Cmp):
                if not ctx.query(T.not_(p)):
                    literals.add((idx, True))
                elif not ctx.query(p):
                    literals.add((idx, False))
            elif not _query_sat(base + [T.not_(p)]):
                literals.add((idx, True))
            elif not _query_sat(base + [p]):
                literals.add((idx, False))
        return Region(frozenset(literals))

    def _abstract_boolean(self, parts: Sequence[T.Term]) -> Region:
        """Enumerate the consistent full cubes with unsat pruning."""
        from .region import BooleanRegion

        cubes: list[frozenset[tuple[int, bool]]] = []
        n = len(self.preds)

        def extend(idx: int, partial: list[tuple[int, bool]], terms: list[T.Term]):
            if idx == n:
                cubes.append(frozenset(partial))
                return
            p = self.preds[idx]
            for polarity, lit in ((True, p), (False, T.not_(p))):
                if _query_sat(terms + [lit]):
                    partial.append((idx, polarity))
                    terms.append(lit)
                    extend(idx + 1, partial, terms)
                    terms.pop()
                    partial.pop()

        extend(0, [], list(parts))
        if not cubes:
            return BOTTOM
        return BooleanRegion.from_cubes(cubes)

    # -- abstract post -------------------------------------------------------------

    def post_op(
        self, region: Region, op: Op, ctx_inv: Sequence[T.Term] = ()
    ) -> Region:
        """Abstract successor for a main-thread operation."""
        if region.is_bottom():
            return BOTTOM
        phi = region.formula(self.preds)
        post = sp(phi, op, fresh=_OLD_SUFFIX)
        return self.abstract([post, *ctx_inv])

    def post_havoc(
        self,
        region: Region,
        havoc: Iterable[str],
        target_label: Sequence[T.Term],
        source_label: Sequence[T.Term] = (),
    ) -> Region:
        """Abstract successor for a context ACFA move (havoc edge).

        The move is guarded by the source location's label (the paper's
        ACFA state space requires ``s |= r(s.pc)`` when the abstract thread
        transitions), the havoced globals are projected out, and the
        successor is constrained by the target label::

            Abs.P( (exists Y. region and r(src)) and r(dst) )

        A bottom result means the move is not enabled from this region.
        """
        if region.is_bottom():
            return BOTTOM
        phi = T.and_(region.formula(self.preds), *source_label)
        mapping = {v: T.var(v + _HAVOC_SUFFIX) for v in havoc}
        projected = T.substitute(phi, mapping)
        return self.abstract([projected, *target_label])

    def initial_region(self, init: dict[str, int], variables: Iterable[str]) -> Region:
        """Abstraction of the initial state (paper: all variables zero,
        except explicitly initialized globals)."""
        parts = [
            T.eq(T.var(v), T.num(init.get(v, 0))) for v in sorted(variables)
        ]
        return self.abstract(parts)
