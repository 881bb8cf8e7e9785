"""Persistent ARG store: reuse across CIRC iterations and restarts.

Every CIRC inner iteration (context weakening) and every ``(P, k)``
refinement restart re-explores an abstract state space that is mostly
identical to the previous one -- the outer loop is monotone.  The
:class:`ArgStore` survives across iterations of one ``circ()`` call (or
across calls, when the caller passes one in) and memoizes the units of
work whose keys are *context-independent*, so reuse is exact:

* **main-thread posts** keyed by ``(region, op)`` -- the abstract post of
  a CFA operation does not depend on the context at all;
* **context posts** keyed by ``(region, src_label, havoc, dst_label)`` --
  ACFA location labels are term tuples that recur across collapsed
  contexts, so when Collapse replaces context ``A`` with a weaker ``A'``,
  every move whose labels survived the weakening is served from the memo
  (this is the context-weakening reuse: the re-explored "kept" subtree
  costs hash lookups, and fresh SMT work happens only on the boundary
  where weakened labels produce new keys);
* **omega goodness** keyed by ``(location label, havoc, target label)``
  and **context-only reachability** keyed by the ACFA signature -- the
  omega check re-proves only changed locations;
* **collapse quotients** keyed by the ARG signature;
* whole **reachability results** keyed by the full input signature
  ``(mode, P, k, ACFA, flags)`` -- an identical inner iteration (engine
  warm restarts, repeated queries against one store) is answered without
  exploring at all.

**Subtree invalidation.**  On predicate refinement ``P -> P ∪ NP`` the
cartesian domain upgrades exactly: region literal sets keep their indices
(:meth:`PredicateSet.extended`), and ``Abs_{P∪NP}(φ) = Abs_P(φ) ∪ Δ``
where ``Δ`` holds literals over ``NP`` only.  A memoized post whose key
formulas share no variables with the support of ``NP`` has ``Δ = ∅`` --
neither a new predicate nor its negation is implied by a formula over
disjoint variables (both conjunctions stay satisfiable) -- so the entry
is *kept* and remains the exact abstraction under the extended set.
Entries whose support intersects ``NP`` are invalidated and recomputed
on demand if (and only if) the refined exploration reaches them again.
Nodes are therefore kept iff untouched by the new predicates; the
re-seeded worklist pays SMT only below the refined frontier.

Every memo value is a pure function of its key, so exploring through
the store computes exactly what recomputing every post would.  The
evidence is semantic: the differential fuzzer's explicit-state oracle,
replayed witnesses, and a property test that checks recorded supports
and invalidation against structural walks.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Optional, Sequence

from ..acfa.acfa import Acfa, acfa_signature
from ..cfa.cfa import CFA, Op
from ..predabs.abstractor import Abstractor
from ..predabs.region import PredicateSet, Region
from ..smt import terms as T
from ..smt.qcache import LruCache

__all__ = ["ArgStore", "acfa_signature"]

#: Bound on each post memo (entries are small: a key tuple and a Region).
POST_MEMO_SIZE = 65_536

#: Bound on the whole-result memo (entries hold full ReachResults).
RESULT_MEMO_SIZE = 256


def _terms_vars(terms: Iterable[T.Term]) -> frozenset[str]:
    out: set[str] = set()
    for t in terms:
        out.update(T.free_vars(t))
    return frozenset(out)


class ArgStore:
    """Cross-iteration reuse store for the incremental reachability loop.

    One store serves one CFA: binding a different CFA object resets every
    memo (the engine keeps reuse *counters* and digests in artifacts, not
    the store itself, so sharing across programs is never attempted).
    """

    def __init__(self) -> None:
        self._cfa: Optional[CFA] = None
        self._abstractor: Optional[Abstractor] = None
        # (region, op) -> (post region, support vars)
        self._main_post = LruCache(POST_MEMO_SIZE)
        # (region, src_label, havoc, dst_label) -> (post region, support)
        self._ctx_post = LruCache(POST_MEMO_SIZE)
        # full input signature -> ('ok', ReachResult) | ('race', trace, state)
        self._results = LruCache(RESULT_MEMO_SIZE)
        # (label_n, havoc, dst_label) -> bool  (omega goodness; pure in key)
        self._omega_good = LruCache(POST_MEMO_SIZE)
        # (acfa sig, init, k, budget) -> omega-check enabled (src, main) pairs
        self._ctx_reach: dict = {}
        # (arg sig, locals, name) -> (quotient acfa, mu)
        self._collapse: dict = {}
        self.counters: dict[str, int] = {
            "main_post_hits": 0,
            "main_post_misses": 0,
            "ctx_post_hits": 0,
            "ctx_post_misses": 0,
            "result_hits": 0,
            "result_misses": 0,
            "omega_hits": 0,
            "omega_misses": 0,
            "ctx_reach_hits": 0,
            "ctx_reach_misses": 0,
            "collapse_hits": 0,
            "collapse_misses": 0,
            "entries_kept": 0,
            "entries_invalidated": 0,
            "abstractor_extensions": 0,
            "abstractor_rebuilds": 0,
        }

    # -- lifecycle ---------------------------------------------------------------

    def reset(self) -> None:
        """Drop every memo (counters survive: they describe the session)."""
        self._abstractor = None
        self._main_post.clear()
        self._ctx_post.clear()
        self._results.clear()
        self._omega_good.clear()
        self._ctx_reach.clear()
        self._collapse.clear()

    def bind_cfa(self, cfa: CFA) -> None:
        if self._cfa is cfa:
            return
        if self._cfa is not None:
            self.reset()
        self._cfa = cfa

    # -- the persistent abstractor -------------------------------------------------

    def abstractor_for(self, preds: PredicateSet, mode: str) -> Abstractor:
        """The store's abstractor, upgraded in place for ``preds``.

        Three cases: same predicates -> reuse as is; current predicates a
        prefix of ``preds`` in cartesian mode -> extend incrementally,
        invalidating only post entries whose support meets the new
        predicates; anything else -> rebuild from scratch.
        """
        cur = self._abstractor
        if cur is not None and cur.mode == mode:
            if cur.preds == preds:
                return cur
            if mode == "cartesian" and self._is_prefix(cur.preds, preds):
                new_preds = [
                    preds[i] for i in range(len(cur.preds), len(preds))
                ]
                self._invalidate_for_predicates(new_preds)
                cur.extend(preds)
                self.counters["abstractor_extensions"] += 1
                return cur
        self._abstractor = Abstractor(preds, mode=mode)
        self._main_post.clear()
        self._ctx_post.clear()
        self.counters["abstractor_rebuilds"] += 1
        return self._abstractor

    @staticmethod
    def _is_prefix(old: PredicateSet, new: PredicateSet) -> bool:
        return len(old) <= len(new) and all(
            old[i] is new[i] or old[i] == new[i] for i in range(len(old))
        )

    def _invalidate_for_predicates(self, new_preds: Sequence[T.Term]) -> None:
        """Subtree invalidation: drop post entries touched by ``new_preds``.

        An entry is *touched* when the variables of its key formulas
        intersect the support of some new predicate; only touched entries
        can gain a delta literal under the extended predicate set, so
        untouched entries stay exact and are kept.  Degenerate new
        predicates (valid or unsatisfiable on their own) would add a
        literal even to untouched entries, so they force a full drop --
        the refiner filters them with the same check
        (:func:`repro.circ.refine.is_degenerate`), making this the rare
        path (callers extending a predicate set by hand).
        """
        from ..circ.refine import is_degenerate

        if not new_preds:
            return
        for p in new_preds:
            if is_degenerate(p):
                invalidated = len(self._main_post) + len(self._ctx_post)
                self._main_post.clear()
                self._ctx_post.clear()
                self._results.clear()
                self.counters["entries_invalidated"] += invalidated
                return
        support = _terms_vars(new_preds)
        for memo in (self._main_post, self._ctx_post):
            doomed = [
                key
                for key, (_, entry_vars) in memo.items()
                if entry_vars & support
            ]
            for key in doomed:
                memo.pop(key)
            self.counters["entries_invalidated"] += len(doomed)
            self.counters["entries_kept"] += len(memo)
        # Whole-result entries are keyed by the predicate set, so old
        # results stay valid for old queries; nothing to drop.

    # -- post memos ----------------------------------------------------------------

    def post_main(
        self, abstractor: Abstractor, region: Region, op: Op
    ) -> Region:
        """Memoized ``Abs.P(sp(region, op))``; exact under invalidation."""
        key = (region, op)
        hit = self._main_post.get(key)
        if hit is not None:
            self.counters["main_post_hits"] += 1
            return hit[0]
        self.counters["main_post_misses"] += 1
        post = abstractor.post_op(region, op)
        support = self._region_vars(region, abstractor.preds) | op.reads() | op.writes()
        self._main_post.put(key, (post, frozenset(support)))
        return post

    def post_havoc(
        self,
        abstractor: Abstractor,
        region: Region,
        havoc: frozenset[str],
        dst_label: tuple[T.Term, ...],
        src_label: tuple[T.Term, ...],
    ) -> Region:
        """Memoized context-move post.

        The key mentions only the *labels*, not the ACFA or its location
        numbering -- labels recur across collapsed contexts, which is what
        makes the memo survive context weakening.
        """
        key = (region, src_label, havoc, dst_label)
        hit = self._ctx_post.get(key)
        if hit is not None:
            self.counters["ctx_post_hits"] += 1
            return hit[0]
        self.counters["ctx_post_misses"] += 1
        post = abstractor.post_havoc(
            region, havoc, dst_label, source_label=src_label
        )
        support = (
            self._region_vars(region, abstractor.preds)
            | _terms_vars(src_label)
            | _terms_vars(dst_label)
        )
        self._ctx_post.put(key, (post, frozenset(support)))
        return post

    @staticmethod
    def _region_vars(region: Region, preds: PredicateSet) -> frozenset[str]:
        if region.is_bottom():
            return frozenset()
        out: set[str] = set()
        for idx, _ in region.literals:
            out.update(preds.support(idx))
        return frozenset(out)

    # -- whole-result memo -----------------------------------------------------------

    def lookup_result(self, sig: tuple):
        hit = self._results.get(sig)
        if hit is not None:
            self.counters["result_hits"] += 1
        else:
            self.counters["result_misses"] += 1
        return hit

    def store_result(self, sig: tuple, value: tuple) -> None:
        self._results.put(sig, value)

    # -- omega memos -------------------------------------------------------------------

    def omega_good(
        self,
        label_n: tuple[T.Term, ...],
        havoc: frozenset[str],
        dst_label: tuple[T.Term, ...],
        compute: Callable[[], bool],
    ) -> bool:
        key = (label_n, havoc, dst_label)
        hit = self._omega_good.get(key)
        if hit is not None:
            self.counters["omega_hits"] += 1
            return hit
        self.counters["omega_misses"] += 1
        good = compute()
        self._omega_good.put(key, good)
        return good

    def context_reach(self, key: tuple, compute: Callable[[], object]):
        if key in self._ctx_reach:
            self.counters["ctx_reach_hits"] += 1
            return self._ctx_reach[key]
        self.counters["ctx_reach_misses"] += 1
        value = compute()
        self._ctx_reach[key] = value
        return value

    # -- collapse memo ---------------------------------------------------------------------

    def collapse_quotient(
        self, graph: Acfa, locals_: Iterable[str], name: str = "context"
    ):
        """Memoized weak-bisimulation quotient of an ARG."""
        from ..acfa.collapse import collapse, quotient_key

        key = quotient_key(graph, locals_, name)
        if key in self._collapse:
            self.counters["collapse_hits"] += 1
            return self._collapse[key]
        self.counters["collapse_misses"] += 1
        value = collapse(graph, locals_, name=name)
        self._collapse[key] = value
        return value

    # -- reporting -----------------------------------------------------------------------------

    def approx_entries(self) -> int:
        """Total live memo entries across every tier.

        The serve daemon keeps many hot stores and needs a cheap,
        comparable size signal to enforce its memory ceiling; entry
        counts are proportional to retained regions/results and avoid
        walking object graphs.
        """
        return (
            len(self._main_post)
            + len(self._ctx_post)
            + len(self._results)
            + len(self._omega_good)
            + len(self._ctx_reach)
            + len(self._collapse)
        )

    def reuse_stats(self) -> dict[str, int]:
        """Counters plus current memo sizes, for ``--stats`` and artifacts."""
        out = dict(self.counters)
        out["main_post_size"] = len(self._main_post)
        out["ctx_post_size"] = len(self._ctx_post)
        out["result_size"] = len(self._results)
        out["omega_size"] = len(self._omega_good)
        return out

    def digest(self) -> str:
        """A stable digest of the store's result-memo keys.

        Persisted in engine artifacts next to the reuse counters so a
        warm start can tell whether two runs drew on the same exploration
        history without serializing the store itself.
        """
        h = hashlib.sha256()
        for sig in sorted(repr(k) for k in self._results.keys()):
            h.update(sig.encode())
            h.update(b"\x1f")
        h.update(str(len(self._main_post)).encode())
        h.update(str(len(self._ctx_post)).encode())
        return h.hexdigest()[:16]
