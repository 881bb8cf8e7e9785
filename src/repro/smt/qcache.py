"""Unified, bounded, instrumented SMT query cache with canonical keys.

One process-wide :class:`QueryCache` memoizes every satisfiability verdict
the verifier computes -- conjunction fast-path queries, full DPLL(T)
queries, and (through negation) validity and entailment checks.  Keys are
*canonical*: ``And``/``Or`` arguments are flattened, deduplicated, and
sorted, and every comparison atom is normalized through
:mod:`repro.smt.linear` into its canonical halfspace/hyperplane string, so
syntactically different spellings of the same query (``x <= 1`` vs
``x < 2``, permuted conjuncts, double negations) share one entry.

The canonical key of a literal or formula is a *string* (an s-expression
over normalized linear atoms).  Strings hash fast, compare fast, and --
unlike ``frozenset`` reprs -- serialize deterministically across
processes, which the persistent warm tier depends on: entries are spilled
to and reloaded from an artifact-cache entry that maps the SHA-256 of each
canonical key to its verdict, so a warm start can answer queries from a
previous process's run.

Eviction is LRU with hit/miss/eviction counters (:class:`LruCache` is
also reused by the predicate abstractor for its region memo).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Hashable, Sequence

from .linear import LinEq, LinExpr, LinLe, normalize_atom
from .terms import And, BoolConst, Cmp, Not, Or, Term

__all__ = [
    "LruCache",
    "QueryCache",
    "SAT_CACHE",
    "literal_key",
    "conjunction_key",
    "conjunction_idkey",
    "alias_key",
    "remember_alias",
    "term_key",
    "key_digest",
]

#: Bump when the canonical key scheme or persisted format changes.  The
#: persistent tier's cache entry is keyed by it, so a new scheme
#: addresses a fresh entry.
QCACHE_FORMAT = "smt-qcache-v1"

#: The artifact-cache namespace of the persistent tier.
TIER_NAMESPACE = "smt"

#: Default bound on the shared verdict cache.
DEFAULT_MAXSIZE = 65_536

#: Safety bound on the per-literal canonicalization memos.
_MEMO_LIMIT = 200_000


class LruCache:
    """A bounded mapping with least-recently-used eviction and counters."""

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def pop(self, key: Hashable, default: Any = None) -> Any:
        return self._data.pop(key, default)

    def keys(self):
        return self._data.keys()

    def items(self):
        return self._data.items()

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------


def _expr_str(expr: LinExpr) -> str:
    """Deterministic rendering of a linear expression."""
    parts = [
        f"{expr.coeffs[name]}*{name}" for name in sorted(expr.coeffs)
    ]
    parts.append(str(expr.const))
    return "+".join(parts)


def _part_key(part: object) -> str:
    """Canonical key of one normalized constraint (or disequality pair)."""
    if isinstance(part, LinLe):
        return f"le({_expr_str(part.expr)})"
    if isinstance(part, LinEq):
        # An equality is direction-free: e == 0 and -e == 0 coincide.
        a, b = _expr_str(part.expr), _expr_str(-part.expr)
        return f"eq({min(a, b)})"
    if isinstance(part, tuple):  # disequality: disjunction of two LinLe
        a, b = _expr_str(part[0].expr), _expr_str(part[1].expr)
        if a > b:
            a, b = b, a
        return f"ne({a}|{b})"
    raise TypeError(f"unknown constraint part {part!r}")


#: Memo: literal Term -> (sorted part-key strings, normalized parts).
_literal_memo: dict[Term, tuple[tuple[str, ...], tuple[object, ...]]] = {}

#: Memo: NNF formula Term -> canonical key string.
_term_memo: dict[Term, str] = {}


def _memo_guard(memo: dict) -> None:
    if len(memo) > _MEMO_LIMIT:
        memo.clear()


def literal_key(lit: Term) -> tuple[tuple[str, ...], tuple[object, ...]]:
    """Canonicalize one (possibly negated) comparison literal.

    Returns ``(keys, parts)``: the canonical key string of each normalized
    constraint the literal contributes, plus the constraints themselves
    (so callers solve exactly what they keyed on).
    """
    cached = _literal_memo.get(lit)
    if cached is not None:
        return cached
    negated = isinstance(lit, Not)
    atom = lit.arg if negated else lit
    parts = tuple(normalize_atom(atom, negated=negated))
    keys = tuple(sorted(_part_key(p) for p in parts))
    _memo_guard(_literal_memo)
    _literal_memo[lit] = (keys, parts)
    return keys, parts


# -- canonical-id alias tier --------------------------------------------------
#
# A conjunction of interned literals is identified by the tuple of its
# members' intern ids -- a handful of small ints instead of re-deriving and
# sorting the normalized s-expression strings per literal.  The alias tier
# maps that compact id key to the canonical *string* key it was first
# resolved to, so repeat queries skip the normalization entirely while the
# persistent warm tier keeps its process-independent string keys.
#
# The tier is a plain memo of a deterministic computation: it never touches
# the verdict cache's hit/miss counters, and a conjunction holding a literal
# from an older intern generation bypasses it completely.

#: (intern generation, sorted intern-id tuple) -> canonical string key.
_alias_memo: dict[tuple, tuple[str, ...]] = {}


def conjunction_idkey(literals: Sequence[Term]) -> tuple | None:
    """Compact intern-id key of a literal conjunction, or None.

    Returns ``None`` when any literal was interned before the last
    :func:`~repro.smt.terms.clear_intern_table`, in which case callers
    fall back to the string path unconditionally.
    """
    from .terms import intern_generation

    gen = intern_generation()
    tids = set()
    for lit in literals:
        if lit._gen != gen:
            return None
        tids.add(lit._tid)
    return (gen, tuple(sorted(tids)))


def alias_key(idkey: tuple) -> tuple[str, ...] | None:
    """The canonical string key previously remembered for ``idkey``."""
    return _alias_memo.get(idkey)


def remember_alias(idkey: tuple, key: tuple[str, ...]) -> None:
    _memo_guard(_alias_memo)
    _alias_memo[idkey] = key


def conjunction_key(literals: Sequence[Term]) -> tuple[str, ...]:
    """Canonical key of a conjunction of literals (order-insensitive)."""
    keys: set[str] = set()
    for lit in literals:
        ks, _ = literal_key(lit)
        keys.update(ks)
    return tuple(sorted(keys))


def term_key(t: Term) -> str:
    """Canonical key of an NNF formula over comparison atoms.

    Intended for the output of ``to_nnf(rewrite_to_le(f))``: atoms, And,
    Or, and boolean constants.  And/Or children are deduplicated and
    sorted, so the key is invariant under permutation and flattening --
    and since negation is pushed into the atoms before keying, the key of
    ``not f`` is itself canonical, which is what makes ``is_valid`` and
    ``entails`` share entries with prior ``is_sat`` queries.
    """
    cached = _term_memo.get(t)
    if cached is not None:
        return cached
    if isinstance(t, BoolConst):
        return "true" if t.value else "false"
    if isinstance(t, Cmp):
        ks, _ = literal_key(t)
        key = ks[0] if len(ks) == 1 else "(and " + " ".join(ks) + ")"
    elif isinstance(t, Not) and isinstance(t.arg, Cmp):
        ks, _ = literal_key(t)
        key = ks[0] if len(ks) == 1 else "(and " + " ".join(ks) + ")"
    elif isinstance(t, (And, Or)):
        tag = "and" if isinstance(t, And) else "or"
        kids = sorted({term_key(a) for a in t.args})
        key = f"({tag} " + " ".join(kids) + ")"
    else:
        raise TypeError(f"term_key expects an NNF formula, got {t!r}")
    _memo_guard(_term_memo)
    _term_memo[t] = key
    return key


def key_digest(key: str | tuple[str, ...]) -> str:
    """Stable digest of a canonical key, for the persistent tier."""
    blob = key if isinstance(key, str) else "\x1f".join(key)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The shared verdict cache
# ---------------------------------------------------------------------------


class QueryCache:
    """Bounded verdict cache with an optional persistent warm tier.

    The primary tier maps canonical keys to boolean sat verdicts with LRU
    eviction.  The warm tier maps key *digests* to verdicts loaded from a
    previous run (:meth:`load`); it is consulted only on a primary miss
    (one SHA-256 on a path that would otherwise run the LIA solver) and
    hits are promoted into the primary tier.

    The tier persists as one blob of an artifact cache
    (:class:`~repro.engine.cache.ArtifactCache`), which :meth:`load`,
    :meth:`save` and autosave take by duck typing: any object with
    ``get_blob`` and ``merge_blob`` will do, so this package imports
    nothing from the engine.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        self._lru = LruCache(maxsize)
        self._warm: dict[str, bool] = {}
        self.warm_hits = 0
        self.enabled = True
        # Long-lived processes (the serve daemon) mutate the cache from
        # worker threads and spill it periodically; the lock keeps
        # save()'s iteration over the LRU safe against concurrent puts.
        self._lock = threading.RLock()
        self._autosave_cache = None
        self._autosave_every = 0
        self._stores_since_flush = 0
        self.autosave_flushes = 0

    def lookup(self, key: str | tuple[str, ...]) -> bool | None:
        if not self.enabled:
            return None
        with self._lock:
            verdict = self._lru.get(key)
            if verdict is not None:
                return verdict
            if self._warm:
                verdict = self._warm.get(key_digest(key))
                if verdict is not None:
                    self.warm_hits += 1
                    self._lru.put(key, verdict)
                    return verdict
        return None

    def store(self, key: str | tuple[str, ...], verdict: bool) -> None:
        if not self.enabled:
            return
        flush_now = False
        with self._lock:
            self._lru.put(key, bool(verdict))
            if self._autosave_cache is not None:
                self._stores_since_flush += 1
                if self._stores_since_flush >= self._autosave_every:
                    flush_now = True
        if flush_now:
            self.flush()

    # -- incremental spill ---------------------------------------------------

    def set_autosave(self, cache, every: int = 512) -> None:
        """Spill the warm tier into ``cache`` every ``every`` stores.

        The original persistence contract spilled only at process exit,
        so a crashed or SIGKILLed daemon lost its entire warm tier.  With
        autosave configured, :meth:`store` counts insertions and flushes
        the tier incrementally; ``cache=None`` disables autosave again.
        """
        with self._lock:
            self._autosave_cache = cache
            self._autosave_every = max(1, int(every))
            self._stores_since_flush = 0

    def flush(self) -> int:
        """Force a spill into the autosave cache now; returns the entries
        of the merged tier (0 when autosave is off)."""
        with self._lock:
            cache = self._autosave_cache
            self._stores_since_flush = 0
        if cache is None:
            return 0
        written = self.save(cache)
        if written:
            self.autosave_flushes += 1
        return written

    def clear(self) -> None:
        """Drop both tiers (used by tests and cold benchmark runs)."""
        with self._lock:
            self._lru.clear()
            self._warm.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> dict[str, int]:
        with self._lock:
            out = self._lru.stats()
            out["warm_hits"] = self.warm_hits
            out["warm_size"] = len(self._warm)
            out["autosave_flushes"] = self.autosave_flushes
        return out

    # -- persistence ---------------------------------------------------------

    def save(self, cache) -> int:
        """Merge this process's tier into ``cache``'s tier entry.

        The save is the cache's one read-merge-write
        (:meth:`~repro.engine.cache.ArtifactCache.merge_blob`): whatever
        other writers persisted meanwhile is re-read under a lock and our
        entries are folded on top (verdicts are deterministic, so a key
        collision is always an agreement).  An entry that already holds
        every entry, with the same verdict, is left as it is: a batch
        answered from the artifact cache has nothing new to publish.
        Returns the number of entries in the merged tier; a failed write
        never raises past a return of 0.
        """
        with self._lock:
            entries = dict(self._warm)
            for key, verdict in self._lru.items():
                entries[key_digest(key)] = bool(verdict)
        try:
            merged = cache.merge_blob(
                TIER_NAMESPACE,
                QCACHE_FORMAT,
                lambda stored: {**(stored or {}), **entries},
            )
        except OSError:
            return 0
        return len(merged)

    def load(self, cache) -> int:
        """Warm-start from ``cache``'s tier entry; returns entries loaded.

        A missing entry, or one the cache quarantines as corrupt, loads
        nothing: the warm tier is an accelerator, never a correctness
        dependency.
        """
        entries = cache.get_blob(TIER_NAMESPACE, QCACHE_FORMAT) or {}
        with self._lock:
            self._warm.update(entries)
        return len(entries)


#: The process-wide verdict cache every solver entry point shares.
SAT_CACHE = QueryCache()
