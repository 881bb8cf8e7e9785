"""Process-wide hot verification state for the serve daemon.

One :class:`HotState` owns everything whose warmth the daemon exists to
preserve across requests:

* **Hot contexts** -- the lowered :class:`~repro.cfa.cfa.CFA` plus its
  persistent :class:`~repro.reach.store.ArgStore`, keyed by the SHA-256
  of ``(source, thread)``.  Each job rides into the scheduler carrying
  its program's context (:attr:`~repro.engine.planner.Job.cfa` and
  :attr:`~repro.engine.planner.Job.store`).  The store memoizes abstract
  posts, omega checks, and whole reachability results, so the later
  variables and options of a program already seen reuse the earlier
  jobs' exploration.  The store resets when bound to a *different CFA
  object*, which is exactly why the CFA is cached alongside it.
* **The artifact cache** every job is looked up in and published to.
* **The SMT query cache** (:data:`repro.smt.qcache.SAT_CACHE`): loaded
  from the artifact root's warm tier at startup and spilled back
  incrementally (every ``qcache_flush_every`` stores and on drain), so
  a crashed daemon loses at most one flush window.

Contexts are evicted least-recently-used under a configurable memory
ceiling.  Sizes are *estimated* -- walking real object graphs per job
would cost more than the memos are worth -- as a fixed budget per store
memo entry plus a base cost per lowered CFA; the point is a stable knob
that keeps a long-lived daemon's footprint bounded, not an accountant's
byte count.  A context whose store is mid-job (its lock is held) is
never evicted.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..cfa.cfa import CFA
from ..engine.cache import ArtifactCache
from ..engine.events import EventLog
from ..reach.store import ArgStore
from ..smt.qcache import SAT_CACHE

__all__ = ["HotContext", "HotState"]

#: Estimated bytes per ArgStore memo entry (regions are tuples of term
#: literals; whole-result entries are larger but rare) and per lowered
#: CFA.  Deliberately generous so the ceiling errs toward evicting.
BYTES_PER_ENTRY = 2_048
BYTES_PER_CONTEXT = 262_144


@dataclass
class HotContext:
    """One program's hot verification state."""

    key: str
    cfa: CFA
    store: ArgStore
    #: Serializes jobs on this context: the ArgStore (and the abstract
    #: exploration that feeds it) is not safe for concurrent mutation,
    #: so two jobs on the same program run one after the other while
    #: jobs on different programs overlap freely.
    lock: threading.Lock = field(default_factory=threading.Lock)

    def approx_bytes(self) -> int:
        return BYTES_PER_CONTEXT + self.store.approx_entries() * BYTES_PER_ENTRY


class HotState:
    """The daemon's shared caches plus the hot-context LRU."""

    def __init__(
        self,
        cache_dir: str | None = None,
        memory_mb: float = 512.0,
        qcache_flush_every: int = 256,
        events: EventLog | None = None,
    ):
        self.cache = (
            ArtifactCache(cache_dir) if cache_dir is not None else None
        )
        self.events = events or EventLog()
        self.memory_bytes = int(memory_mb * 1024 * 1024)
        self._contexts: OrderedDict[str, HotContext] = OrderedDict()
        self._mutex = threading.Lock()
        self.context_hits = 0
        self.context_misses = 0
        self.evictions = 0
        if self.cache is not None:
            warmed = SAT_CACHE.load(self.cache.smt_tier_path())
            if warmed:
                self.events.emit("smt_warm_start", entries=warmed)
            SAT_CACHE.set_autosave(
                self.cache.smt_tier_path(), every=qcache_flush_every
            )

    @staticmethod
    def context_key(source: str, thread: str | None) -> str:
        h = hashlib.sha256()
        h.update(source.encode())
        h.update(b"\x1f")
        h.update((thread or "").encode())
        return h.hexdigest()

    def context_for(
        self, source: str, thread: str | None, cfa: CFA
    ) -> HotContext:
        """The hot context for a program; on first sight, a new one
        holding ``cfa``, the program as the request's plan lowered it
        (:attr:`~repro.engine.planner.Job.cfa`)."""
        key = self.context_key(source, thread)
        with self._mutex:
            ctx = self._contexts.get(key)
            if ctx is not None:
                self._contexts.move_to_end(key)
                self.context_hits += 1
                return ctx
            self.context_misses += 1
            ctx = self._contexts[key] = HotContext(
                key=key, cfa=cfa, store=ArgStore()
            )
        return ctx

    # -- eviction ------------------------------------------------------------

    def approx_bytes(self) -> int:
        with self._mutex:
            return sum(c.approx_bytes() for c in self._contexts.values())

    def enforce_ceiling(self) -> int:
        """Evict cold contexts until under the ceiling; returns evictions.

        Called after each job completes (the only time footprint grows).
        Contexts whose lock is held are skipped -- evicting a store out
        from under a running job would discard exactly the memos that
        job is building.
        """
        evicted = 0
        with self._mutex:
            while (
                len(self._contexts) > 1
                and sum(
                    c.approx_bytes() for c in self._contexts.values()
                )
                > self.memory_bytes
            ):
                victim_key = None
                for key, ctx in self._contexts.items():  # LRU first
                    if not ctx.lock.locked():
                        victim_key = key
                        break
                if victim_key is None:
                    break  # everything is mid-job; retry after the next one
                victim = self._contexts.pop(victim_key)
                evicted += 1
                self.evictions += 1
                self.events.emit(
                    "hot_context_evicted",
                    context=victim_key[:12],
                    entries=victim.store.approx_entries(),
                )
        return evicted

    # -- persistence / reporting ---------------------------------------------

    def flush(self) -> None:
        """Spill every persistent tier now (drain path and tests)."""
        if self.cache is not None:
            saved = SAT_CACHE.flush()
            if saved:
                self.events.emit("smt_tier_saved", entries=saved)

    def stats(self) -> dict:
        with self._mutex:
            contexts = len(self._contexts)
            store_entries = sum(
                c.store.approx_entries() for c in self._contexts.values()
            )
            approx = sum(
                c.approx_bytes() for c in self._contexts.values()
            )
        return {
            "hot_contexts": contexts,
            "store_entries": store_entries,
            "approx_bytes": approx,
            "memory_ceiling_bytes": self.memory_bytes,
            "context_hits": self.context_hits,
            "context_misses": self.context_misses,
            "evictions": self.evictions,
            "qcache": SAT_CACHE.stats(),
            "artifact_cache": (
                self.cache.stats() if self.cache is not None else {}
            ),
        }
