"""Per-analysis win-rate accounting, keyed by workload shape class.

The portfolio's latency story depends on scheduling the analysis most
likely to decide a query *first*: every later analysis is wasted work
once cross-cancellation fires.  The right order differs by workload --
lock-disciplined templates fall to the racer's phase 1 instantly,
value-guarded ones need the interval domain, data-dependent protocols
need CIRC -- so wins are counted per *shape class*, a coarse bucketing
of the query (synchronization style x template size), not globally.

The book is deliberately tiny: one blob of the artifact cache, so it
survives across runs, and its counters are also emitted into the JSONL
telemetry (``portfolio_winrates`` events) so the engine's planner -- or
a human reading the log -- can see which analysis earns its slot per
workload shape.

Whoever creates a book saves it, once, when its queries are done: the
scheduler after a batch's last in-process job, a fleet worker in its
shutdown flush, ``repro portfolio --cache`` after its last variable.
:func:`repro.portfolio.driver.run_portfolio` only records, so each query
still sees the counts of the queries before it in the same book, in
memory.

Concurrent writers -- daemon worker threads, parallel batch workers --
share one book entry.  A naive load/mutate/save cycle is last-writer-wins
and silently drops every other writer's counts, so :meth:`save` tracks
the deltas recorded since the last save and folds them into whatever
other writers persisted meanwhile, through the cache's one locked
read-merge-write.  Win counts are therefore never lost, only delayed.
"""

from __future__ import annotations

import threading

from ..cfa.cfa import CFA
from ..engine.cache import ArtifactCache

__all__ = ["WinRateBook", "shape_class", "DEFAULT_ORDER"]

#: Static cost order: cheapest analysis first until the book learns better.
DEFAULT_ORDER = ("racer", "absint", "circ")

#: The book's artifact-cache blob: its namespace, and a key naming the
#: payload's layout, so a new layout addresses a fresh entry.
BOOK_NAMESPACE = "winrates"
BOOK_FORMAT = "winrates-v1"


def shape_class(cfa: CFA, variable: str) -> str:
    """A coarse workload-shape bucket for one (template, variable) query.

    Intentionally lossy: the book needs enough traffic per bucket to
    learn from, so the key only captures what plausibly changes the
    winner -- how the template synchronizes and how big it is.
    """
    if any(e.lock_info for e in cfa.edges):
        sync = "locked"
    elif cfa.atomic:
        sync = "atomic"
    else:
        sync = "bare"
    size = "small" if len(cfa.locations) <= 16 else "large"
    return f"{sync}/{size}"


class WinRateBook:
    """Win/run/latency counters per (shape class, analysis).

    A *win* is a confident verdict (a proof or a replayed witness) that
    decided the query; *runs* counts every completed, non-cancelled
    attempt.  ``order`` ranks analyses for a shape by observed win rate
    (ties broken by mean latency, then by the static cost order), so an
    unseen shape starts at :data:`DEFAULT_ORDER` and the book only
    reorders once it has evidence.
    """

    def __init__(self, cache: ArtifactCache | None = None):
        """A book kept in ``cache`` (a corrupt entry relearns from
        scratch), or in memory only when ``cache`` is None."""
        self.cache = cache
        self.counts: dict[str, dict[str, dict[str, float]]] = {}
        # Deltas recorded since the last successful save; save() merges
        # them into the stored counts instead of overwriting them.
        self._pending: dict[str, dict[str, dict[str, float]]] = {}
        self._mutex = threading.Lock()
        if cache is not None:
            self.counts = cache.get_blob(BOOK_NAMESPACE, BOOK_FORMAT) or {}

    @staticmethod
    def _add(table: dict, deltas: dict) -> dict:
        """Add ``deltas``' counts into ``table``, cell by cell."""
        for shape, analyses in deltas.items():
            for analysis, delta in analyses.items():
                cell = table.setdefault(shape, {}).setdefault(
                    analysis, {"wins": 0, "runs": 0, "total_ms": 0.0}
                )
                for field in ("wins", "runs", "total_ms"):
                    cell[field] += delta[field]
        return table

    def record(
        self, shape: str, analysis: str, won: bool, time_ms: float
    ) -> None:
        cell = {"wins": int(won), "runs": 1, "total_ms": time_ms}
        delta = {shape: {analysis: cell}}
        with self._mutex:
            self._add(self.counts, delta)
            self._add(self._pending, delta)

    def win_rate(self, shape: str, analysis: str) -> float:
        cell = self.counts.get(shape, {}).get(analysis)
        if not cell or not cell["runs"]:
            return 0.0
        return cell["wins"] / cell["runs"]

    def order(self, shape: str) -> tuple[str, ...]:
        """Schedule order for a shape: highest win rate first, then
        lowest mean latency; ties keep :data:`DEFAULT_ORDER`."""

        def rank(name: str) -> tuple[float, float]:
            cell = self.counts.get(shape, {}).get(name)
            if not cell or not cell["runs"]:
                return (0.0, 0.0)
            return (-cell["wins"] / cell["runs"], cell["total_ms"] / cell["runs"])

        return tuple(sorted(DEFAULT_ORDER, key=rank))

    def to_obj(self) -> dict:
        return {"shapes": self.counts}

    def save(self) -> None:
        """Merge the deltas since the last save into the book's entry.

        The merge is the cache's one locked read-merge-write
        (:meth:`~repro.engine.cache.ArtifactCache.merge_blob`), so two
        processes saving concurrently serialize and neither clobbers the
        other's counts.  With no deltas recorded since the last save
        there is nothing to merge, and the entry is left alone; a failed
        write puts the deltas back for a later save.
        """
        if self.cache is None:
            return
        with self._mutex:
            pending = self._pending
            self._pending = {}
        if not pending:
            return
        try:
            merged = self.cache.merge_blob(
                BOOK_NAMESPACE,
                BOOK_FORMAT,
                lambda stored: self._add(self._add({}, stored or {}), pending),
            )
        except OSError:
            # Persistence is an accelerator; a later save can still
            # merge the deltas.
            with self._mutex:
                self._add(self._pending, pending)
            return
        with self._mutex:
            self.counts = merged
