"""Per-analysis win-rate accounting, keyed by workload shape class.

The portfolio's latency story depends on scheduling the analysis most
likely to decide a query *first*: every later analysis is wasted work
once cross-cancellation fires.  The right order differs by workload --
lock-disciplined templates fall to the racer's phase 1 instantly,
value-guarded ones need the interval domain, data-dependent protocols
need CIRC -- so wins are counted per *shape class*, a coarse bucketing
of the query (synchronization style x template size), not globally.

The book is deliberately tiny and JSON-backed: it lives under the
artifact cache root, survives across runs, and its counters are also
emitted into the JSONL telemetry (``portfolio_winrates`` events) so the
engine's planner -- or a human reading the log -- can see which analysis
earns its slot per workload shape.

Whoever creates a book saves it, once, when its queries are done: the
scheduler after a batch's last in-process job, a fleet worker in its
shutdown flush, ``repro portfolio --cache`` after its last variable.
:func:`repro.portfolio.driver.run_portfolio` only records, so each query
still sees the counts of the queries before it in the same book, in
memory.

Concurrent writers -- daemon worker threads, parallel batch workers --
share one book file.  A naive load/mutate/save cycle is last-writer-wins
and silently drops every other writer's counts, so :meth:`save` is a
*read-merge-write*: it tracks the deltas recorded since the last save,
re-reads the file under an advisory lock, folds the deltas into whatever
other writers persisted meanwhile, and replaces the file atomically.
Win counts are therefore never lost, only delayed.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from ..cfa.cfa import CFA
from ..util.locks import atomic_write_text, file_lock

__all__ = ["WinRateBook", "cache_book", "shape_class", "DEFAULT_ORDER"]

#: Static cost order: cheapest analysis first until the book learns better.
DEFAULT_ORDER = ("racer", "absint", "circ")


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

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = Path(path) if path is not None else None
        self.counts: dict[str, dict[str, dict[str, float]]] = {}
        # Deltas recorded since the last successful save; save() merges
        # them into the on-disk counts instead of overwriting the file.
        self._pending: dict[str, dict[str, dict[str, float]]] = {}
        self._mutex = threading.Lock()
        if self.path is not None and self.path.exists():
            self.counts = self._read_counts(self.path)

    @staticmethod
    def _read_counts(path: Path) -> dict:
        try:
            raw = json.loads(path.read_text())
            if isinstance(raw, dict):
                shapes = raw.get("shapes", {})
                if isinstance(shapes, dict):
                    return shapes
        except (OSError, ValueError):
            pass  # a corrupt book relearns from scratch
        return {}

    @staticmethod
    def _cell(
        table: dict, shape: str, analysis: str
    ) -> dict[str, float]:
        return table.setdefault(shape, {}).setdefault(
            analysis, {"wins": 0, "runs": 0, "total_ms": 0.0}
        )

    def record(
        self, shape: str, analysis: str, won: bool, time_ms: float
    ) -> None:
        with self._mutex:
            for table in (self.counts, self._pending):
                cell = self._cell(table, shape, analysis)
                cell["runs"] += 1
                cell["wins"] += 1 if won else 0
                cell["total_ms"] += time_ms

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
        """Merge the deltas since the last save into the book file.

        Holds an advisory ``flock`` on a sibling ``.lock`` file for the
        read-merge-write cycle, so two processes saving concurrently
        serialize and neither clobbers the other's counts.  Platforms
        without ``fcntl`` skip the lock but keep the merge, which still
        beats blind overwriting.  With no deltas recorded since the
        last save there is nothing to merge, and the file is left alone.
        """
        if self.path is None:
            return
        with self._mutex:
            pending = self._pending
            self._pending = {}
        if not pending:
            return
        try:
            with file_lock(self.path.with_suffix(".lock")):
                merged = (
                    self._read_counts(self.path)
                    if self.path.exists()
                    else {}
                )
                for shape, analyses in pending.items():
                    for analysis, delta in analyses.items():
                        cell = self._cell(merged, shape, analysis)
                        cell["runs"] += delta["runs"]
                        cell["wins"] += delta["wins"]
                        cell["total_ms"] += delta["total_ms"]
                with self._mutex:
                    self.counts = merged
                atomic_write_text(
                    self.path,
                    json.dumps(
                        {"shapes": merged}, indent=1, sort_keys=True
                    ),
                )
        except OSError:
            # Persistence is an accelerator; put the deltas back so a
            # later save can still merge them.
            with self._mutex:
                for shape, analyses in pending.items():
                    for analysis, delta in analyses.items():
                        cell = self._cell(self._pending, shape, analysis)
                        cell["runs"] += delta["runs"]
                        cell["wins"] += delta["wins"]
                        cell["total_ms"] += delta["total_ms"]


def cache_book(cache_root: str | os.PathLike) -> WinRateBook:
    """The win-rate book kept under an artifact cache root."""
    return WinRateBook(Path(cache_root) / "winrates.json")
