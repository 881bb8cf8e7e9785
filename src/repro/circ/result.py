"""Verdicts and statistics for CIRC runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..acfa.acfa import Acfa
from ..cfa.cfa import Edge
from ..smt import terms as T

__all__ = [
    "IterationRecord",
    "CircStats",
    "CircSafe",
    "CircUnsafe",
    "CircUnknown",
    "CircResult",
]


@dataclass
class IterationRecord:
    """Snapshot of one inner iteration, for figure regeneration and debug."""

    outer: int
    inner: int
    predicates: tuple[T.Term, ...]
    k: int
    arg: Optional[Acfa] = None
    acfa: Optional[Acfa] = None
    states_explored: int = 0
    event: str = ""  # 'reach', 'race', 'converged'
    refinement_reason: str = ""
    new_predicates: tuple[T.Term, ...] = ()
    #: Wall-clock seconds since the start of the run when the record was
    #: emitted.  This is the one timing field every consumer reads -- the
    #: CLI ``--stats`` table and the engine's JSONL events both derive
    #: their timings from here / from ``CircStats.elapsed_seconds``
    #: instead of keeping separate clocks.
    elapsed_s: float = 0.0


@dataclass
class CircStats:
    """Aggregate statistics (the paper's Table 1 columns and more)."""

    outer_iterations: int = 0
    inner_iterations: int = 0
    n_predicates: int = 0
    final_acfa_size: int = 0
    abstract_states: int = 0
    final_k: int = 0
    elapsed_seconds: float = 0.0
    history: list[IterationRecord] = field(default_factory=list)
    #: Reuse counters from the run's ArgStore; persisted in engine
    #: artifacts.
    reuse: Optional[dict[str, int]] = None
    #: Digest of the ArgStore's exploration history at exit.
    store_digest: Optional[str] = None


@dataclass
class CircSafe:
    """The program is race-free (sound by assume-guarantee, Theorem 1)."""

    variable: str | None
    predicates: tuple[T.Term, ...]
    context: Acfa
    stats: CircStats

    @property
    def safe(self) -> bool:
        return True

    @property
    def unknown(self) -> bool:
        return False

    def __str__(self) -> str:
        preds = ", ".join(T.pretty(p) for p in self.predicates) or "(none)"
        return (
            f"SAFE: no race on {self.variable!r}\n"
            f"  predicates ({len(self.predicates)}): {preds}\n"
            f"  context ACFA size: {self.context.size}\n"
            f"  iterations: {self.stats.outer_iterations} outer / "
            f"{self.stats.inner_iterations} inner"
        )


@dataclass
class CircUnsafe:
    """A genuine race, with a validated interleaved witness."""

    variable: str | None
    steps: list[tuple[int, Edge]]
    n_threads: int
    predicates: tuple[T.Term, ...]
    stats: CircStats

    @property
    def safe(self) -> bool:
        return False

    @property
    def unknown(self) -> bool:
        return False

    def __str__(self) -> str:
        lines = [
            f"UNSAFE: race on {self.variable!r} with "
            f"{self.n_threads} threads"
        ]
        for tid, edge in self.steps:
            lines.append(f"  T{tid}: {edge.op}")
        return "\n".join(lines)


@dataclass
class CircUnknown:
    """CIRC gave up within an explicit resource budget (Section 5 caveat:
    the problem is undecidable, so divergent refinement sequences exist).

    Neither a proof nor a counterexample: ``safe`` is ``False`` because
    safety was *not established*, and ``unknown`` distinguishes this from
    a genuine race verdict.  Carries the partial statistics and the
    predicates discovered before the budget ran out (useful as warm-start
    seeds for a retry with a larger budget).
    """

    variable: str | None
    reason: str
    predicates: tuple[T.Term, ...]
    stats: CircStats

    @property
    def safe(self) -> bool:
        return False

    @property
    def unknown(self) -> bool:
        return True

    def __str__(self) -> str:
        return (
            f"UNKNOWN: no verdict on {self.variable!r} -- {self.reason}\n"
            f"  iterations: {self.stats.outer_iterations} outer / "
            f"{self.stats.inner_iterations} inner, "
            f"{self.stats.elapsed_seconds:.1f}s"
        )


CircResult = CircSafe | CircUnsafe | CircUnknown
