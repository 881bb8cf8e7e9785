"""Counter abstraction for unboundedly many context threads (Section 3.4).

The number of abstract threads at each ACFA location is tracked exactly up
to the parameter ``k`` and as ``OMEGA`` beyond, with the paper's saturating
arithmetic::

    k + 1 = OMEGA        OMEGA + 1 = OMEGA        OMEGA - 1 = OMEGA

A context state ``G`` maps every ACFA location to a counter value; it is
represented as a tuple indexed by location for hashability.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["OMEGA", "CounterValue", "counter_inc", "counter_dec", "ContextState"]


class _Omega:
    """The 'arbitrarily many threads' counter value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OMEGA"

    def __reduce__(self):
        return (_Omega, ())


OMEGA = _Omega()

CounterValue = int | _Omega


def counter_inc(value: CounterValue, k: int) -> CounterValue:
    """Saturating increment: values beyond ``k`` become OMEGA."""
    if value is OMEGA:
        return OMEGA
    if value + 1 > k:
        return OMEGA
    return value + 1


def counter_dec(value: CounterValue) -> CounterValue:
    """Saturating decrement: OMEGA - 1 = OMEGA."""
    if value is OMEGA:
        return OMEGA
    if value <= 0:
        raise ValueError("cannot decrement a zero counter")
    return value - 1


class ContextState:
    """An abstract context state ``G : Q_A -> {0..k, OMEGA}``.

    Immutable value object; location indices follow the ACFA's location ids
    (assumed dense from 0, as produced by collapse/empty_acfa).  The hash
    is computed once, and the occupied locations on first use.
    """

    __slots__ = ("counts", "_hash", "_occupied")

    def __init__(self, counts: Sequence[CounterValue]):
        counts = tuple(counts)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_hash", hash(counts))
        object.__setattr__(self, "_occupied", None)

    def __setattr__(self, *a):
        raise AttributeError("ContextState is immutable")

    def __reduce__(self):
        # Rebuild through __init__: OMEGA hashes by identity, which
        # differs per process, so the cached hash is recomputed.
        return (ContextState, (self.counts,))

    @classmethod
    def initial_omega(
        cls, n_locations: int, q0: int | Iterable[int]
    ) -> "ContextState":
        """Arbitrarily many threads at each start location (CIRC).

        ``q0`` may be a single entry (symmetric programs) or an iterable of
        entries (one unbounded pool per thread template)."""
        counts: list[CounterValue] = [0] * n_locations
        for q in ([q0] if isinstance(q0, int) else q0):
            counts[q] = OMEGA
        return cls(counts)

    @classmethod
    def initial_exact(
        cls, n_locations: int, q0: int | Iterable[int], k: int
    ) -> "ContextState":
        """Exactly ``k`` context threads at each start (the infinity-check
        optimization of Section 5 runs reachability with this start)."""
        counts: list[CounterValue] = [0] * n_locations
        for q in ([q0] if isinstance(q0, int) else q0):
            counts[q] = k
        return cls(counts)

    def count(self, q: int) -> CounterValue:
        return self.counts[q]

    def occupied(self) -> tuple[int, ...]:
        """Locations with at least one thread, in increasing order."""
        occupied = self._occupied
        if occupied is None:
            occupied = tuple(
                q for q, v in enumerate(self.counts) if v is OMEGA or v > 0
            )
            object.__setattr__(self, "_occupied", occupied)
        return occupied

    def at_least_two(self, q: int) -> bool:
        v = self.counts[q]
        return v is OMEGA or v >= 2

    def move(self, src: int, dst: int, k: int) -> "ContextState":
        """One thread moves from ``src`` to ``dst`` (paper's post)."""
        counts = list(self.counts)
        counts[src] = counter_dec(counts[src])
        counts[dst] = counter_inc(counts[dst], k)
        return ContextState(counts)

    def __eq__(self, other):
        return isinstance(other, ContextState) and self.counts == other.counts

    def __hash__(self):
        return self._hash

    def __repr__(self):
        parts = []
        for q, v in enumerate(self.counts):
            if v is OMEGA:
                parts.append(f"{q}:w")
            elif v:
                parts.append(f"{q}:{v}")
        return "{" + ", ".join(parts) + "}"
