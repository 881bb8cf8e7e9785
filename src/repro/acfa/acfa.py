"""Abstract Control Flow Automata (Section 3.3 of the paper).

An ACFA models a context thread: locations are labeled with formulas over
the *global* variables (conjunctions of literals in this implementation),
edges are labeled with sets of havoced globals, and locations may be atomic.
When an abstract thread traverses an edge, the havoced variables receive
arbitrary values subject to the target location's label.

Between any ordered pair of locations at most one edge is kept; parallel
edges merge by unioning their havoc sets (a larger havoc set
over-approximates a smaller one, so the merge is sound -- this mirrors
procedure Connect of the paper).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from ..smt import terms as T

__all__ = ["Acfa", "AcfaEdge", "acfa_signature", "empty_acfa"]


class AcfaEdge:
    """A havoc edge ``src --Y--> dst``; an immutable value object."""

    __slots__ = ("src", "havoc", "dst", "_hash")

    def __init__(self, src: int, havoc: frozenset[str], dst: int):
        havoc = frozenset(havoc)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "havoc", havoc)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "_hash", hash((src, havoc, dst)))

    def __setattr__(self, *a):
        raise AttributeError("AcfaEdge is immutable")

    def __reduce__(self):
        # Rebuild through __init__: string hashes differ per process, so
        # the cached hash must be recomputed where the edge is unpickled.
        return (AcfaEdge, (self.src, self.havoc, self.dst))

    def key(self) -> tuple:
        return (self.src, self.havoc, self.dst)

    def __eq__(self, other):
        return isinstance(other, AcfaEdge) and self.key() == other.key()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        vs = ",".join(sorted(self.havoc)) or "-"
        return f"{self.src} --{{{vs}}}--> {self.dst}"


class Acfa:
    """An abstract control flow automaton.

    ``label`` maps each location to a tuple of literal terms over the global
    variables, interpreted conjunctively (empty tuple = true).
    """

    def __init__(
        self,
        name: str,
        q0: int,
        locations: Iterable[int],
        label: Mapping[int, tuple[T.Term, ...]],
        edges: Iterable[AcfaEdge],
        atomic: Iterable[int] = (),
        entries: Iterable[int] | None = None,
    ):
        self.name = name
        self.q0 = q0
        #: Start locations holding the unbounded thread pools.  A symmetric
        #: context has the single entry ``q0``; the disjoint union used for
        #: asymmetric thread sets has one entry per template.
        self.entries = tuple(entries) if entries is not None else (q0,)
        self.locations = frozenset(locations)
        self.atomic = frozenset(atomic)
        self.label = {q: tuple(label.get(q, ())) for q in self.locations}
        merged: dict[tuple[int, int], set[str]] = {}
        for e in edges:
            merged.setdefault((e.src, e.dst), set()).update(e.havoc)
        self.edges = tuple(
            AcfaEdge(src, frozenset(h), dst)
            for (src, dst), h in sorted(
                merged.items(), key=lambda kv: kv[0]
            )
        )
        self._out: dict[int, tuple[AcfaEdge, ...]] = {
            q: () for q in self.locations
        }
        grouped: dict[int, list[AcfaEdge]] = {}
        for e in self.edges:
            grouped.setdefault(e.src, []).append(e)
        for q, es in grouped.items():
            self._out[q] = tuple(es)
        self.validate()

    # -- structure ----------------------------------------------------------------

    def out(self, q: int) -> tuple[AcfaEdge, ...]:
        return self._out[q]

    def is_atomic(self, q: int) -> bool:
        return q in self.atomic

    def is_empty(self) -> bool:
        """The do-nothing context: a single location with no edges."""
        return len(self.locations) == 1 and not self.edges

    @property
    def size(self) -> int:
        """Number of abstract locations (the paper's 'ACFA' column)."""
        return len(self.locations)

    def validate(self) -> None:
        if self.q0 not in self.locations:
            raise ValueError("ACFA start location missing")
        if self.q0 not in self.entries:
            raise ValueError("q0 must be one of the entries")
        for q in self.entries:
            if q not in self.locations:
                raise ValueError(f"entry {q} missing from locations")
            if q in self.atomic:
                raise ValueError("ACFA entry locations must not be atomic")
        for e in self.edges:
            if e.src not in self.locations or e.dst not in self.locations:
                raise ValueError(f"ACFA edge {e!r} mentions unknown location")

    # -- race-relevant access sets ---------------------------------------------------

    @cached_property
    def _writes(self) -> dict[int, frozenset[str]]:
        """Per-location write sets, computed once, on first use."""
        return {
            q: frozenset().union(*(e.havoc for e in es))
            for q, es in self._out.items()
        }

    def may_write(self, q: int, x: str) -> bool:
        """An abstract thread at ``q`` can write ``x`` iff some out-edge
        havocs it (paper Section 4.1; abstract threads never 'read')."""
        return x in self._writes[q]

    def writes_at(self, q: int) -> frozenset[str]:
        return self._writes[q]

    # -- rendering --------------------------------------------------------------------

    def __str__(self) -> str:
        lines = [f"ACFA {self.name} (start {self.q0})"]
        for q in sorted(self.locations):
            mark = "*" if q in self.atomic else ""
            lbl = (
                " && ".join(T.pretty(t) for t in self.label[q])
                or "true"
            )
            lines.append(f"  loc {q}{mark}  [{lbl}]")
            for e in self.out(q):
                vs = ",".join(sorted(e.havoc)) or "-"
                lines.append(f"    --{{{vs}}}--> {e.dst}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        lines = [f'digraph "{self.name}" {{']
        for q in sorted(self.locations):
            lbl = " && ".join(T.pretty(t) for t in self.label[q]) or "true"
            star = "*" if q in self.atomic else ""
            lines.append(
                f'  n{q} [label="{q}{star}\\n{lbl}", shape=box];'
            )
        for e in self.edges:
            vs = ",".join(sorted(e.havoc))
            lines.append(f'  n{e.src} -> n{e.dst} [label="{{{vs}}}"];')
        lines.append("}")
        return "\n".join(lines)


def acfa_signature(acfa: Acfa) -> tuple:
    """A hashable value identifying an ACFA up to isomorphism of content.

    Two ACFAs with equal signatures have identical locations, labels,
    havoc edges, atomicity, and entries -- everything the abstract
    semantics reads.  The incremental exploration store keys its
    whole-run, omega, and quotient memos on this.
    """
    locs = tuple(sorted(acfa.locations))
    return (
        acfa.q0,
        acfa.entries,
        locs,
        tuple(sorted(acfa.atomic)),
        tuple((q, acfa.label[q]) for q in locs),
        tuple((e.src, tuple(sorted(e.havoc)), e.dst) for e in acfa.edges),
    )


def empty_acfa(name: str = "empty") -> Acfa:
    """The empty context: one non-atomic location labeled true, no edges.

    This is CIRC's initial context model -- 'the context does nothing'.
    """
    return Acfa(name=name, q0=0, locations=[0], label={0: ()}, edges=[])
