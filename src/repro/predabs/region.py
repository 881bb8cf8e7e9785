"""Abstract data regions for predicate abstraction.

Following BLAST's implementation (and sufficient for every example in the
paper), regions are *cartesian*: a region is a conjunction of literals over
the current predicate set, or bottom.  The paper's ``Abs.P`` operator (the
smallest expressible over-approximation) is instantiated with the cartesian
domain: the strongest conjunction of predicate literals implied by a
formula.

A region is represented by the set of (predicate-index, polarity) pairs it
asserts; fewer literals = weaker region.  ``top`` is the empty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..smt import terms as T

__all__ = ["PredicateSet", "Region", "TOP", "BOTTOM"]


class PredicateSet:
    """An ordered, duplicate-free collection of predicates.

    Predicates are boolean terms over program variables (locals refer to the
    main thread's copy -- paper Section 2.3).
    """

    def __init__(self, preds: Iterable[T.Term] = ()):
        seen: dict[T.Term, None] = {}
        for p in preds:
            if not isinstance(p, T.Term):
                raise TypeError(f"predicate must be a term: {p!r}")
            seen.setdefault(p)
        self._preds: tuple[T.Term, ...] = tuple(seen)
        self._supports: tuple[frozenset[str], ...] | None = None

    def support(self, i: int) -> frozenset[str]:
        """The free variables of predicate ``i`` (cached per set).

        The ArgStore's subtree invalidation intersects predicate supports
        against thousands of memo entries; with the per-term memo in
        :func:`repro.smt.terms.free_vars` plus this per-set tuple, each
        lookup is O(1) after the first.
        """
        sup = self._supports
        if sup is None:
            sup = self._supports = tuple(T.free_vars(p) for p in self._preds)
        return sup[i]

    def __len__(self) -> int:
        return len(self._preds)

    def __iter__(self) -> Iterator[T.Term]:
        return iter(self._preds)

    def __contains__(self, p: T.Term) -> bool:
        return p in self._preds

    def __getitem__(self, i: int) -> T.Term:
        return self._preds[i]

    def index(self, p: T.Term) -> int:
        return self._preds.index(p)

    def extended(self, new_preds: Iterable[T.Term]) -> "PredicateSet":
        """A new set with ``new_preds`` appended (existing indices stable)."""
        return PredicateSet(list(self._preds) + list(new_preds))

    def __eq__(self, other) -> bool:
        return isinstance(other, PredicateSet) and self._preds == other._preds

    def __hash__(self) -> int:
        return hash(self._preds)

    def __repr__(self) -> str:
        return f"PredicateSet({[T.pretty(p) for p in self._preds]})"


@dataclass(frozen=True)
class Region:
    """A cartesian abstract region: a conjunction of predicate literals.

    ``literals`` holds (index, polarity) pairs; ``bottom`` marks the empty
    region.  Regions are value objects -- hashable, usable in seen-sets.
    """

    literals: frozenset[tuple[int, bool]] = frozenset()
    bottom: bool = False

    def __post_init__(self) -> None:
        # Regions key every memo and seen-set of the exploration; hash
        # once.  Literal pairs hash alike in every process, so a pickled
        # region may carry its hash along.  (BooleanRegion keeps its
        # generated hash over all fields.)
        object.__setattr__(self, "_hash", hash((self.literals, self.bottom)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def top() -> "Region":
        return TOP

    def is_bottom(self) -> bool:
        return self.bottom

    def formula(self, preds: PredicateSet) -> T.Term:
        """The concretization as a term."""
        if self.bottom:
            return T.FALSE
        parts = []
        for idx, pol in sorted(self.literals):
            p = preds[idx]
            parts.append(p if pol else T.not_(p))
        return T.and_(*parts)

    def literal_terms(self, preds: PredicateSet) -> list[T.Term]:
        """The conjunction as a list of literal terms."""
        if self.bottom:
            return [T.FALSE]
        out = []
        for idx, pol in sorted(self.literals):
            p = preds[idx]
            out.append(p if pol else T.not_(p))
        return out

    def entails(self, other: "Region") -> bool:
        """Syntactic entailment: self asserts every literal of ``other``.

        Sound (never claims entailment that does not hold) and complete for
        regions over the same predicate set in the cartesian domain.
        """
        if self.bottom:
            return True
        if other.bottom:
            return False
        return other.literals <= self.literals

    def meet(self, other: "Region") -> "Region":
        if self.bottom or other.bottom:
            return BOTTOM
        merged = self.literals | other.literals
        by_index: dict[int, bool] = {}
        for idx, pol in merged:
            if idx in by_index and by_index[idx] != pol:
                return BOTTOM
            by_index[idx] = pol
        return Region(frozenset(merged))

    def render(self, preds: PredicateSet) -> str:
        if self.bottom:
            return "false"
        if not self.literals:
            return "true"
        return T.pretty(self.formula(preds))


TOP = Region()
BOTTOM = Region(frozenset(), bottom=True)


@dataclass(frozen=True)
class BooleanRegion(Region):
    """A *boolean* abstract region: a disjunction of predicate cubes.

    This is the paper's exact ``Abs.P`` codomain -- the smallest region
    expressible as a boolean formula over the predicates.  ``cubes`` holds
    full cubes (one polarity per predicate index); the inherited
    ``literals`` field carries the cartesian hull (the literals common to
    every cube), which is what ARG labels and syntactic entailment use, so
    a BooleanRegion drops into every cartesian code path soundly while
    ``formula`` retains the precise disjunction.
    """

    cubes: frozenset[frozenset[tuple[int, bool]]] = frozenset()

    @staticmethod
    def from_cubes(
        cubes: Iterable[frozenset[tuple[int, bool]]],
    ) -> "BooleanRegion":
        cubes = frozenset(cubes)
        if not cubes:
            return BooleanRegion(
                literals=frozenset(), bottom=True, cubes=frozenset()
            )
        hull = frozenset.intersection(*cubes)
        return BooleanRegion(literals=hull, bottom=False, cubes=cubes)

    def formula(self, preds: PredicateSet) -> T.Term:
        if self.bottom:
            return T.FALSE
        disjuncts = []
        for cube in sorted(self.cubes, key=sorted):
            parts = []
            for idx, pol in sorted(cube):
                p = preds[idx]
                parts.append(p if pol else T.not_(p))
            disjuncts.append(T.and_(*parts))
        return T.or_(*disjuncts)

    def render(self, preds: PredicateSet) -> str:
        if self.bottom:
            return "false"
        if not self.cubes:
            return "true"
        return T.pretty(self.formula(preds))
