"""Control Flow Automata (Section 3.2 of the paper).

A CFA is a finite graph whose edges carry operations -- assignments
``x := e`` or assume predicates ``[p]`` -- and whose locations may be marked
*atomic*: when any thread of the multithreaded program sits at an atomic
location, only that thread is scheduled (the semantics of nesC ``atomic``
sections).

Variables are partitioned into globals (shared between all threads) and
locals (per-thread copies, renamed ``x$i`` for thread ``i`` when the
multithreaded program is built).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from ..smt.terms import Term, free_vars, pretty

__all__ = ["AssignOp", "AssumeOp", "Op", "Edge", "CFA"]


@dataclass(frozen=True)
class AssignOp:
    """The operation ``lhs := rhs``."""

    lhs: str
    rhs: Term

    def reads(self) -> frozenset[str]:
        return free_vars(self.rhs)

    def writes(self) -> frozenset[str]:
        return frozenset({self.lhs})

    def __str__(self) -> str:
        return f"{self.lhs} := {pretty(self.rhs)}"


@dataclass(frozen=True)
class AssumeOp:
    """The operation ``[pred]``: enabled only when ``pred`` holds."""

    pred: Term

    def reads(self) -> frozenset[str]:
        return free_vars(self.pred)

    def writes(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return f"[{pretty(self.pred)}]"


Op = AssignOp | AssumeOp


@dataclass(frozen=True)
class Edge:
    """A CFA edge ``src --op--> dst``.

    ``lock_info`` tags edges produced by lock/unlock desugaring so the
    lockset baseline can recognize them: ``("acquire", m)``/``("release", m)``.
    """

    src: int
    op: Op
    dst: int
    lock_info: Optional[tuple[str, str]] = None

    def __str__(self) -> str:
        return f"{self.src} --{self.op}--> {self.dst}"


class CFA:
    """A control flow automaton.

    Attributes:
        name: diagnostic name (thread name).
        q0: the start location.
        locations: all locations.
        atomic: the atomic locations (``Q*`` in the paper).
        error_locations: targets of failed assertions.
        globals: shared variable names.
        locals: thread-local variable names (including function-inlined
            temporaries).
    """

    def __init__(
        self,
        name: str,
        q0: int,
        locations: Iterable[int],
        edges: Iterable[Edge],
        atomic: Iterable[int] = (),
        error_locations: Iterable[int] = (),
        globals_: Iterable[str] = (),
        locals_: Iterable[str] = (),
        global_init: dict[str, int] | None = None,
    ):
        self.name = name
        self.q0 = q0
        self.locations = frozenset(locations)
        self.edges = tuple(edges)
        self.atomic = frozenset(atomic)
        self.error_locations = frozenset(error_locations)
        self.globals = frozenset(globals_)
        self.locals = frozenset(locals_)
        #: Initial values of globals (paper default: everything starts 0).
        self.global_init = {g: 0 for g in self.globals}
        if global_init:
            unknown = set(global_init) - self.globals
            if unknown:
                raise ValueError(f"init for unknown globals {sorted(unknown)}")
            self.global_init.update(global_init)
        self._out: dict[int, tuple[Edge, ...]] = {}
        self._in: dict[int, tuple[Edge, ...]] = {}
        out: dict[int, list[Edge]] = {q: [] for q in self.locations}
        inc: dict[int, list[Edge]] = {q: [] for q in self.locations}
        for e in self.edges:
            out[e.src].append(e)
            inc[e.dst].append(e)
        self._out = {q: tuple(es) for q, es in out.items()}
        self._in = {q: tuple(es) for q, es in inc.items()}
        self.validate()

    # -- structure -----------------------------------------------------------

    def out(self, q: int) -> tuple[Edge, ...]:
        """Out-edges of location ``q``."""
        return self._out[q]

    def into(self, q: int) -> tuple[Edge, ...]:
        """In-edges of location ``q``."""
        return self._in[q]

    @property
    def variables(self) -> frozenset[str]:
        return self.globals | self.locals

    def is_atomic(self, q: int) -> bool:
        return q in self.atomic

    def require_global(self, variable: str) -> None:
        """Raise ValueError unless ``variable`` is a global (race target)."""
        if variable not in self.globals:
            raise ValueError(f"{variable!r} is not a global of the program")

    def validate(self) -> None:
        """Check well-formedness; raises ValueError on violations."""
        if self.q0 not in self.locations:
            raise ValueError("start location not in location set")
        if self.q0 in self.atomic:
            raise ValueError(
                "the start location must not be atomic (paper Section 2.1)"
            )
        for e in self.edges:
            if e.src not in self.locations or e.dst not in self.locations:
                raise ValueError(f"edge {e} mentions unknown location")
            used = e.op.reads() | e.op.writes()
            unknown = used - self.variables
            if unknown:
                raise ValueError(
                    f"edge {e} uses undeclared variables {sorted(unknown)}"
                )
        overlap = self.globals & self.locals
        if overlap:
            raise ValueError(f"variables both global and local: {sorted(overlap)}")

    # -- access sets (Section 4.1) ----------------------------------------------
    #
    # Per-location sets, computed once, on first use: lowering builds a CFA
    # it contracts right away, and nobody reads that one's sets.  Equal
    # sets are shared: most locations access nothing or one variable.

    @cached_property
    def _access_sets(self) -> dict[frozenset[str], frozenset[str]]:
        return {}

    def _shared(self, s: frozenset[str]) -> frozenset[str]:
        return self._access_sets.setdefault(s, s)

    @cached_property
    def _writes(self) -> dict[int, frozenset[str]]:
        return {
            q: self._shared(frozenset().union(*(e.op.writes() for e in es)))
            for q, es in self._out.items()
        }

    @cached_property
    def _reads(self) -> dict[int, frozenset[str]]:
        return {
            q: self._shared(frozenset().union(*(e.op.reads() for e in es)))
            for q, es in self._out.items()
        }

    @cached_property
    def _accesses(self) -> dict[int, frozenset[str]]:
        return {
            q: self._shared(w | self._reads[q]) for q, w in self._writes.items()
        }

    def writes_at(self, q: int) -> frozenset[str]:
        """Variables some out-edge of ``q`` may write."""
        return self._writes[q]

    def reads_at(self, q: int) -> frozenset[str]:
        """Variables some out-edge of ``q`` may read."""
        return self._reads[q]

    def accesses_at(self, q: int) -> frozenset[str]:
        return self._accesses[q]

    def may_write(self, q: int, x: str) -> bool:
        """Does location ``q`` have an enabled operation writing ``x``?"""
        return x in self._writes[q]

    def may_access(self, q: int, x: str) -> bool:
        return x in self._accesses[q]

    # -- rendering -----------------------------------------------------------------

    def __str__(self) -> str:
        lines = [f"CFA {self.name} (start {self.q0})"]
        for q in sorted(self.locations):
            marks = []
            if q in self.atomic:
                marks.append("atomic")
            if q in self.error_locations:
                marks.append("error")
            suffix = f"  ({', '.join(marks)})" if marks else ""
            lines.append(f"  loc {q}{suffix}")
            for e in self.out(q):
                lines.append(f"    --{e.op}--> {e.dst}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz rendering for debugging and documentation."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=TB;"]
        for q in sorted(self.locations):
            shape = "doublecircle" if q == self.q0 else "circle"
            style = ', style=filled, fillcolor="#ffdddd"' if q in self.atomic else ""
            label = f"{q}*" if q in self.atomic else str(q)
            lines.append(f'  n{q} [label="{label}", shape={shape}{style}];')
        for e in self.edges:
            text = str(e.op).replace('"', '\\"')
            lines.append(f'  n{e.src} -> n{e.dst} [label="{text}"];')
        lines.append("}")
        return "\n".join(lines)
