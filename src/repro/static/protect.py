"""Protection inference: which locations provably hold which monitors.

The Eraser lockset discipline asks "is there a common lock held at every
access?".  This module answers the harder prerequisite question soundly on
the CFA: *which* synchronization objects exist, and at which locations is
each one certainly held.

Two kinds of monitors are inferred:

* **tagged mutexes** -- ``lock(m)``/``unlock(m)`` desugar to edges carrying
  ``lock_info`` tags (see :mod:`repro.lang.lower`);
* **test-and-set flags** -- globals acquired by the nesC idiom
  ``atomic { [s == 0]; s := 1 }`` and released by ``s := 0``, such as the
  task-scheduler flag of :mod:`repro.nesc.model`.  These carry no tags; they
  are recognized structurally.

Both reduce to the same proof obligation, discharged by one forward
must-dataflow per candidate flag ``s``:

1. every assignment ``s := c`` with ``c != 0`` happens at a location where
   ``s == 0`` has been assumed *inside the same atomic region* with no
   intervening write (the set cannot clobber another thread's acquisition);
2. every assignment ``s := 0`` happens at a location where the executing
   thread must itself hold ``s`` (no thread can release a flag it does not
   hold);
3. ``s`` is written nowhere else, and starts free (``global_init[s] == 0``).

Under (1)-(3) the flag is a genuine mutex: at most one thread holds it at
any time, so two locations that both must-hold ``s`` can never be occupied
simultaneously.  The atomicity of the test-and-set is what makes (1) sound:
while the acquiring thread sits at an atomic location no other thread is
scheduled, so the assumed ``s == 0`` still holds when ``s := 1`` fires.

Failing any obligation demotes the candidate -- the inference never guesses.
The Figure 1 idiom (``old = state`` inside the atomic block, conditional
release on ``old == 0`` outside it) fails obligation (2) at the release
site -- holding is only known through the *local* ``old``, which
location-based reasoning cannot see -- so ``state`` is correctly left for
CIRC.  That asymmetry is the point: the static pass discharges disciplined
flags, CIRC handles the data-dependent ones.

Atomic sections count as one more monitor, the :data:`ATOMIC_LOCK`
pseudo-lock held at every atomic location; the Eraser baseline of
:mod:`repro.baselines.lockset` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..cfa.cfa import CFA, AssignOp, AssumeOp, Edge
from ..smt import terms as T

__all__ = [
    "ATOMIC_LOCK",
    "Monitor",
    "describe_locks",
    "infer_monitors",
    "held_locks",
    "reachable_locations",
]

#: Pseudo-lock representing nesC atomic sections.
ATOMIC_LOCK = "<atomic>"

#: Dataflow fact: ``s == 0`` observed, still atomic, not written since.
_FREE = "free"
#: Dataflow fact: this thread acquired ``s`` and has not released it.
_HELD = "held"


@dataclass(frozen=True)
class Monitor:
    """One inferred synchronization object and where it is surely held.

    ``kind`` is ``"lock"`` when every acquire/release edge carries a
    ``lock_info`` tag (the variable came from ``lock()``/``unlock()``
    syntax) and ``"test-and-set"`` otherwise.
    """

    variable: str
    kind: str
    acquire_sites: tuple[int, ...]
    release_sites: tuple[int, ...]
    held_at: frozenset[int]

    def holds_at(self, q: int) -> bool:
        return q in self.held_at

    def __str__(self) -> str:
        return f"{self.variable} ({self.kind})"


def reachable_locations(cfa: CFA) -> frozenset[int]:
    """Locations reachable from ``q0`` along CFA edges.

    Graph reachability over-approximates every concrete execution of any
    thread, with or without environment interference: a thread only ever
    moves along its own out-edges.
    """
    seen = {cfa.q0}
    stack = [cfa.q0]
    while stack:
        q = stack.pop()
        for e in cfa.out(q):
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return frozenset(seen)


def _implies_zero(pred: T.Term, s: str) -> bool:
    """Does ``pred`` syntactically entail ``s == 0``?"""
    zero = T.eq(T.var(s), T.num(0))
    if pred == zero or pred == T.eq(T.num(0), T.var(s)):
        return True
    if isinstance(pred, T.And):
        return any(_implies_zero(arg, s) for arg in pred.args)
    return False


def _const_value(term: T.Term) -> Optional[int]:
    return term.value if isinstance(term, T.IntConst) else None


def _monitor_dataflow(cfa: CFA, s: str) -> Optional[Monitor]:
    """Run the acquire/release must-dataflow for candidate flag ``s``.

    Returns the validated :class:`Monitor`, or ``None`` when any proof
    obligation fails.
    """
    if cfa.global_init.get(s, 0) != 0:
        return None  # the flag must start free

    # facts[q] is None until q is reached; merging is set intersection.
    facts: dict[int, Optional[frozenset[str]]] = {
        q: None for q in cfa.locations
    }
    facts[cfa.q0] = frozenset()
    acquire_edges: set[Edge] = set()
    release_edges: set[Edge] = set()

    def transfer(before: frozenset[str], e: Edge) -> Optional[frozenset[str]]:
        """Post-facts of ``e``; None when ``s`` is disqualified."""
        after = set(before)
        op = e.op
        if isinstance(op, AssumeOp):
            if _implies_zero(op.pred, s) and cfa.is_atomic(e.dst):
                after.add(_FREE)
        elif isinstance(op, AssignOp) and op.lhs == s:
            value = _const_value(op.rhs)
            if value is None:
                return None  # non-constant write: not a flag
            if value == 0:
                release_edges.add(e)
                after.discard(_HELD)
                after.discard(_FREE)
                if cfa.is_atomic(e.dst):
                    after.add(_FREE)  # we just wrote 0 and stay atomic
            elif _HELD in before:
                # The holder may move its own flag between non-zero states
                # (multi-valued state machines); others still observe
                # "taken" and remain excluded.
                after.discard(_FREE)
            else:
                if _FREE not in before:
                    return None  # set without an atomic test: unguarded
                acquire_edges.add(e)
                after.discard(_FREE)
                after.add(_HELD)
        if not cfa.is_atomic(e.dst):
            after.discard(_FREE)  # knowledge goes stale once preemptible
        return frozenset(after)

    changed = True
    while changed:
        changed = False
        for e in cfa.edges:
            before = facts[e.src]
            if before is None:
                continue
            out = transfer(before, e)
            if out is None:
                return None
            cur = facts[e.dst]
            new = out if cur is None else cur & out
            if new != cur:
                facts[e.dst] = new
                changed = True

    # Obligation (2): releases only while surely holding.
    for e in release_edges:
        before = facts[e.src]
        if before is None or _HELD not in before:
            return None
    if not acquire_edges:
        return None  # never acquired: no protection value

    tags = [
        e.lock_info is not None and e.lock_info[1] == s
        for e in acquire_edges | release_edges
    ]
    kind = "lock" if tags and all(tags) else "test-and-set"
    held = frozenset(
        q for q, f in facts.items() if f is not None and _HELD in f
    )
    return Monitor(
        variable=s,
        kind=kind,
        acquire_sites=tuple(sorted({e.src for e in acquire_edges})),
        release_sites=tuple(sorted({e.src for e in release_edges})),
        held_at=held,
    )


def infer_monitors(cfa: CFA) -> tuple[Monitor, ...]:
    """Infer every validated monitor of the thread template.

    Candidates are all written globals; each is validated independently
    (one flag's demotion never affects another's proof), so a single pass
    suffices.  Results are sorted by variable name for deterministic
    downstream reports.
    """
    written: set[str] = set()
    for e in cfa.edges:
        written.update(e.op.writes() & cfa.globals)
    monitors = []
    for s in sorted(written):
        m = _monitor_dataflow(cfa, s)
        if m is not None:
            monitors.append(m)
    return tuple(monitors)


def held_locks(
    cfa: CFA, monitors: Iterable[Monitor] | None = None
) -> dict[int, frozenset[str]]:
    """The kill-set map: synchronization surely held at each location.

    Atomic locations hold the :data:`ATOMIC_LOCK` pseudo-lock (at most
    one thread occupies an atomic location at a time: while it does, no
    other thread is scheduled, so a second thread can never *enter* an
    atomic location).  Monitor variables appear wherever their
    must-dataflow proved ``held``.
    """
    if monitors is None:
        monitors = infer_monitors(cfa)
    held: dict[int, set[str]] = {q: set() for q in cfa.locations}
    for q in cfa.atomic:
        held[q].add(ATOMIC_LOCK)
    for m in monitors:
        for q in m.held_at:
            held[q].add(m.variable)
    return {q: frozenset(s) for q, s in held.items()}


def describe_locks(locks: Iterable[str]) -> str:
    """Name held locks for a verdict reason: ``atomic sections, monitor 's'``."""
    return ", ".join(
        "atomic sections" if m == ATOMIC_LOCK else f"monitor {m!r}"
        for m in locks
    )
