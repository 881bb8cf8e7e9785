"""Redundant-synchronization detection (the paper's second use case).

Section 1: race detectors "also allow more aggressive programming by
detecting redundant synchronizations (by verifying the safety of the
program without the synchronizations)."  In nesC this matters doubly:
atomic sections are implemented by disabling interrupts, so every
unnecessary one costs responsiveness.

``find_redundant_sync`` enumerates the synchronization constructs of a
program (atomic sections and lock/unlock pairs), removes each in turn, and
re-runs the CIRC verifier: a construct is *redundant for variable x* when
the program remains race-free on x without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..circ.circ import circ
from ..lang import ast as A
from ..lang.lower import lower_thread
from ..lang.parser import parse_program

__all__ = ["SyncSite", "RedundancyFinding", "find_redundant_sync"]


@dataclass(frozen=True)
class SyncSite:
    """One synchronization construct of the program."""

    kind: str  # 'atomic' | 'lock'
    ident: str  # description: source line for atomic, mutex name for locks
    index: int

    def __str__(self) -> str:
        if self.kind == "atomic":
            return f"atomic section #{self.index} (line {self.ident})"
        return f"lock discipline on {self.ident!r}"


@dataclass
class RedundancyFinding:
    """Verdict for one synchronization site."""

    site: SyncSite
    redundant: bool
    detail: str = ""


def _atomic_sites(thread: A.ThreadDef) -> list[A.Atomic]:
    sites: list[A.Atomic] = []

    def walk(stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                walk(s)
        elif isinstance(stmt, A.Atomic):
            sites.append(stmt)
            walk(stmt.body)
        elif isinstance(stmt, A.If):
            walk(stmt.then)
            if stmt.els is not None:
                walk(stmt.els)
        elif isinstance(stmt, A.While):
            walk(stmt.body)

    walk(thread.body)
    return sites


def _mutexes(thread: A.ThreadDef) -> list[str]:
    names: list[str] = []

    def walk(stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                walk(s)
        elif isinstance(stmt, A.Lock):
            if stmt.mutex not in names:
                names.append(stmt.mutex)
        elif isinstance(stmt, A.Atomic):
            walk(stmt.body)
        elif isinstance(stmt, A.If):
            walk(stmt.then)
            if stmt.els is not None:
                walk(stmt.els)
        elif isinstance(stmt, A.While):
            walk(stmt.body)

    walk(thread.body)
    return names


def _strip(
    stmt: A.Stmt, drop_atomic: Optional[A.Atomic], drop_mutex: Optional[str]
) -> A.Stmt:
    """Rebuild ``stmt`` with one synchronization construct removed."""
    if isinstance(stmt, A.Block):
        return A.Block(
            tuple(_strip(s, drop_atomic, drop_mutex) for s in stmt.stmts),
            stmt.line,
        )
    if isinstance(stmt, A.Atomic):
        body = _strip(stmt.body, drop_atomic, drop_mutex)
        if stmt is drop_atomic:
            return body  # unwrap: the body runs preemptibly
        return A.Atomic(body, stmt.line)
    if isinstance(stmt, A.If):
        return A.If(
            stmt.cond,
            _strip(stmt.then, drop_atomic, drop_mutex),
            _strip(stmt.els, drop_atomic, drop_mutex)
            if stmt.els is not None
            else None,
            stmt.line,
        )
    if isinstance(stmt, A.While):
        return A.While(
            stmt.cond, _strip(stmt.body, drop_atomic, drop_mutex), stmt.line
        )
    if isinstance(stmt, (A.Lock, A.Unlock)) and stmt.mutex == drop_mutex:
        return A.Skip(stmt.line)
    return stmt


def _variant_program(
    program: A.Program,
    tdef: A.ThreadDef,
    drop_atomic: Optional[A.Atomic],
    drop_mutex: Optional[str],
) -> A.Program:
    """The whole program with one synchronization construct removed."""
    stripped_threads = tuple(
        A.ThreadDef(
            t.name,
            _strip(t.body, drop_atomic, drop_mutex),
            t.line,
        )
        if t.name == tdef.name
        else t
        for t in program.threads
    )
    stripped_functions = tuple(
        A.Function(
            f.name,
            f.params,
            f.returns_value,
            _strip(f.body, drop_atomic, drop_mutex),
            f.line,
        )
        for f in program.functions
    )
    return A.Program(program.globals, stripped_functions, stripped_threads)


def _sync_sites(tdef: A.ThreadDef) -> list[tuple[SyncSite, object, object]]:
    """Every synchronization site with its (drop_atomic, drop_mutex) key."""
    sites: list[tuple[SyncSite, object, object]] = []
    for i, atomic in enumerate(_atomic_sites(tdef)):
        sites.append((SyncSite("atomic", str(atomic.line), i), atomic, None))
    for i, mutex in enumerate(_mutexes(tdef)):
        sites.append((SyncSite("lock", mutex, i), None, mutex))
    return sites


def find_redundant_sync(
    source: str,
    variable: str,
    thread: str | None = None,
    use_prefilter: bool = True,
    **circ_options,
) -> list[RedundancyFinding]:
    """Which synchronization constructs are unnecessary for race freedom
    on ``variable``?

    The baseline program must itself verify; otherwise a ValueError is
    raised (redundancy is only meaningful relative to a correct program).

    With ``use_prefilter`` (the default), each stripped variant is first
    classified by the static pre-analysis (:mod:`repro.static`): when the
    variable stays ``protected`` (or better) without the construct -- the
    remaining synchronization alone discharges it -- the site is reported
    redundant without re-running CIRC.  Only removals that leave the
    variable ``must-check`` pay for a full verification.
    """
    from ..static.classify import classify

    program = parse_program(source)
    tdef = program.thread(thread)

    def static_verdict(cfa):
        if not use_prefilter or variable not in cfa.globals:
            return None
        vv = classify(cfa, [variable]).verdict(variable)
        return vv if vv.prunable else None

    base_cfa = lower_thread(program, tdef.name)
    if static_verdict(base_cfa) is None:
        baseline = circ(base_cfa, race_on=variable, **circ_options)
        if baseline.unknown:
            raise ValueError(
                f"baseline verification undecided: {baseline.reason}"
            )
        if not baseline.safe:
            raise ValueError(
                f"the program already races on {variable!r}; "
                "redundancy analysis needs a race-free baseline"
            )

    findings: list[RedundancyFinding] = []

    def check_variant(site: SyncSite, drop_atomic, drop_mutex) -> None:
        variant = _variant_program(program, tdef, drop_atomic, drop_mutex)
        variant_cfa = lower_thread(variant, tdef.name)
        vv = static_verdict(variant_cfa)
        if vv is not None:
            findings.append(
                RedundancyFinding(
                    site,
                    True,
                    f"statically {vv.verdict.value} without it "
                    "(no CIRC run needed)",
                )
            )
            return
        result = circ(variant_cfa, race_on=variable, **circ_options)
        if result.unknown:
            findings.append(
                RedundancyFinding(site, False, f"undecided: {result.reason}")
            )
        elif result.safe:
            findings.append(
                RedundancyFinding(
                    site,
                    True,
                    "program remains race-free without it",
                )
            )
        else:
            findings.append(
                RedundancyFinding(
                    site,
                    False,
                    f"removal introduces a race "
                    f"({result.n_threads}-thread witness)",
                )
            )

    for site, drop_atomic, drop_mutex in _sync_sites(tdef):
        check_variant(site, drop_atomic, drop_mutex)
    return findings
