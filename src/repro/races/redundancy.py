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


def _find_redundant_engine(
    program: A.Program,
    tdef: A.ThreadDef,
    variable: str,
    use_prefilter: bool,
    cache_dir: str | None,
    workers: int | None,
    circ_options: dict,
) -> list[RedundancyFinding]:
    """Engine-backed redundancy audit: one batch over every variant.

    The baseline and all stripped variants go through a single
    :func:`repro.engine.run_batch` call, so variants whose slices for
    ``variable`` are byte-identical (removals that never touch its
    accesses) deduplicate to one CIRC run, and repeat audits answer
    from the artifact cache.
    """
    from ..engine import BatchItem, run_batch
    from ..lang.unparse import unparse

    sites = _sync_sites(tdef)
    items = [
        BatchItem(
            model="baseline",
            source=unparse(program),
            thread=tdef.name,
            variables=(variable,),
        )
    ]
    for n, (_, drop_atomic, drop_mutex) in enumerate(sites):
        variant = _variant_program(program, tdef, drop_atomic, drop_mutex)
        items.append(
            BatchItem(
                model=f"variant-{n}",
                source=unparse(variant),
                thread=tdef.name,
                variables=(variable,),
            )
        )

    report = run_batch(
        items,
        cache_dir=cache_dir,
        workers=workers,
        prefilter=use_prefilter,
        **circ_options,
    )
    by_model = {row.model: row for row in report.rows}

    baseline = by_model["baseline"]
    if baseline.verdict != "safe":
        raise ValueError(
            f"the program already races on {variable!r}; "
            "redundancy analysis needs a race-free baseline"
            if baseline.verdict == "race"
            else f"baseline verification undecided: {baseline.detail}"
        )

    findings: list[RedundancyFinding] = []
    for n, (site, _, _) in enumerate(sites):
        row = by_model[f"variant-{n}"]
        if row.verdict == "safe":
            detail = (
                f"statically safe without it ({row.detail}; "
                "no CIRC run needed)"
                if row.source == "static"
                else "program remains race-free without it"
            )
            findings.append(RedundancyFinding(site, True, detail))
        elif row.verdict == "race":
            n_threads = getattr(row.result, "n_threads", 0)
            findings.append(
                RedundancyFinding(
                    site,
                    False,
                    f"removal introduces a race "
                    f"({n_threads}-thread witness)",
                )
            )
        else:
            findings.append(
                RedundancyFinding(site, False, f"undecided: {row.detail}")
            )
    return findings


def find_redundant_sync(
    source: str,
    variable: str,
    thread: str | None = None,
    use_prefilter: bool = True,
    engine: bool = False,
    cache_dir: str | None = None,
    workers: int | None = None,
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

    With ``engine=True`` the baseline and every stripped variant are
    submitted as one batch to the verification engine
    (:mod:`repro.engine`): variants whose relevant slices coincide are
    verified once, verdicts persist in the artifact cache under
    ``cache_dir``, and independent variants run in parallel over
    ``workers`` processes.
    """
    from ..static.classify import classify

    program = parse_program(source)
    tdef = program.thread(thread)

    if engine:
        return _find_redundant_engine(
            program,
            tdef,
            variable,
            use_prefilter,
            cache_dir,
            workers,
            circ_options,
        )

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
