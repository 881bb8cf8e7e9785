"""Markdown audit reports: the Section 6 workflow as a reusable artifact.

``audit`` runs the full pipeline on one thread template -- baseline
checkers first, CIRC on everything they flag (or on every written global)
-- and ``render_markdown`` turns the outcome into a report a reviewer can
read without the tool: per-variable verdicts, the discovered predicates and
context sizes for proofs, and replayed interleavings for races.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from ..baselines.lockset import lockset_analysis
from ..cfa.cfa import CFA
from ..circ.circ import circ
from ..circ.result import CircSafe, CircUnsafe
from ..smt.terms import pretty
from .spec import racy_variables

__all__ = [
    "VariableAudit",
    "AuditReport",
    "audit",
    "render_markdown",
    "ReportRow",
    "REPORT_SCHEMA",
    "PRIMARY_SOURCE_PREFIXES",
    "rows_to_payload",
    "render_rows_table",
    "rows_from_static",
    "rows_from_batch",
    "rows_from_portfolio",
    "rows_from_baselines",
]

#: Version tag of the machine-readable row schema shared by
#: ``repro-race static --json`` and ``repro-race batch --json``.
REPORT_SCHEMA = "repro-race/report-v1"

#: Source prefixes of *primary* rows -- the one verdict per query that
#: decides exit codes and shard-merge reconciliation.  Portfolio
#: payloads additionally carry one informational row per attempted
#: analysis (``racer``, ``absint``, ``lockset``, ...), which never
#: shadow a decided query.  ``repro.serve.protocol.exit_code_for`` and
#: ``repro.shard.merge`` both consume this contract.
PRIMARY_SOURCE_PREFIXES = (
    "static",
    "cache",
    "circ",
    "budget",
    "portfolio:",
)


@dataclass(frozen=True)
class ReportRow:
    """One row of the shared machine-readable report schema.

    Every JSON-emitting subcommand reports per-query outcomes in this
    exact shape so downstream tooling parses one format:

    * ``model`` -- program/model name the query belongs to;
    * ``variable`` -- the shared variable checked;
    * ``verdict`` -- ``safe`` | ``race`` | ``unknown``;
    * ``source`` -- which layer produced the verdict (``static``,
      ``cache``, ``circ``, ``circ-warm``, ``portfolio:<analysis>``, or a
      baseline analysis name);
    * ``time_ms`` -- wall-clock spent on this query, milliseconds.
    """

    model: str
    variable: str
    verdict: str
    source: str
    time_ms: float
    detail: str = ""

    def to_obj(self) -> dict:
        return {
            "model": self.model,
            "variable": self.variable,
            "verdict": self.verdict,
            "source": self.source,
            "time_ms": round(self.time_ms, 3),
            "detail": self.detail,
        }


def rows_to_payload(rows, **extra) -> dict:
    """The canonical JSON payload wrapping shared-schema rows."""
    payload = {
        "schema": REPORT_SCHEMA,
        "rows": [r.to_obj() for r in rows],
    }
    payload.update(extra)
    return payload


def render_rows_table(rows) -> str:
    """A fixed-width text table over shared-schema rows."""
    header = f"{'model':24s} {'variable':16s} {'verdict':8s} {'source':10s} {'time':>9s}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.model:24s} {r.variable:16s} {r.verdict:8s} "
            f"{r.source:10s} {r.time_ms:8.1f}ms"
        )
    return "\n".join(lines)


def rows_from_static(report, model: str) -> list[ReportRow]:
    """Shared-schema rows for a static pre-analysis report.

    Prunable verdicts are sound safety proofs (``safe`` / ``static``);
    ``must-check`` means the pre-analysis alone cannot decide, which in
    this schema is exactly an ``unknown`` verdict from the ``static``
    source.
    """
    rows = []
    for name, vv in sorted(report.verdicts.items()):
        rows.append(
            ReportRow(
                model=model,
                variable=name,
                verdict="safe" if vv.prunable else "unknown",
                source="static",
                time_ms=0.0,
                detail=f"{vv.verdict.value}: {vv.reason}",
            )
        )
    return rows


def rows_from_batch(report) -> list[ReportRow]:
    """Shared-schema rows for an engine :class:`~repro.engine.BatchReport`."""
    return [
        ReportRow(
            model=r.model,
            variable=r.variable,
            verdict=r.verdict,
            source=r.source,
            time_ms=r.time_ms,
            detail=r.detail,
        )
        for r in report.rows
    ]


def rows_from_portfolio(report, model: str) -> list[ReportRow]:
    """Shared-schema rows for one portfolio run: the reconciled verdict
    first (source ``portfolio:<winner>``), then one row per analysis so
    the report preserves who ran, who was cancelled, and how long each
    attempt took.  A cancelled analysis reports ``unknown`` -- it made
    no claim -- with the cancellation recorded in ``detail``.
    """
    winner = report.winner or "none"
    rows = [
        ReportRow(
            model=model,
            variable=report.variable,
            verdict=report.verdict,
            source=f"portfolio:{winner}",
            time_ms=report.total_ms,
            detail=f"shape {report.shape}",
        )
    ]
    for o in report.outcomes:
        rows.append(
            ReportRow(
                model=model,
                variable=report.variable,
                verdict="unknown" if o.cancelled else o.verdict,
                source=o.analysis,
                time_ms=o.time_ms,
                detail=o.detail,
            )
        )
    return rows


def rows_from_baselines(
    model: str,
    variable: str,
    racer=None,
    absint=None,
    lockset=None,
    stateless: str | None = None,
) -> list[ReportRow]:
    """Shared-schema rows for the ``baselines`` subcommand.

    The Eraser lockset discipline emits warnings, not verdicts, so its
    row is ``unknown``-on-warn (a warning proves nothing) and ``safe``
    only in the discipline's own limited sense -- the detail string keeps
    the distinction honest.  The racer and absint rows carry real
    verdicts with the standard meaning.
    """
    rows = []
    if racer is not None:
        rows.append(
            ReportRow(
                model=model,
                variable=variable,
                verdict=racer.verdict,
                source="racer",
                time_ms=racer.phase1_ms + racer.phase2_ms,
                detail=racer.reason,
            )
        )
    if absint is not None:
        rows.append(
            ReportRow(
                model=model,
                variable=variable,
                verdict=absint.verdict,
                source="absint",
                time_ms=absint.time_ms,
                detail=absint.reason,
            )
        )
    if lockset is not None:
        warns = lockset.warns_on(variable)
        locks = sorted(lockset.candidate.get(variable, ()))
        rows.append(
            ReportRow(
                model=model,
                variable=variable,
                verdict="unknown" if warns else "safe",
                source="lockset",
                time_ms=0.0,
                detail=(
                    f"{'warns' if warns else 'consistent discipline'}; "
                    f"candidate lockset {locks}"
                ),
            )
        )
    if stateless is not None:
        rows.append(
            ReportRow(
                model=model,
                variable=variable,
                verdict="safe" if stateless == "StatelessSafe" else "unknown",
                source="thread-modular",
                time_ms=0.0,
                detail=stateless,
            )
        )
    return rows


@dataclass
class VariableAudit:
    """The audit outcome for one shared variable."""

    variable: str
    lockset_warns: bool
    candidate_lockset: tuple[str, ...]
    verdict: str  # 'safe' | 'race' | 'undecided'
    elapsed_seconds: float = 0.0
    predicates: tuple = ()
    acfa_size: int = 0
    witness: tuple = ()
    n_threads: int = 0
    detail: str = ""


@dataclass
class AuditReport:
    """A full audit of a thread template."""

    name: str
    variables: list[VariableAudit] = field(default_factory=list)

    @property
    def races(self) -> list[VariableAudit]:
        return [v for v in self.variables if v.verdict == "race"]

    @property
    def proved(self) -> list[VariableAudit]:
        return [v for v in self.variables if v.verdict == "safe"]

    @property
    def undecided(self) -> list[VariableAudit]:
        return [v for v in self.variables if v.verdict == "undecided"]

    @property
    def false_positives(self) -> list[VariableAudit]:
        """Baseline warnings that CIRC discharged."""
        return [
            v
            for v in self.variables
            if v.lockset_warns and v.verdict == "safe"
        ]


def audit(
    cfa: CFA,
    name: str = "program",
    variables: Iterable[str] | None = None,
    **circ_options,
) -> AuditReport:
    """Run baselines + CIRC over the shared variables of ``cfa``."""
    lockset = lockset_analysis(cfa)
    targets = sorted(variables) if variables else sorted(racy_variables(cfa))
    report = AuditReport(name=name)
    for var in targets:
        entry = VariableAudit(
            variable=var,
            lockset_warns=lockset.warns_on(var),
            candidate_lockset=tuple(sorted(lockset.candidate.get(var, ()))),
            verdict="undecided",
        )
        start = time.perf_counter()
        result = circ(cfa, race_on=var, **circ_options)
        entry.elapsed_seconds = time.perf_counter() - start
        if isinstance(result, CircSafe):
            entry.verdict = "safe"
            entry.predicates = result.predicates
            entry.acfa_size = result.context.size
        elif isinstance(result, CircUnsafe):
            entry.verdict = "race"
            entry.witness = tuple(result.steps)
            entry.n_threads = result.n_threads
        else:
            entry.detail = result.reason
        report.variables.append(entry)
    return report


def render_markdown(report: AuditReport) -> str:
    """Render an :class:`AuditReport` as a Markdown document."""
    lines = [f"# Race audit: {report.name}", ""]
    lines.append(
        f"{len(report.variables)} shared variable(s) checked; "
        f"{len(report.proved)} proved race-free, "
        f"{len(report.races)} racy, "
        f"{len(report.false_positives)} baseline false positive(s) "
        "discharged."
    )
    lines.append("")
    lines.append("| variable | lockset | CIRC | time | detail |")
    lines.append("|---|---|---|---|---|")
    for v in report.variables:
        lockset = "warns" if v.lockset_warns else "ok"
        if v.verdict == "safe":
            detail = (
                f"{len(v.predicates)} predicates, ACFA {v.acfa_size}"
                if v.acfa_size
                else v.detail or "-"
            )
        elif v.verdict == "race":
            detail = f"witness with {v.n_threads} threads"
        else:
            detail = v.detail or "-"
        lines.append(
            f"| `{v.variable}` | {lockset} | **{v.verdict}** "
            f"| {v.elapsed_seconds:.1f}s | {detail} |"
        )
    for v in report.variables:
        if v.verdict == "safe" and v.predicates:
            lines.append("")
            lines.append(f"## `{v.variable}`: proof artifacts")
            lines.append("")
            lines.append("Discovered predicates:")
            lines.append("")
            for p in v.predicates:
                lines.append(f"- `{pretty(p)}`")
        elif v.verdict == "race":
            lines.append("")
            lines.append(f"## `{v.variable}`: race witness")
            lines.append("")
            lines.append("```")
            for tid, edge in v.witness:
                lines.append(f"T{tid}: {edge.op}")
            lines.append("```")
    lines.append("")
    return "\n".join(lines)
