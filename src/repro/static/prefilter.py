"""The prefilter driver: static verdicts in front of the CIRC pipeline.

``prefilter_check`` is the fast path behind
``repro.races.check_race(..., prefilter=True)``: classify the variable,
return a :class:`StaticSafe` proof immediately when the verdict is
prunable, and fall through to :func:`repro.circ.circ` only for
``must-check`` variables.  ``StaticSafe`` quacks like
:class:`~repro.circ.result.CircSafe` (``safe``, ``predicates``,
``context``, ``stats``) so every downstream consumer -- the CLI, audits,
redundancy analysis -- handles both transparently; its empty context is
honest, since the proof needed no environment abstraction at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..acfa.acfa import empty_acfa
from ..cfa.cfa import CFA
from ..circ.circ import circ
from ..circ.result import CircResult, CircSafe, CircStats
from .classify import StaticReport, VariableVerdict, Verdict, classify

__all__ = ["StaticSafe", "prefilter_check"]


@dataclass
class StaticSafe(CircSafe):
    """Race freedom discharged by the static pre-analysis alone.

    A drop-in :class:`~repro.circ.result.CircSafe` with no predicates and
    the empty context, annotated with the verdict that justified pruning.
    """

    static_verdict: Verdict = Verdict.PROTECTED
    reason: str = ""

    @classmethod
    def from_verdict(
        cls, vv: VariableVerdict, elapsed_seconds: float
    ) -> "StaticSafe":
        """The proof a prunable verdict stands for."""
        return cls(
            variable=vv.variable,
            predicates=(),
            context=empty_acfa(),
            stats=CircStats(elapsed_seconds=elapsed_seconds),
            static_verdict=vv.verdict,
            reason=vv.reason,
        )

    def __str__(self) -> str:
        return (
            f"SAFE: no race on {self.variable!r}\n"
            f"  proved statically: {self.static_verdict.value} "
            f"-- {self.reason}\n"
            f"  (no CIRC run needed)"
        )


def prefilter_check(
    cfa: CFA,
    variable: str,
    report: StaticReport | None = None,
    **circ_options,
) -> CircResult:
    """Check race freedom on ``variable``, pruning statically when sound.

    ``report`` lets callers checking many variables share one
    classification run (see ``repro-race check --all``).
    """
    start = time.perf_counter()
    if report is None:
        report = classify(cfa, [variable])
    vv = report.verdict(variable)
    if vv.prunable:
        return StaticSafe.from_verdict(vv, time.perf_counter() - start)
    return circ(cfa, race_on=variable, **circ_options)
