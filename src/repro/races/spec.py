"""The race-detection problem (Section 4.1) and a high-level checking API.

A state of the multithreaded program has a *race on x* when two distinct
threads have enabled accesses to ``x``, at least one of them a write, and no
thread occupies an atomic location.  ``Write.i.x`` / ``Read.i.x`` are
location-level: a thread can write (read) ``x`` if some out-edge of its
current location assigns (reads) it.

``check_race`` is the front door of the library: it takes program source or
a CFA and dispatches to the CIRC verifier (sound for unboundedly many
threads) or the explicit-state explorer (exact for a fixed thread count).
"""

from __future__ import annotations


from ..cfa.cfa import CFA
from ..circ.circ import circ
from ..circ.result import CircResult
from ..exec.interp import ExploreResult, MultiProgram, explore
from ..lang.lower import lower_source

__all__ = [
    "racy_variables",
    "shared_variables",
    "check_race",
    "check_race_bounded",
]


def shared_variables(cfa: CFA) -> frozenset[str]:
    """Globals accessed anywhere in the thread (race candidates)."""
    out: set[str] = set()
    for q in cfa.locations:
        out.update(cfa.accesses_at(q) & cfa.globals)
    return frozenset(out)


def racy_variables(cfa: CFA) -> frozenset[str]:
    """Globals written somewhere (only written variables can race)."""
    out: set[str] = set()
    for q in cfa.locations:
        out.update(cfa.writes_at(q) & cfa.globals)
    return frozenset(out)


def _as_cfa(program: str | CFA, thread: str | None = None) -> CFA:
    if isinstance(program, CFA):
        return program
    return lower_source(program, thread)


def check_race(
    program: str | CFA,
    variable: str,
    thread: str | None = None,
    prefilter: bool = False,
    **circ_options,
) -> CircResult:
    """Prove or refute race freedom on ``variable`` for unboundedly many
    symmetric threads, via the CIRC algorithm.

    ``program`` may be mini-C source text or a lowered CFA.  Keyword options
    are forwarded to :func:`repro.circ.circ` (``variant="circ"`` selects
    plain CIRC instead of the default infinity-check variant, ``k`` the
    initial counter, ...).

    With ``prefilter=True`` the static pre-analysis
    (:mod:`repro.static`) runs first: when it classifies ``variable`` as
    ``local``, ``read-shared``, or ``protected``, a
    :class:`~repro.static.StaticSafe` proof is returned without invoking
    CIRC at all.  The verdict is unchanged either way -- the pre-analysis
    only prunes variables it can prove safe -- but pruned variables skip
    the whole CEGAR loop.

    For the artifact cache, run the query through
    :func:`repro.engine.verify_one` instead.

    On every path a CIRC run that gives up (a budget ran out, or a
    refinement stalled) returns a
    :class:`~repro.circ.result.CircUnknown`.
    """
    cfa = _as_cfa(program, thread)
    cfa.require_global(variable)
    if prefilter:
        from ..static.prefilter import prefilter_check

        return prefilter_check(cfa, variable, **circ_options)
    return circ(cfa, race_on=variable, **circ_options)


def check_race_bounded(
    program: str | CFA,
    variable: str,
    n_threads: int = 2,
    thread: str | None = None,
    max_states: int = 200_000,
) -> ExploreResult:
    """Exact explicit-state race check for a fixed number of threads."""
    cfa = _as_cfa(program, thread)
    mp = MultiProgram.symmetric(cfa, n_threads)
    return explore(mp, race_on=variable, max_states=max_states)
