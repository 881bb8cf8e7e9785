"""The infinity-check kernel answers exactly like the reference loop.

omega-CIRC runs over Figures 2-4, the check-table1 Table 1 rows and fuzz
programs record every ``omega_check`` call: the converged ARG, the
context ACFA, the CFA and the counter bound.  The runs answer each call
with the reference, so the recorded inputs do not depend on the kernel
under test.  For each call the production :mod:`repro.circ.omega` and
the reference loop in ``omega_reference.py`` must compute the same
configuration list in the same order, the same enabledness answer for
every (context edge, ACFA location) pair, and the same verdict.  The
same holds under the budget fallback, where both reachabilities give up
and enabledness coarsens to graph reachability.
"""

from __future__ import annotations

import functools
import importlib
from unittest import mock

from repro.circ import circ, omega
from repro.reach import ArgStore

from . import omega_reference as reference
from .test_reach_parity import _queries

#: The fallback budget: below every checked call's configuration count.
SMALL_BUDGET = 3


@functools.lru_cache(maxsize=None)
def _recorded():
    """(name, reach, acfa, cfa, k) of every ``omega_check`` call the
    omega-CIRC runs make, empty contexts excluded (they return before the
    reachability)."""
    circ_module = importlib.import_module("repro.circ.circ")
    calls = []
    name = None

    def record(reach, acfa, cfa, k, store):
        if not acfa.is_empty():
            calls.append((name, reach, acfa, cfa, k))
        return reference.omega_check(reach, acfa, cfa, k, store)

    with mock.patch.object(circ_module, "omega_check", record):
        for name, cfa, var in _queries():
            circ(
                cfa,
                race_on=var,
                variant="omega",
                max_outer=25,
                max_inner=25,
                max_iterations=60,
            )
    return calls


def _enabled_answers(acfa, enabled):
    return [enabled(e, q) for e in acfa.edges for q in acfa.locations]


def _kernel_enabled(acfa, configs):
    return omega._enabledness(acfa, omega._enabled_pairs(configs, acfa))


def test_kernel_computes_reference_configurations_and_enabledness():
    calls = _recorded()
    assert len(calls) >= 10
    for name, _, acfa, cfa, k in calls:
        configs = omega._context_only_reach(acfa, cfa, k)
        ref = reference.context_only_reach(acfa, cfa, k)
        assert configs is not None, name
        assert configs == ref, name
        assert _enabled_answers(
            acfa, _kernel_enabled(acfa, configs)
        ) == _enabled_answers(acfa, reference.enabledness(acfa, ref)), name


def test_kernel_verdicts_match_reference():
    for name, reach, acfa, cfa, k in _recorded():
        assert omega.omega_check(
            reach, acfa, cfa, k, ArgStore()
        ) == reference.omega_check(reach, acfa, cfa, k, ArgStore()), name


def test_budget_fallback_matches_reference(monkeypatch):
    checked = 0
    for name, reach, acfa, cfa, k in _recorded():
        if len(omega._context_only_reach(acfa, cfa, k)) <= SMALL_BUDGET:
            continue
        assert omega._context_only_reach(acfa, cfa, k, SMALL_BUDGET) is None
        assert reference.context_only_reach(acfa, cfa, k, SMALL_BUDGET) is None
        assert _enabled_answers(
            acfa, _kernel_enabled(acfa, None)
        ) == _enabled_answers(acfa, reference.enabledness(acfa, None)), name
        with monkeypatch.context() as m:
            m.setattr(omega, "MAX_CONTEXT_STATES", SMALL_BUDGET)
            m.setattr(reference, "MAX_CONTEXT_STATES", SMALL_BUDGET)
            assert omega.omega_check(
                reach, acfa, cfa, k, ArgStore()
            ) == reference.omega_check(reach, acfa, cfa, k, ArgStore()), name
        checked += 1
    assert checked >= 10

