"""Test-only reference: disequalities decided by lazy splitting alone.

:func:`_sat_with_diseqs` here is the procedure that
:func:`repro.smt.lia.is_sat_with_diseqs` replaced, kept verbatim: it
solves the constraints by Fourier-Motzkin, and splits the first
disequality the model violates into its two strict halves, each branch
solved from scratch.  The parity suite (``test_diseq_parity.py``)
checks that the production procedure returns the same verdict on every
input, and that swapping this one in changes no CIRC answer.
"""

from __future__ import annotations

from repro.smt import lia
from repro.smt.linear import LinEq, LinLe


class _ZeroDefault(dict):
    """A model that reads unassigned variables as 0."""

    def __missing__(self, key):
        return 0


def _sat_with_diseqs(
    base: list[LinLe | LinEq], diseqs: list[tuple[LinLe, LinLe]]
) -> bool:
    result = lia.solve_conjunction(base)
    if not result.is_sat:
        return False
    env = _ZeroDefault(result.model or {})
    for i, (lo, hi) in enumerate(diseqs):
        if not lo.holds(env) and not hi.holds(env):
            rest = diseqs[:i] + diseqs[i + 1 :]
            return _sat_with_diseqs(base + [lo], rest) or _sat_with_diseqs(
                base + [hi], rest
            )
    return True
