"""Differential testing: CIRC vs the exhaustive explicit-state oracle.

Random finite-state programs are generated from a small structured grammar
(toggles, constant writes, guards, optional atomic protection).  For each,
the CIRC verdict for unboundedly many threads is compared against
exhaustive exploration with 2 and 3 threads:

* CIRC-unsafe verdicts carry replayed witnesses, so they are always
  genuine: the oracle must (with enough threads) agree;
* CIRC-safe verdicts cover every thread count, so the oracle must find
  no race at any bounded instance.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circ import circ
from repro.exec import MultiProgram, explore
from repro.lang import lower_source

# Statement templates over globals x (the race candidate) and s (a guard).
_PROTECTED_BODIES = [
    "atomic {{ x = 1 - x; }}",
    "atomic {{ if (s == 0) {{ x = 1; }} }}",
    "lock(m); x = 1 - x; unlock(m);",
    "atomic {{ assume(s == 0); s = 1; }} x = 1 - x; s = 0;",
]

_UNPROTECTED_BODIES = [
    "x = 1 - x;",
    "if (s == 0) {{ x = 1; }} else {{ x = 0; }}",
    "s = 1; x = s; s = 0;",
]

_FILLER = [
    "skip;",
    "atomic {{ s = 0; }}",
    "if (*) {{ skip; }}",
]


@st.composite
def programs(draw):
    protected = draw(st.booleans())
    body_pool = _PROTECTED_BODIES if protected else _UNPROTECTED_BODIES
    body = draw(st.sampled_from(body_pool))
    filler = draw(st.sampled_from(_FILLER))
    order = draw(st.booleans())
    stmts = [body, filler] if order else [filler, body]
    src = (
        "global int x, s, m;\n"
        "thread main {\n  while (1) {\n    "
        + "\n    ".join(s.format() for s in stmts)
        + "\n  }\n}\n"
    )
    return src


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(programs())
def test_circ_agrees_with_oracle(src):
    cfa = lower_source(src)
    verdict = circ(cfa, race_on="x", max_states=120_000)
    if verdict.unknown:
        pytest.skip("budget exhausted on this sample")
    for n in (2, 3):
        oracle = explore(
            MultiProgram.symmetric(cfa, n), race_on="x", max_states=150_000
        )
        if not oracle.complete:
            continue
        if verdict.safe:
            assert not oracle.found, f"CIRC said safe but {n} threads race:\n{src}"
        # CIRC-unsafe: the oracle may need more threads than n, so only the
        # safe direction is asserted per n...
    if not verdict.safe:
        # ...but the witness itself must replay at its own thread count.
        from repro.exec import replay

        mp = MultiProgram.symmetric(cfa, verdict.n_threads)
        ok, _ = replay(mp, verdict.steps, race_on="x")
        assert ok, f"unsafe witness failed replay:\n{src}"
