"""The exploration kernel explores exactly like the reference loop.

Cartesian plain-CIRC runs (``variant="circ"``) with ``keep_history=True``
record the inputs of every inner iteration: predicates, counter bound and
context ACFA.  For each one the production
:func:`~repro.reach.explore.reach_and_build` and the reference loop in
``reach_reference.py`` run on the same inputs with fresh stores; every
output of the run must agree: the states explored,
the exported ARG and its per-location data, the reachable contexts, the
race trace and state, and the store's counters.

Both abstract domains explore the recorded inputs.  The boolean domain's
``Abs.P`` enumerates cubes, exponential in the predicate count: its runs
take the iterations with at most two predicates (about two thirds of
them), since the rest would cost tens of seconds of SMT work without
exercising any kernel code the others do not.
"""

from __future__ import annotations

import functools

import pytest

from repro.acfa.acfa import acfa_signature
from repro.circ import circ
from repro.context.state import AbstractProgram
from repro.fuzz.gen import GenConfig, generate
from repro.lang import lower_source
from repro.nesc import BENCHMARKS
from repro.nesc.programs import TEST_AND_SET_SOURCE
from repro.predabs.abstractor import Abstractor
from repro.predabs.region import PredicateSet
from repro.reach import AbstractRaceFound, ArgStore, reach_and_build

from . import reach_reference as reference

#: Fuzz programs after Figures 2-4 and the check-table1 Table 1 rows.
FUZZ_SEEDS = range(32)


def _queries():
    """(name, cfa, race variable) of every query."""
    out = [("fig2-4", lower_source(TEST_AND_SET_SOURCE), "x")]
    for b in BENCHMARKS:
        if b.key != "sense/tosPort":
            out.append(
                (
                    b.key,
                    lower_source(b.app.thread_source()),
                    b.variable.replace("_buggy", ""),
                )
            )
    for seed in FUZZ_SEEDS:
        gp = generate(seed, GenConfig(pointers=False))
        out.append((f"fuzz{seed}", lower_source(gp.source, gp.thread), "x"))
    return out


@functools.lru_cache(maxsize=None)
def _recorded():
    """Every query with the (predicates, k, context) of each inner
    iteration its cartesian CIRC run explored."""
    out = []
    for name, cfa, var in _queries():
        result = circ(
            cfa,
            race_on=var,
            variant="circ",
            keep_history=True,
            max_outer=25,
            max_inner=25,
            max_iterations=60,
        )
        iterations = [
            (rec.predicates, rec.k, rec.acfa)
            for rec in result.stats.history
            if rec.event in ("reach", "race")
        ]
        out.append((name, cfa, var, iterations))
    return out


def _explore(explore, program_class, cfa, abstractor, acfa, k, var):
    store = ArgStore()
    program = program_class(cfa, abstractor, acfa, k)
    try:
        r = explore(program, race_on=var, store=store)
    except AbstractRaceFound as exc:
        trace = [(type(m).__name__, m.edge) for m in exc.trace]
        return ("race", trace, exc.state), store.counters
    return (
        "ok",
        r.states_explored,
        r.arg.name,
        acfa_signature(r.arg),
        r.provenance,
        r.arg_pc,
        r.state_location,
        r.enabled_ctx_edges,
        r.reachable_contexts,
    ), store.counters


@pytest.mark.parametrize("mode, max_preds", [("cartesian", None), ("boolean", 2)])
def test_kernel_explores_like_reference(mode, max_preds):
    checked = 0
    for name, cfa, var, iterations in _recorded():
        # One abstractor per predicate set, shared by both runs: its memo
        # spares repeated SMT work; the stores, and so the counters, are
        # fresh for every run.
        abstractors: dict[tuple, Abstractor] = {}
        for preds, k, acfa in iterations:
            if max_preds is not None and len(preds) > max_preds:
                continue
            abstractor = abstractors.get(preds)
            if abstractor is None:
                abstractor = Abstractor(PredicateSet(preds), mode=mode)
                abstractors[preds] = abstractor
            kernel = _explore(
                reach_and_build, AbstractProgram, cfa, abstractor, acfa, k, var
            )
            ref = _explore(
                reference.reach_and_build,
                reference.ReferenceProgram,
                cfa,
                abstractor,
                acfa,
                k,
                var,
            )
            assert kernel == ref, (name, mode, preds, k)
            checked += 1
    assert checked >= 100
