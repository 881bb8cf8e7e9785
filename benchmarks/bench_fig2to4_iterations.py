"""Figures 2-4: the per-iteration ARGs and minimized ACFAs of Section 2.

The paper walks CIRC through the test-and-set example:

* **Figure 2** -- iteration 1: the ARG G1 of the predicate-free sequential
  exploration (all labels true) and its minimization A1, which collapses
  the atomic block into a single abstract location;
* **Figure 3** -- iteration 3: after the first refinement (predicates about
  ``old``), the only path to the x-write is feasible per thread;
* **Figure 4** -- iteration 5: after the second refinement the ARG vertices
  carry the values of ``state``.

This bench re-runs CIRC with history capture and regenerates each
snapshot, checking the structural properties the paper highlights.
"""

from repro.acfa.collapse import collapse
from repro.circ import circ
from repro.lang import lower_source
from repro.nesc.programs import TEST_AND_SET_SOURCE
from repro.smt import terms as T


def run_with_history():
    cfa = lower_source(TEST_AND_SET_SOURCE)
    return cfa, circ(cfa, race_on="x", variant="circ", keep_history=True)


def test_fig2_iteration1_arg_and_minimization(benchmark):
    """G1 has one location per CFA point labeled true; A1 merges the
    atomic block (the paper: locations I/II* /III with {state} and
    {x, state} havocs)."""
    cfa = lower_source(TEST_AND_SET_SOURCE)

    def first_reach():
        from repro.acfa.acfa import empty_acfa
        from repro.reach import reach_and_build
        from repro.context.state import AbstractProgram
        from repro.predabs.abstractor import Abstractor
        from repro.predabs.region import PredicateSet

        prog = AbstractProgram(cfa, Abstractor(PredicateSet()), empty_acfa(), 1)
        return reach_and_build(prog, race_on="x")

    reach = benchmark(first_reach)
    g1 = reach.arg
    assert g1.size == len(cfa.locations)  # one location per CFA point
    assert all(label == () for label in g1.label.values())  # 'just true'

    a1, _ = collapse(g1, cfa.locals)
    print("\n--- Figure 2(a): ARG G1 ---")
    print(g1)
    print("--- Figure 2(b): minimized A1 ---")
    print(a1)
    # The atomic block collapses: A1 is strictly smaller than G1 and has a
    # single atomic location.
    assert a1.size < g1.size
    assert sum(1 for q in a1.locations if a1.is_atomic(q)) == 1
    # The x write survives minimization.
    assert any("x" in e.havoc for e in a1.edges)
    benchmark.extra_info["G1"] = g1.size
    benchmark.extra_info["A1"] = a1.size


def test_fig3_fig4_refinement_progression(benchmark):
    """The history shows the paper's progression: a refinement discovering
    the old-predicates, a later one discovering the state values, and a
    final converged ARG whose labels track state (Figure 4)."""
    cfa, result = benchmark.pedantic(run_with_history, rounds=1, iterations=1)
    assert result.safe

    refinements = [
        rec for rec in result.stats.history if rec.event == "refine"
    ]
    assert refinements, "at least one refinement must occur"
    mined = {
        T.pretty(p) for rec in refinements for p in rec.new_predicates
    }
    # Iteration 2's predicates (about old) and iteration 4's (about state).
    assert "old == state" in mined
    assert "old == 0" in mined
    assert "state == 0" in mined

    print("\n--- refinement progression (Figures 2-4) ---")
    for rec in result.stats.history:
        line = f"outer {rec.outer} inner {rec.inner}: {rec.event}"
        if rec.new_predicates:
            line += "  +" + ", ".join(
                T.pretty(p) for p in rec.new_predicates
            )
        if rec.arg is not None:
            line += f"  (ARG size {rec.arg.size})"
        print(line)

    converged = [r for r in result.stats.history if r.event == "converged"]
    assert converged
    g_final = converged[-1].arg
    # Figure 4: the final ARG's vertices contain the values of state.
    state_labeled = [
        q
        for q in g_final.locations
        if any("state" in T.free_vars(lit) for lit in g_final.label[q])
    ]
    assert state_labeled, "final ARG must track state values"
    print("--- Figure 4 analogue: final ARG G5 ---")
    print(g_final)
