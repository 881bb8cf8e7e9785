"""A warm ArgStore is a pure accelerator across repeated CIRC runs.

Re-verifying a program against the store its first run filled must
return the same verdict, the same discovered predicates, and the same
exploration statistics, while answering from the store's result memo,
under plain CIRC and omega-CIRC alike.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.circ.circ import circ
from repro.circ.result import CircSafe, CircUnsafe
from repro.fuzz.gen import GenConfig, generate
from repro.lang.lower import lower_thread
from repro.reach import ArgStore

SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
seeds = st.integers(min_value=0, max_value=100_000)
variants = st.sampled_from(("circ", "omega"))

# The iteration budget binds first: of 212 sampled runs, every one that
# finished took at most 10 inner iterations, and seed 72396 under omega,
# which needs more, completes its 12th in about 2 s on a 2-CPU machine
# while its 14th alone takes about 13 s.  The wall clock stays as a
# backstop for a single slow iteration.
BUDGET = dict(max_outer=6, max_inner=40, max_iterations=12, timeout_s=20.0)


def _run(cfa, race_on, **kwargs):
    """CIRC under ``BUDGET``; None when it gave up other than on its
    iteration budget.  Such runs are not compared: where the wall clock
    cuts a run depends on the machine's speed."""
    result = circ(cfa, race_on=race_on, **BUDGET, **kwargs)
    if result.unknown and not result.reason.startswith("iteration budget"):
        return None
    return result


def _observables(result):
    obs = {
        "kind": type(result).__name__,
        "predicates": tuple(p.key() for p in result.predicates),
        "outer": result.stats.outer_iterations,
        "inner": result.stats.inner_iterations,
        "states": result.stats.abstract_states,
        "final_k": result.stats.final_k,
    }
    if isinstance(result, CircSafe):
        obs["acfa_size"] = result.context.size
    if isinstance(result, CircUnsafe):
        obs["steps"] = len(result.steps)
        obs["threads"] = result.n_threads
    return obs


@settings(**SETTINGS)
@given(seeds, variants)
@example(72396, "omega")  # its runs used to end on the wall clock
def test_shared_store_across_repeated_runs_is_stable(seed, variant):
    """Re-verifying the same program against a warm store changes
    nothing observable and reports result-level reuse."""
    gp = generate(seed, GenConfig(pointers=False))
    cfa = lower_thread(gp.program, gp.thread)
    store = ArgStore()
    first = _run(cfa, gp.race_var, store=store, variant=variant)
    if first is None:
        return
    second = _run(cfa, gp.race_var, store=store, variant=variant)
    if second is None:
        return
    assert _observables(second) == _observables(first)
    assert second.stats.reuse["result_hits"] > 0
