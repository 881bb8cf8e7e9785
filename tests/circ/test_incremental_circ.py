"""A warm ArgStore is a pure accelerator across repeated CIRC runs.

Re-verifying a program against the store its first run filled must
return the same verdict, the same discovered predicates, and the same
exploration statistics, while answering from the store's result memo,
under plain CIRC and omega-CIRC alike.
"""

from hypothesis import HealthCheck, given, settings
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

BUDGET = dict(max_outer=6, max_inner=40, timeout_s=20.0)


def _run(cfa, race_on, **kwargs):
    """CIRC under ``BUDGET``; None when it gave up other than on its
    wall-clock budget (such runs are not compared)."""
    result = circ(cfa, race_on=race_on, **BUDGET, **kwargs)
    if result.unknown and not result.reason.startswith("wall-clock"):
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
def test_shared_store_across_repeated_runs_is_stable(seed, variant):
    """Re-verifying the same program against a warm store changes
    nothing observable and reports result-level reuse."""
    gp = generate(seed, GenConfig(pointers=False))
    cfa = lower_thread(gp.program, gp.thread)
    store = ArgStore()
    first = _run(cfa, gp.race_var, store=store, variant=variant)
    second = _run(cfa, gp.race_var, store=store, variant=variant)
    if first is None or second is None:
        return
    assert _observables(second) == _observables(first)
    assert second.stats.reuse["result_hits"] > 0
