"""Incremental CIRC: re-verification against a warm, shared ArgStore.

The workload is the Fig 2-4 test-and-set query plus a refinement-heavy
slice of the fuzzer corpus (seeds picked for high outer/inner iteration
counts, i.e. many predicate-refinement restarts).  One persistent
:class:`~repro.reach.ArgStore` per item is shared across two passes:

* **cold** -- the first pass explores from empty stores and fills their
  post, omega and result memos;
* **warm** -- the second pass is the re-verification the store exists
  for, answering from retained subtrees and whole-run results.

SMT acceleration state (the shared query cache and the incremental
solver session) is reset before each cold pass, so the warm pass
inherits the SMT warmth of its own cold pass only.

Both passes must produce identical verdicts on every item: the store is
a pure accelerator.  The gate is ``speedup_reverify`` (cold over warm):
the warm pass must be at least 1.5x faster than the cold one.

Standalone run (writes ``BENCH_incremental.json``)::

    PYTHONPATH=src python benchmarks/bench_incremental.py [--quick]

Under pytest the same measurements run on the quick workload::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py -q
"""

import json
import time

from repro.circ.circ import circ
from repro.fuzz.gen import GenConfig, generate
from repro.lang import lower_source
from repro.lang.lower import lower_thread
from repro.nesc.programs import TEST_AND_SET_SOURCE
from repro.reach import ArgStore
from repro.smt.qcache import SAT_CACHE
from repro.smt.session import reset_default_session

#: Fuzzer seeds whose programs need several refinement restarts (3 outer /
#: 6-7 inner iterations each) -- the regime subtree reuse targets.
_REFINEMENT_HEAVY = (40, 32, 43, 45, 13, 34)

_BUDGET = dict(max_outer=6, max_inner=40, timeout_s=60.0)

#: The warm pass must beat its own cold pass by this factor.
SPEEDUP_BAR = 1.5


def workload_items(quick: bool = False) -> list[tuple[str, object, str]]:
    """(name, cfa, race variable) triples run by both passes."""
    items = [("fig2to4/x", lower_source(TEST_AND_SET_SOURCE), "x")]
    seeds = _REFINEMENT_HEAVY[:2] if quick else _REFINEMENT_HEAVY
    for seed in seeds:
        gp = generate(seed, GenConfig(pointers=False))
        items.append(
            (f"fuzz/{seed}", lower_thread(gp.program, gp.thread), gp.race_var)
        )
    return items


def run_pass(items, stores) -> dict[str, str]:
    """One pass over the workload; returns verdict kind per item."""
    verdicts = {}
    for (name, cfa, var), store in zip(items, stores):
        result = circ(cfa, race_on=var, store=store, **_BUDGET)
        verdicts[name] = type(result).__name__
    return verdicts


def _reset_acceleration() -> None:
    SAT_CACHE.clear()
    reset_default_session()


def run_modes(items, repeats: int = 2) -> dict:
    """Cold / warm shared-store timings (best of ``repeats``)."""
    cold = warm = float("inf")
    reuse_totals: dict[str, int] = {}
    for _ in range(repeats):
        _reset_acceleration()
        stores = [ArgStore() for _ in items]
        t0 = time.perf_counter()
        verdicts_cold = run_pass(items, stores)
        cold = min(cold, time.perf_counter() - t0)
        t0 = time.perf_counter()
        verdicts_warm = run_pass(items, stores)
        warm = min(warm, time.perf_counter() - t0)
        reuse_totals = {}
        for s in stores:
            for key, value in s.reuse_stats().items():
                reuse_totals[key] = reuse_totals.get(key, 0) + value

    assert verdicts_cold == verdicts_warm, (
        "the warm store changed a verdict: "
        f"{verdicts_cold} / {verdicts_warm}"
    )
    return {
        "timings_s": {"cold": round(cold, 4), "warm": round(warm, 4)},
        "speedup_reverify": round(cold / max(warm, 1e-9), 3),
        "verdicts": verdicts_warm,
        "reuse": {k: v for k, v in sorted(reuse_totals.items())},
    }


# -- pytest entry point (quick workload) --------------------------------------


def test_warm_store_beats_cold_and_verdicts_stable():
    items = workload_items(quick=True)
    data = run_modes(items)
    assert data["verdicts"]["fig2to4/x"] == "CircSafe"
    assert data["speedup_reverify"] >= SPEEDUP_BAR, data["timings_s"]
    # The warm pass is answered from the store, not re-explored.
    assert data["reuse"]["result_hits"] > 0, data["reuse"]


# -- standalone entry point ---------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fig 2-4 + two fuzz items (CI smoke); default runs six",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--out", default="BENCH_incremental.json")
    args = parser.parse_args(argv)

    items = workload_items(quick=args.quick)
    print(f"{len(items)} CIRC queries per pass, {args.repeats} repeat(s)")
    data = run_modes(items, repeats=args.repeats)

    t = data["timings_s"]
    print(f"cold {t['cold']:8.3f}s   warm {t['warm']:8.3f}s")
    print(f"re-verification speedup: {data['speedup_reverify']:.2f}x")
    r = data["reuse"]
    print(
        f"reuse: {r.get('result_hits', 0)} whole-run hits, "
        f"{r.get('main_post_hits', 0)} main-post hits, "
        f"{r.get('ctx_post_hits', 0)} context-post hits, "
        f"{r.get('entries_kept', 0)} entries kept / "
        f"{r.get('entries_invalidated', 0)} invalidated on refinement"
    )

    payload = {"benchmark": "incremental", "quick": args.quick, **data}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}")

    if data["speedup_reverify"] < SPEEDUP_BAR:
        print(f"FAIL: warm re-verification under the {SPEEDUP_BAR}x bar")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
