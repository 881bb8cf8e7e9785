"""The incremental SMT acceleration layer on the Fig 2-4 iteration workload.

Three measurements over the same CIRC runs (test-and-set with history
capture, plus the fast Table 1 rows unless ``--quick``):

* **nocache** -- the shared query cache disabled and the incremental
  session dropped before the run: every query pays encoding and theory
  work (the pre-acceleration baseline);
* **cold** -- caches cleared, acceleration on: first run populates the
  canonical-key cache and the live session;
* **warm** -- the same run again: queries answer from the cache and the
  session's retained encodings/lemmas.

Every mode must produce identical verdicts -- the cache and the session
are pure accelerators.  The CI gate is the warm/cold ratio of the SMT
stage's own wall time (``PROFILER.totals()["wall_s"]``, the time spent
inside solver queries): a cached re-run's queries may never take longer
than those of the run that filled the cache.  The whole-run ratio is
reported too, but the run is mostly reach and refinement, which the
cache does not touch, so it measures the cache only faintly.

Standalone run (writes ``BENCH_smt.json``)::

    PYTHONPATH=src python benchmarks/bench_smt.py [--quick]

Under pytest the same measurements run on the quick workload::

    PYTHONPATH=src python -m pytest benchmarks/bench_smt.py -q
"""

import json
import time

from repro.circ import circ
from repro.lang import lower_source
from repro.nesc import BENCHMARKS
from repro.nesc.programs import TEST_AND_SET_SOURCE
from repro.smt.profile import PROFILER
from repro.smt.qcache import SAT_CACHE
from repro.smt.session import default_session, reset_default_session

#: Skipped outside --full runs (dominates wall-clock, adds no coverage).
_SLOW = {"sense/tosPort"}


def workload_items(quick: bool = False) -> list[tuple[str, object, str]]:
    """(name, cfa, race variable) triples run by every mode."""
    items = [
        ("fig2to4/x", lower_source(TEST_AND_SET_SOURCE), "x"),
    ]
    if not quick:
        for b in BENCHMARKS:
            if b.key in _SLOW:
                continue
            items.append(
                (b.key, b.app.cfa(), b.variable.replace("_buggy", ""))
            )
    return items


def run_workload(items) -> dict[str, bool]:
    """One pass over every query; returns verdict-safe per item."""
    verdicts = {}
    for name, cfa, var in items:
        keep = name.startswith("fig2to4")
        result = circ(cfa, race_on=var, keep_history=keep)
        verdicts[name] = bool(result.safe)
    return verdicts


def _reset_acceleration() -> None:
    SAT_CACHE.clear()
    reset_default_session()


def _timed_pass(items) -> tuple[dict[str, bool], float, float]:
    """Verdicts, wall time and SMT-stage wall time of one pass."""
    PROFILER.reset()
    t0 = time.perf_counter()
    verdicts = run_workload(items)
    return verdicts, time.perf_counter() - t0, PROFILER.totals()["wall_s"]


def run_modes(items, repeats: int = 3) -> dict:
    """nocache / cold / warm timings (best of ``repeats``) + stats."""
    wall = {"nocache": float("inf"), "cold": float("inf"), "warm": float("inf")}
    smt = dict(wall)

    def best(mode: str) -> dict[str, bool]:
        verdicts, wall_s, smt_s = _timed_pass(items)
        wall[mode] = min(wall[mode], wall_s)
        smt[mode] = min(smt[mode], smt_s)
        return verdicts

    # nocache: acceleration off entirely.
    SAT_CACHE.enabled = False
    try:
        for _ in range(repeats):
            _reset_acceleration()
            verdicts_nocache = best("nocache")
    finally:
        SAT_CACHE.enabled = True

    # cold: acceleration on, but every repeat starts from empty state.
    for _ in range(repeats):
        _reset_acceleration()
        verdicts_cold = best("cold")

    # warm: re-run on the state the last cold repeat left behind.
    for _ in range(repeats):
        verdicts_warm = best("warm")
    nocache_s, cold_s, warm_s = wall["nocache"], wall["cold"], wall["warm"]

    assert verdicts_nocache == verdicts_cold == verdicts_warm, (
        "acceleration changed a verdict: "
        f"{verdicts_nocache} / {verdicts_cold} / {verdicts_warm}"
    )
    return {
        "timings_s": {
            "nocache": round(nocache_s, 4),
            "cold": round(cold_s, 4),
            "warm": round(warm_s, 4),
        },
        "smt_wall_s": {mode: round(s, 4) for mode, s in smt.items()},
        "speedup_warm_vs_cold": round(cold_s / max(warm_s, 1e-9), 3),
        "smt_speedup_warm_vs_cold": round(smt["cold"] / max(smt["warm"], 1e-9), 3),
        "speedup_warm_vs_nocache": round(
            nocache_s / max(warm_s, 1e-9), 3
        ),
        "verdicts": verdicts_warm,
        "cache_stats": SAT_CACHE.stats(),
        "session_stats": default_session().stats.to_obj(),
        "profile_warm": PROFILER.snapshot(),
    }


# -- pytest entry point (quick workload) --------------------------------------


def test_warm_runs_never_slower_and_verdicts_stable():
    items = workload_items(quick=True)
    data = run_modes(items)
    assert data["verdicts"]["fig2to4/x"] is True  # test-and-set is safe
    assert data["smt_speedup_warm_vs_cold"] >= 1.0, data["smt_wall_s"]
    # Warm runs answer overwhelmingly from the cache.
    stats = data["cache_stats"]
    assert stats["hits"] > stats["misses"], stats


# -- standalone entry point ---------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fig 2-4 workload only (CI smoke); default adds Table 1",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_smt.json")
    parser.add_argument(
        "--min-baseline-speedup",
        type=float,
        default=0.5,
        help="fail if warm wall-clock regresses below this speedup over "
        "the committed baseline file; >= 1.0 is expected on the machine "
        "that produced the baseline, and the loose default absorbs "
        "machine-to-machine variance while still catching a layer that "
        "genuinely regressed (same-run gates stay strict)",
    )
    args = parser.parse_args(argv)

    # The committed baseline, read before this run overwrites it.
    baseline = None
    try:
        with open(args.out) as fh:
            prior = json.load(fh)
        if prior.get("quick") == args.quick:
            baseline = prior
    except (OSError, ValueError):
        pass

    items = workload_items(quick=args.quick)
    print(f"{len(items)} CIRC queries per mode, {args.repeats} repeat(s)")
    data = run_modes(items, repeats=args.repeats)

    t = data["timings_s"]
    print(
        f"nocache {t['nocache']:8.3f}s   cold {t['cold']:8.3f}s   "
        f"warm {t['warm']:8.3f}s"
    )
    print(
        f"warm speedup: {data['speedup_warm_vs_cold']:.2f}x over cold, "
        f"{data['speedup_warm_vs_nocache']:.2f}x over no acceleration"
    )
    st = data["smt_wall_s"]
    print(
        f"SMT stage: nocache {st['nocache']:.4f}s   cold {st['cold']:.4f}s   "
        f"warm {st['warm']:.4f}s   warm speedup "
        f"{data['smt_speedup_warm_vs_cold']:.2f}x over cold"
    )
    cs = data["cache_stats"]
    print(
        f"cache: {cs['hits']} hits / {cs['misses']} misses, "
        f"size {cs['size']}, {cs['evictions']} evictions"
    )

    if baseline is not None:
        base_warm = baseline.get("timings_s", {}).get("warm")
        if base_warm:
            data["baseline_warm_s"] = base_warm
            data["speedup_warm_vs_baseline"] = round(
                base_warm / max(t["warm"], 1e-9), 3
            )
            print(
                f"vs committed baseline: warm {base_warm:.3f}s -> "
                f"{t['warm']:.3f}s "
                f"({data['speedup_warm_vs_baseline']:.2f}x)"
            )

    payload = {"benchmark": "smt", "quick": args.quick, **data}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}")

    failed = False
    if data["smt_speedup_warm_vs_cold"] < 1.0:
        print("FAIL: the cached re-run's SMT queries took longer than the cold run's")
        failed = True
    if baseline is not None:
        if data.get("verdicts") != baseline.get("verdicts"):
            print("FAIL: verdicts differ from the committed baseline")
            failed = True
        ratio = data.get("speedup_warm_vs_baseline")
        if ratio is not None and ratio < args.min_baseline_speedup:
            print(
                f"FAIL: warm run regressed vs committed baseline "
                f"({ratio:.2f}x < {args.min_baseline_speedup:.2f}x)"
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
