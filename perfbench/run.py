"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch-cold --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the child processes import ``repro``
from ``src/`` there, through ``PYTHONPATH``.  Each
metric prints as ``name value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones, and the spans go to ``.perfbench/spans-*.json``.
The exit status is non-zero when a verdict contradicts the known answer.

This process never imports ``repro``.  It runs three kinds of children
in turn: ``prepare.py`` writes the queries and their known answers,
``prime.py`` times set-up in fresh interpreters, and ``measure.py`` runs
the timed phase, so that only the timed phase shows in ``peak_rss_mb``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def child_env() -> dict:
    """The environment of every child: ``repro`` from this checkout.

    Shard workers are separate interpreters too: without the path in
    ``PYTHONPATH`` they cannot import ``repro``, fail their handshake,
    and the batch silently runs in-process.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), path) if p)}


def child(script: str, *args: str, timeout: float) -> str:
    """Run a script of this directory; returns its standard output."""
    out = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    return out.stdout


def setup(workload, queries: Path, work: Path, repeats: int) -> tuple[float, Path | None]:
    """Run set-up ``repeats`` times, each in a fresh interpreter.

    Returns the median set-up time and, for a primed workload, the cache
    directory the last set-up primed.
    """
    spec = work / "setup.json"
    times = []
    cache = None
    for i in range(repeats):
        if workload.primed:
            if cache is not None:
                shutil.rmtree(cache)
            cache = work / f"primed{i}"
        spec.write_text(
            json.dumps(
                {
                    "imports": workload.imports,
                    "cache_dir": str(cache) if cache else None,
                    "queries": str(queries),
                }
            )
        )
        times.append(float(child("prime.py", str(spec), timeout=120).split()[-1]))
    return statistics.median(times), cache


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    limit: int | None = None,
    spans_path: Path | None = None,
) -> dict:
    """Run one workload; returns the result object the benchmark prints.

    ``limit`` caps the queries per pass (the smoke test runs tiny
    passes); ``work`` is a scratch directory the caller owns.
    """
    workload = WORKLOADS[name]
    work.mkdir(parents=True, exist_ok=True)
    queries = work / "queries.json"
    kind = "table1" if workload.pool is None else "corpus"
    count = min(filter(None, (workload.pool, limit)), default=None)
    child("prepare.py", kind, str(queries), *([str(count)] if count else []), timeout=120)

    setup_s, primed = setup(workload, queries, work, 1 if trace else SETUP_REPEATS)

    spec = work / "measure.json"
    spec.write_text(
        json.dumps(
            {
                "workload": name,
                "seed": seed,
                "seconds": seconds,
                "trace": trace,
                "queries": str(queries),
                "cache": str(primed) if primed else None,
                "work": str(work),
                "spans": str(spans_path) if spans_path else None,
            }
        )
    )
    out = child("measure.py", str(spec), timeout=seconds + 150)
    result = json.loads(out.splitlines()[-1])
    if not trace:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        result = run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            work,
            spans_path=OUT / f"spans-{args.workload}-s{args.seed}.json",
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:14.6f} {m['unit']}")
    raw = result["raw"]
    print(
        f"{result['attempted']} queries attempted, {result['failed']} failed; "
        f"{raw['samples']} untraced requests over {raw['passes']} passes: "
        f"p50 {raw['latency_p50_ms']:.1f} ms, p90 {raw['latency_p90_ms']:.1f} ms unscaled"
    )
    for line in result["wrong"] + result["problems"]:
        print(f"error: {line}", file=sys.stderr)
    print(
        json.dumps(
            {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
