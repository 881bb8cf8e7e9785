"""One benchmark set-up, run in a fresh interpreter.

Imports the modules a workload's process uses and, when the spec names
a cache directory, primes it with one cold ``run_batch`` over the spec's
queries.  Prints the seconds this took at reference speed (see
``workloads.py``); interpreter start-up and reading the spec are not
counted.

    python3 perfbench/prime.py SPEC.json
"""

import importlib
import json
import sys
import time

from workloads import at_reference_speed, reference_time


def main(path: str) -> None:
    with open(path) as fh:
        spec = json.load(fh)
    with open(spec["queries"]) as fh:
        queries = json.load(fh)
    before = reference_time()
    start = time.perf_counter()
    for name in spec["imports"]:
        importlib.import_module(name)
    if spec["cache_dir"]:
        from repro.engine import BatchItem, run_batch

        items = [BatchItem(q["key"], q["source"], q["thread"], (q["variable"],)) for q in queries]
        run_batch(items, cache_dir=spec["cache_dir"], workers=1, timeout_s=60)
    elapsed = time.perf_counter() - start
    print(at_reference_speed(elapsed, before, reference_time()))


if __name__ == "__main__":
    main(sys.argv[1])
