"""Record the benchmark's baseline: two sets of runs plus one traced run.

    python3 perfbench/baseline.py

Runs every workload of ``BENCHMARK.json`` ``RUNS`` times per set, each
run with another seed (set A takes seeds 0.., set B the next ones), the
way ``BENCHMARK.json``'s command is run.  For each end-to-end metric it
records the median and quartiles of each set, the spread (interquartile
distance over the median) and how far set B's median moved from set A's,
and flags a metric whose spread or move exceeds its bound.  One
``--trace 1`` run per workload gives the layer table.  The result goes
to ``BASELINE.json`` beside this file.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Runs per set, as many as a regression check makes per side.
RUNS = 10


def one_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        spec["command"]
        + [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def worse_by(metric: dict, a: float, b: float) -> float:
    """How much worse b is than a, as a share of a."""
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    result = {"runs_per_set": RUNS, "run_seconds": spec["run_seconds"], "workloads": {}}
    flagged = []
    for w in (w["name"] for w in spec["workloads"]):
        sets = {}
        for name, first in (("A", 0), ("B", RUNS)):
            runs = [one_run(spec, w, seed, 0) for seed in range(first, first + RUNS)]
            if any(r["failed"] for r in runs):
                flagged.append(f"{w} set {name}: failed queries")
            sets[name] = {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            }
        for m in spec["end_to_end"]:
            a, b = sets["A"][m["name"]], sets["B"][m["name"]]
            moved = worse_by(m, a["median"], b["median"])
            a["moved_B_vs_A"] = b["moved_B_vs_A"] = moved
            for label, s in sets.items():
                spread = s[m["name"]]["spread"]
                if m["name"] != "setup_s" and spread > m["bound"]:
                    flagged.append(f"{w} {m['name']} set {label} spread {spread:.3f}")
            if moved > m["bound"]:
                flagged.append(f"{w} {m['name']} B worse than A by {moved:.3f}")
        traced = one_run(spec, w, 0, 1)
        result["workloads"][w] = {
            "sets": sets,
            "layers": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for m in spec["end_to_end"]:
            s = sets["A"][m["name"]]
            print(
                f"{w:15s} {m['name']:16s} median {s['median']:12.4f} {m['unit']:5s} "
                f"spread A {s['spread']:.3f} B {sets['B'][m['name']]['spread']:.3f} "
                f"moved {s['moved_B_vs_A']:+.3f}",
                flush=True,
            )
    (HERE / "BASELINE.json").write_text(json.dumps(result, indent=1) + "\n")
    for line in flagged:
        print(f"flagged: {line}", file=sys.stderr)
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
