"""Smoke test of the benchmark: every workload at tiny size, traced.

    python -m pytest perfbench -q
"""

import json
import re
import sys

import pytest

import run
from layers import Tracer
from workloads import WORKLOADS

# The tracer test runs in this process and imports repro from src.
sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload(workload, tmp_path):
    spans = tmp_path / "spans.json"
    result = run.run(workload, 3, 0.0, True, tmp_path / "work", limit=3, spans_path=spans)
    assert result["correct"], result["wrong"] + result["problems"]
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    assert all(NAME.fullmatch(name) for name in metrics)
    assert metrics["trace.coverage"]["value"] >= 0.95
    assert json.loads(spans.read_text())["spans"]


def test_untraced_run_emits_end_to_end_metrics(tmp_path):
    result = run.run("check-table1", 0, 0.0, False, tmp_path, limit=3)
    assert result["correct"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _bindings():
    """Every attribute of every loaded repro module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for key, member in vars(value).items():
                    out[(name, attr, key)] = member
    return out


def test_uninstall_restores_every_binding():
    import measure  # noqa: F401  (loads repro the way the timed phase does)

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    # Module-level rebinding reaches re-exports, not just the definer.
    assert any(getattr(o, "__name__", "") == "repro.engine.planner" for o, _, _ in patched)
    assert any(isinstance(o, type) for o, _, _ in patched)
    tracer.uninstall()
    after = _bindings()
    assert before.keys() <= after.keys()
    assert all(after[key] is value for key, value in before.items())
