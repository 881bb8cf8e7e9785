"""Multi-writer cache safety: two processes hammer one cache root.

The sharded engine's workers all publish into the same artifact cache.
Object/blob writes are content-addressed (concurrent writers store
equivalent payloads, last ``os.replace`` wins), but the shape index
aggregates predicates from *different* digests, so its update is a
locked read-merge-write.  These tests drive two real OS processes
against one root and assert the contracts: nothing torn (no quarantine
ever fires), everything readable, and the shape index holds predicates
from both writers.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.engine.cache import MAX_SHAPE_PREDICATES, ArtifactCache

WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.acfa.acfa import empty_acfa
from repro.circ.result import CircSafe, CircStats
from repro.engine.cache import ArtifactCache
from repro.smt import terms as T

root, tag, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cache = ArtifactCache(root)
for i in range(n):
    pred = T.Cmp("==", T.Var(f"w{{tag}}"), T.IntConst(i))
    result = CircSafe(
        variable="x",
        predicates=(pred,),
        context=empty_acfa(),
        stats=CircStats(),
    )
    cache.put(f"digest-{{tag}}-{{i}}", result, "fp", shape="shared-shape")
    cache.put_blob("absint", f"key-{{tag}}-{{i}}", {{"writer": tag, "i": i}})
"""

SRC = str(Path(__file__).resolve().parents[2] / "src")
N_PER_WRITER = 20


def run_writers(root):
    script = WRITER.format(src=SRC)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(root), str(tag), str(N_PER_WRITER)]
        )
        for tag in (0, 1)
    ]
    for p in procs:
        assert p.wait() == 0


def test_two_writers_no_torn_entries(tmp_path):
    run_writers(tmp_path)
    cache = ArtifactCache(tmp_path)
    # Every object both writers stored reads back cleanly.
    for tag in (0, 1):
        for i in range(N_PER_WRITER):
            entry = cache.get(f"digest-{tag}-{i}", "fp")
            assert entry is not None, (tag, i)
            assert entry.result.safe
            blob = cache.get_blob("absint", f"key-{tag}-{i}")
            assert blob == {"writer": tag, "i": i}
    # The checksum layer never quarantined anything: no torn writes.
    assert cache.stats()["corrupt"] == 0


def test_shape_index_accumulates_both_writers(tmp_path):
    """The flocked read-merge-write keeps predicates from BOTH writers
    in the shared shape slot (a blind overwrite would leave only the
    last writer's), capped at MAX_SHAPE_PREDICATES."""
    run_writers(tmp_path)
    cache = ArtifactCache(tmp_path)
    seeds = cache.seed_predicates("shared-shape", "fp")
    assert seeds, "the shape index must exist"
    assert len(seeds) <= MAX_SHAPE_PREDICATES
    (shape_file,) = (tmp_path / "shapes").glob("*.json")
    _, line, _ = shape_file.read_text().split("\n", 2)
    assert len(json.loads(line)) == len(seeds)
    assert "w0" in line and "w1" in line, (
        "predicates from both writers must survive the concurrent merge"
    )
    assert cache.stats()["corrupt"] == 0
